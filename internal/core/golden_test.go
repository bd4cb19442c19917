package core

import (
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/stats"
)

// goldenFile holds every experiment's rendered tables, simulated-cycle
// total and full counter snapshot, one entry per experiment in All()
// order. A deliberate cost-model or experiment change rewrites it with
//
//	UPDATE_GOLDEN=1 go test ./internal/core -run TestAllExperimentsRun
//
// and the change arrives as a reviewed diff of the file.
const goldenFile = "testdata/suite.golden"

// sectionStart matches the first line of an experiment's section, as
// RunResult.Section renders it, and captures the experiment ID.
var sectionStart = regexp.MustCompile(`(?m)^## (E\d+) — `)

// goldenEntry renders r as its entry in goldenFile: the section tablegen
// prints, then the simulated-cycle total, then every counter sorted by
// name (zero-valued ones included).
func goldenEntry(r RunResult) string {
	var counters stats.Counters
	counters.MergeSnapshot(r.Counters)
	id := r.Experiment.ID
	return fmt.Sprintf("%s== %s sim cycles %d ==\n== %s counters ==\n%s",
		r.Section(), id, r.SimCycles, id, counters.String())
}

// readGolden splits goldenFile into its entries, keyed by experiment ID.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1 go test ./internal/core -run TestAllExperimentsRun)", err)
	}
	s := string(b)
	locs := sectionStart.FindAllStringSubmatchIndex(s, -1)
	entries := make(map[string]string, len(locs))
	for i, loc := range locs {
		end := len(s)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		entries[s[loc[2]:loc[3]]] = s[loc[0]:end]
	}
	return entries
}

// checkGolden fails t, naming the experiment and the first line that
// differs, when got is not the golden entry for id.
func checkGolden(t *testing.T, golden map[string]string, id, got string) {
	t.Helper()
	want, ok := golden[id]
	if !ok {
		t.Errorf("%s: no entry in %s", id, goldenFile)
		return
	}
	if got != want {
		t.Errorf("%s differs from %s at %s", id, goldenFile, firstDiff(got, want))
	}
}

// firstDiff locates the first line at which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d of its entry:\n got: %q\nwant: %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("its length: got %d lines, want %d", len(g), len(w))
}

// TestExperimentsDocMatchesGolden holds the tables pasted in
// EXPERIMENTS.md to the golden: every ```text block that starts with an
// experiment's section header must be that experiment's section, and
// every experiment must be pasted exactly once. Other fenced blocks are
// not tables and are ignored.
func TestExperimentsDocMatchesGolden(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	golden := readGolden(t)
	pasted := map[string]int{}
	for _, m := range regexp.MustCompile("(?ms)^```text\n(.*?)^```").FindAllStringSubmatch(string(doc), -1) {
		block := m[1]
		id := sectionStart.FindStringSubmatch(block)
		if id == nil || !strings.HasPrefix(block, id[0]) {
			continue
		}
		pasted[id[1]]++
		want, _, _ := strings.Cut(golden[id[1]], "== "+id[1]+" sim cycles ")
		if got, want := strings.TrimRight(block, "\n"), strings.TrimRight(want, "\n"); got != want {
			t.Errorf("EXPERIMENTS.md: %s differs from %s at %s", id[1], goldenFile, firstDiff(got, want))
		}
	}
	for _, e := range All() {
		if pasted[e.ID] != 1 {
			t.Errorf("EXPERIMENTS.md pastes %s %d times, want once", e.ID, pasted[e.ID])
		}
	}
}

// TestCounterParityWithSeed holds the seed's name-keyed rendering of a
// probe's counters, each name sorted and printed as "%-40s %12d", to
// the golden's counter sections of a representative experiment set, and
// the trace-driven experiments' rendered tables to their golden
// sections. It guards the handle-based counter registry against drifting
// from the name-keyed maps it replaced, independently of the
// stats.Counters rendering goldenEntry uses.
func TestCounterParityWithSeed(t *testing.T) {
	golden := readGolden(t)
	for _, id := range []string{"E1", "E2", "E4", "E5"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		p := &Probe{}
		tables, err := e.Run(p)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		section, rest, _ := strings.Cut(golden[id], "== "+id+" sim cycles ")
		if id == "E4" || id == "E5" {
			var b strings.Builder
			for _, tb := range tables {
				tb.Render(&b)
				b.WriteString("\n")
			}
			_, want, _ := strings.Cut(section, "\n\n")
			if got := b.String(); got != want {
				t.Errorf("%s tables differ from %s at %s", id, goldenFile, firstDiff(got, want))
			}
		}
		snap := p.CounterSnapshot()
		names := make([]string, 0, len(snap))
		for k := range snap {
			names = append(names, k)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "%-40s %12d\n", n, snap[n])
		}
		_, want, _ := strings.Cut(rest, "== "+id+" counters ==\n")
		if got := b.String(); got != want {
			t.Errorf("%s counters differ from %s at %s", id, goldenFile, firstDiff(got, want))
		}
	}
}
