package core

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// TestAllExperimentsRun runs each experiment with a probe, checks the
// shape of its tables and compares its tables, simulated cycles and
// counters with its entry in testdata/suite.golden. With UPDATE_GOLDEN
// set it rewrites the golden instead, once every experiment has run.
func TestAllExperimentsRun(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	var golden map[string]string
	if !update {
		golden = readGolden(t)
	}
	exps := All()
	entries := make([]string, len(exps))
	for i, e := range exps {
		t.Run(e.ID, func(t *testing.T) {
			r := runOne(e)
			if r.Err != nil {
				t.Fatalf("%s (%s): %v", e.ID, e.Title, r.Err)
			}
			if len(r.Tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range r.Tables {
				// "E1" prefixes "E10" to "E18", so a digit must not follow the ID.
				title, _, _ := strings.Cut(tb.String(), "\n")
				rest, ok := strings.CutPrefix(title, e.ID)
				if !ok || rest == "" || unicode.IsDigit(rune(rest[0])) {
					t.Errorf("%s: table title %q does not start with the experiment id", e.ID, title)
				}
			}
			if r.SimCycles == 0 || len(r.Counters) == 0 {
				t.Errorf("%s: probe observed %d cycles and %d counters", e.ID, r.SimCycles, len(r.Counters))
			}
			entries[i] = goldenEntry(r)
			if !update {
				checkGolden(t, golden, e.ID, entries[i])
			}
		})
	}
	if !update {
		return
	}
	if t.Failed() || slices.Contains(entries, "") {
		t.Fatalf("not rewriting %s: every experiment must run and pass", goldenFile)
	}
	if err := os.WriteFile(goldenFile, []byte(strings.Join(entries, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s", goldenFile)
}

func TestByID(t *testing.T) {
	e, err := ByID("E7")
	if err != nil || e.ID != "E7" {
		t.Fatalf("ByID(E7) = %+v, %v", e, err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// Shape assertions: the qualitative orderings the paper predicts must
// hold in the regenerated tables.
func TestPaperShapeE2Duplication(t *testing.T) {
	tables, err := E2PLB(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The entry-size table must report 71-bit PLB entries (Figure 1).
	found := false
	for _, tb := range tables {
		s := tb.String()
		if strings.Contains(s, "Entry size") && strings.Contains(s, "71") {
			found = true
		}
	}
	if !found {
		t.Error("entry-size table missing 71-bit PLB entry")
	}
}

func TestPaperShapeE7Sequential(t *testing.T) {
	tables, err := E7AMAT(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("E7 tables = %d", len(tables))
	}
	// On the cache-resident stream the PLB must win, and page-group
	// cost must grow monotonically with the sequential penalty.
	vals := cyclesPerAccess(t, tables[0].String())
	if len(vals) != 4 {
		t.Fatalf("expected 4 system rows:\n%s", tables[0])
	}
	if vals[0] >= vals[1] {
		t.Errorf("cache-resident: PLB (%.3f) not below page-group (%.3f)", vals[0], vals[1])
	}
	for i := 2; i < 4; i++ {
		if vals[i] <= vals[i-1] {
			t.Errorf("page-group cost not monotone in penalty: %v", vals)
		}
	}
}

func cyclesPerAccess(t *testing.T, table string) []float64 {
	t.Helper()
	var vals []float64
	for _, l := range strings.Split(table, "\n") {
		if strings.Contains(l, "PLB (parallel") || strings.Contains(l, "page-group (+") {
			f := strings.Fields(l)
			var v float64
			if _, err := fmt.Sscanf(f[len(f)-1], "%f", &v); err != nil {
				t.Fatalf("parse %q: %v", f[len(f)-1], err)
			}
			vals = append(vals, v)
		}
	}
	return vals
}
