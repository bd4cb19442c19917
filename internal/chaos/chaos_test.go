package chaos

import (
	"os"
	"strings"
	"testing"
)

// TestCatalogShape: the catalog must cover at least 8 distinct fault
// scenarios (the campaign's coverage floor) with unique names, and
// every scenario must be either armed or direct.
func TestCatalogShape(t *testing.T) {
	scens := Default()
	if len(scens) < 8 {
		t.Fatalf("catalog has %d scenarios, want >= 8", len(scens))
	}
	seen := map[string]bool{}
	for _, sc := range scens {
		if seen[sc.Name] {
			t.Fatalf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Direct == nil && (sc.Arm == nil || sc.Fired == nil) {
			t.Fatalf("scenario %q is neither armed nor direct", sc.Name)
		}
	}
}

// TestShortCampaignPasses runs the CI-sized campaign and holds it to
// the full robustness contract: no escaped panics, no oracle false
// positives, every tracked kernel verifiable after recovery, and every
// scenario actually firing somewhere. The report must also equal the
// committed golden copy, which pins simulated behaviour under fault
// injection: a deliberate change regenerates it with
// `go run ./cmd/chaos -seed 1 -short -o internal/chaos/testdata/short_seed1.report`.
func TestShortCampaignPasses(t *testing.T) {
	res := Run(Config{Seed: 1, Short: true})
	want, err := os.ReadFile("testdata/short_seed1.report")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Report(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gotLines), len(wantLines)) {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("report diverges from the golden at line %d:\n got: %q\nwant: %q", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("report has %d lines, the golden %d", len(gotLines), len(wantLines))
	}
	if !res.Passed() {
		for _, f := range res.Failures() {
			t.Errorf("contract violation: %s", f)
		}
		t.Fatalf("campaign failed; report:\n%s", res.Report())
	}
	var fired uint64
	for _, run := range res.Runs {
		fired += run.Fired
	}
	if fired == 0 {
		t.Fatal("campaign fired no faults at all")
	}
	if !strings.Contains(res.Report(), "RESULT: PASS") {
		t.Fatal("report does not state the verdict")
	}
}

// TestCampaignDeterministic: the same seed must reproduce the report
// byte for byte — the property every triage of a chaos failure depends
// on.
func TestCampaignDeterministic(t *testing.T) {
	a := Run(Config{Seed: 42, Short: true}).Report()
	b := Run(Config{Seed: 42, Short: true}).Report()
	if a != b {
		t.Fatalf("same seed produced different reports:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestSeedChangesCampaign: different seeds must actually explore
// different fault schedules.
func TestSeedChangesCampaign(t *testing.T) {
	a := Run(Config{Seed: 1, Short: true}).Report()
	b := Run(Config{Seed: 2, Short: true}).Report()
	if a == b {
		t.Fatal("seeds 1 and 2 produced identical campaigns")
	}
}
