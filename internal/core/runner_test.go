package core

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/stats"
)

// TestRunAllDeterministic is the harness's core guarantee: a
// wide-parallel sweep renders the same tables, simulated cycles and
// counters as the serial runs that TestAllExperimentsRun holds to
// testdata/suite.golden, because every experiment isolates its own state.
func TestRunAllDeterministic(t *testing.T) {
	golden := readGolden(t)
	sum := RunExperiments(All(), 8)
	if len(sum.Failures) != 0 {
		t.Fatalf("failures: %v", sum.Failures)
	}
	if len(sum.Results) != len(golden) {
		t.Fatalf("%d results, %d golden entries", len(sum.Results), len(golden))
	}
	for _, r := range sum.Results {
		checkGolden(t, golden, r.Experiment.ID, goldenEntry(r))
	}
}

// TestExperimentsConcurrentSameID runs one experiment from several
// goroutines at once — under -race this fails loudly if any experiment
// state is shared rather than per-run.
func TestExperimentsConcurrentSameID(t *testing.T) {
	e, err := ByID("E2")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	outs := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			outs[w] = runOne(e).Section()
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if outs[w] != outs[0] {
			t.Errorf("concurrent run %d rendered different output", w)
		}
	}
}

// TestE14ConcurrentDeterministic pins the shootdown experiment — the
// one that builds multiprocessor kernels — to the same guarantee: runs
// racing on separate goroutines must render byte-identical tables, and
// under -race any sharing between the per-CPU machine instances of
// concurrent kernels fails loudly.
func TestE14ConcurrentDeterministic(t *testing.T) {
	e, err := ByID("E14")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	outs := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			outs[w] = runOne(e).Section()
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if outs[w] != outs[0] {
			t.Errorf("concurrent E14 run %d rendered different output:\n--- run 0\n%s\n--- run %d\n%s",
				w, outs[0], w, outs[w])
		}
	}
}

// TestRunExperimentsCollectsAllErrors: a failing experiment must not
// stop the sweep; every failure is reported, in experiment order.
func TestRunExperimentsCollectsAllErrors(t *testing.T) {
	ok := func(id string) Experiment {
		return Experiment{ID: id, Title: "ok", Source: "test",
			Run: func(p *Probe) ([]*stats.Table, error) {
				p.ObserveCycles(1)
				tb := stats.NewTable(id+" table", "col")
				tb.AddRow(1)
				return []*stats.Table{tb}, nil
			}}
	}
	boom := func(id string) Experiment {
		return Experiment{ID: id, Title: "boom", Source: "test",
			Run: func(*Probe) ([]*stats.Table, error) {
				return nil, errors.New(id + " exploded")
			}}
	}
	exps := []Experiment{ok("X1"), boom("X2"), ok("X3"), boom("X4"), ok("X5")}
	sum := RunExperiments(exps, 3)

	if len(sum.Results) != len(exps) {
		t.Fatalf("results = %d, want %d", len(sum.Results), len(exps))
	}
	if len(sum.Failures) != 2 {
		t.Fatalf("failures = %v, want 2", sum.Failures)
	}
	for i, want := range []string{"X2", "X4"} {
		if !strings.Contains(sum.Failures[i].Error(), want) {
			t.Errorf("failure %d = %v, want experiment %s", i, sum.Failures[i], want)
		}
	}
	for i, r := range sum.Results {
		if r.Experiment.ID != exps[i].ID {
			t.Errorf("result %d is %s, want %s (order must be preserved)", i, r.Experiment.ID, exps[i].ID)
		}
		failed := r.Experiment.ID == "X2" || r.Experiment.ID == "X4"
		if (r.Err != nil) != failed {
			t.Errorf("%s: err = %v", r.Experiment.ID, r.Err)
		}
		if !failed && len(r.Tables) == 0 {
			t.Errorf("%s: successful run lost its tables", r.Experiment.ID)
		}
	}
	if sum.SimCycles != 3 {
		t.Errorf("suite sim cycles = %d, want 3 (one per successful run)", sum.SimCycles)
	}
}

// TestProbeNilSafe: experiments must run uninstrumented.
func TestProbeNilSafe(t *testing.T) {
	var p *Probe
	p.ObserveCycles(5)
	p.ObserveCounters(map[string]uint64{"x": 1})
	p.ObserveKernel(nil)
	if p.SimCycles() != 0 || p.CounterSnapshot() != nil {
		t.Fatal("nil probe recorded something")
	}
}
