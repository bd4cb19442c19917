package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
)

// RunResult is one experiment's outcome under the parallel runner.
type RunResult struct {
	// Experiment identifies what ran.
	Experiment Experiment
	// Tables holds the rendered tables (nil if the run failed).
	Tables []*stats.Table
	// Err is the run's failure, if any.
	Err error
	// Wall is the host wall-clock time the run took.
	Wall time.Duration
	// SimCycles is the total simulated cycles the run's probe observed.
	SimCycles uint64
	// Counters is the run's merged hardware-counter snapshot.
	Counters map[string]uint64
}

// Section renders the experiment exactly as cmd/tablegen prints it: a
// markdown header followed by each table and a blank line. The rendering
// depends only on the run's own tables, so output is byte-identical
// regardless of runner parallelism.
func (r RunResult) Section() string {
	var b strings.Builder
	e := r.Experiment
	fmt.Fprintf(&b, "## %s — %s (%s)\n\n", e.ID, e.Title, e.Source)
	for _, t := range r.Tables {
		t.Render(&b)
		b.WriteString("\n")
	}
	return b.String()
}

// Summary is the outcome of a whole suite run.
type Summary struct {
	// Results holds one entry per experiment, in experiment order
	// regardless of completion order.
	Results []RunResult
	// Wall is the wall-clock time of the whole suite.
	Wall time.Duration
	// SimCycles sums simulated cycles across all runs.
	SimCycles uint64
	// Failures lists every failed experiment's error, in experiment
	// order. Empty on a clean run.
	Failures []error
}

// RunExperiments executes exps on a pool of parallelism workers and
// returns all results. parallelism <= 0 means GOMAXPROCS. Experiments
// are independent — each constructs its own kernels and machines with
// locally seeded RNGs — so results and rendered tables are byte-identical
// for any parallelism. A failing experiment does not stop the others;
// all failures are collected in the summary.
func RunExperiments(exps []Experiment, parallelism int) Summary {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(exps) {
		parallelism = len(exps)
	}
	if parallelism < 1 {
		parallelism = 1
	}

	start := time.Now()
	results := make([]RunResult, len(exps))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = runOne(exps[i])
			}
		}()
	}
	for i := range exps {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	sum := Summary{
		Results: results,
		Wall:    time.Since(start),
	}
	for _, r := range results {
		sum.SimCycles += r.SimCycles
		if r.Err != nil {
			sum.Failures = append(sum.Failures, fmt.Errorf("%s: %w", r.Experiment.ID, r.Err))
		}
	}
	return sum
}

// runOne executes a single experiment with a fresh probe.
func runOne(e Experiment) RunResult {
	p := &Probe{}
	start := time.Now()
	tables, err := e.Run(p)
	return RunResult{
		Experiment: e,
		Tables:     tables,
		Err:        err,
		Wall:       time.Since(start),
		SimCycles:  p.SimCycles(),
		Counters:   p.CounterSnapshot(),
	}
}
