// Package chaos is the deterministic fault-campaign harness: it runs
// every experiment of the suite under every fault scenario of the
// catalog (scenarios.go) and holds the system to its robustness
// contract — no panic escapes, recovery converges, and the shadow
// protection oracle (internal/oracle) verifies every surviving kernel
// clean after hardware recovery.
//
// All randomness derives from one campaign seed through per-run
// sub-seeds, experiments run serially, and the report contains no
// wall-clock, so the same seed reproduces a byte-identical report.
package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/oracle"
)

// Config parameterizes a campaign.
type Config struct {
	// Seed drives every random stream of the campaign.
	Seed int64
	// Short trims the experiment list from the full suite (core.All) to
	// a fast subset covering each protection structure, for CI.
	Short bool
}

// keep bounds how many kernels per run are tracked for post-run oracle
// verification; older kernels are verified and released as the
// experiment constructs more.
const keep = 8

// shortIDs is the CI subset: the experiments that construct kernels of
// all four models and exercise every scenario's hook point (switch/RPC:
// E6, paging: E9, mixed workloads: E10, conventional: E11,
// multiprocessor shootdown: E14, device translation agents: E17 — the
// only experiment whose kernels carry device seats, so the device
// scenarios depend on it). E2-E5/E7 drive hardware structures directly
// and give injection nothing to arm.
var shortIDs = map[string]bool{"E6": true, "E9": true, "E10": true, "E11": true, "E14": true, "E17": true}

// RunResult is the outcome of one (experiment, scenario) cell, or of
// one direct scenario (Experiment "-").
type RunResult struct {
	Experiment string
	Scenario   string
	// Kernels counts kernels the experiment constructed (and the
	// campaign armed).
	Kernels int
	// Fired counts scenario faults that actually fired.
	Fired uint64
	// PreViolations counts oracle violations found before recovery —
	// expected under corruption scenarios with Fired > 0, a campaign
	// failure otherwise.
	PreViolations int
	// Recovered counts hardware entries dropped by RecoverHardware
	// (kernel scenarios) or recovery work performed (direct scenarios).
	Recovered uint64
	// ConvergeCycles sums the cycles protection maintenance spent to
	// converge on each kernel (protocol scenarios only; the oracle
	// asserts each episode stayed within its bound).
	ConvergeCycles uint64
	// Err is the error the run surfaced, "" if none. Typed errors under
	// injection are expected and recorded, not failures.
	Err string
	// Panic is a recovered panic, "" if none. Any panic fails the
	// campaign.
	Panic string
	// Failures lists this run's campaign-contract violations.
	Failures []string
}

// Result is a whole campaign's outcome.
type Result struct {
	Seed int64
	Runs []RunResult
}

// Failures flattens every run's contract violations, prefixed with the
// run's cell.
func (r *Result) Failures() []string {
	var out []string
	for _, run := range r.Runs {
		for _, f := range run.Failures {
			out = append(out, fmt.Sprintf("%s/%s: %s", run.Scenario, run.Experiment, f))
		}
	}
	return out
}

// Passed reports whether the campaign upheld the robustness contract.
func (r *Result) Passed() bool { return len(r.Failures()) == 0 }

// Report renders the campaign deterministically: fixed ordering, no
// timestamps, no map iteration.
func (r *Result) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos campaign seed=%d runs=%d\n", r.Seed, len(r.Runs))
	scenario := ""
	for _, run := range r.Runs {
		if run.Scenario != scenario {
			scenario = run.Scenario
			fmt.Fprintf(&b, "\nscenario %s:\n", scenario)
		}
		fmt.Fprintf(&b, "  %-4s kernels=%-3d fired=%-6d pre-viol=%-4d recovered=%-6d",
			run.Experiment, run.Kernels, run.Fired, run.PreViolations, run.Recovered)
		if run.ConvergeCycles > 0 {
			fmt.Fprintf(&b, " conv-cycles=%-8d", run.ConvergeCycles)
		}
		switch {
		case run.Panic != "":
			fmt.Fprintf(&b, " PANIC: %s", run.Panic)
		case run.Err != "":
			fmt.Fprintf(&b, " err=%q", run.Err)
		default:
			b.WriteString(" ok")
		}
		b.WriteByte('\n')
		for _, f := range run.Failures {
			fmt.Fprintf(&b, "       FAIL: %s\n", f)
		}
	}
	fails := r.Failures()
	if len(fails) == 0 {
		fmt.Fprintf(&b, "\nRESULT: PASS (%d runs, 0 contract violations)\n", len(r.Runs))
	} else {
		fmt.Fprintf(&b, "\nRESULT: FAIL (%d contract violations in %d runs)\n", len(fails), len(r.Runs))
	}
	return b.String()
}

// Run executes the campaign serially: every scenario of Default(), each
// kernel scenario over every experiment, and each direct scenario once.
func Run(cfg Config) *Result {
	var exps []core.Experiment
	for _, e := range core.All() {
		if cfg.Short && !shortIDs[e.ID] {
			continue
		}
		exps = append(exps, e)
	}
	res := &Result{Seed: cfg.Seed}
	for _, sc := range Default() {
		if sc.Direct != nil {
			res.Runs = append(res.Runs, runDirect(sc, subSeed(cfg.Seed, "-", sc.Name)))
			continue
		}
		scenarioFired := uint64(0)
		first := len(res.Runs)
		for _, exp := range exps {
			rr := runOne(exp, sc, subSeed(cfg.Seed, exp.ID, sc.Name))
			scenarioFired += rr.Fired
			res.Runs = append(res.Runs, rr)
		}
		// A scenario that never fired anywhere was a no-op: the campaign
		// claimed coverage it did not have.
		if scenarioFired == 0 && len(exps) > 0 {
			last := &res.Runs[len(res.Runs)-1]
			last.Failures = append(last.Failures,
				fmt.Sprintf("scenario %q fired no faults across %d experiments", sc.Name, len(res.Runs)-first))
		}
	}
	return res
}

// runDirect executes a direct (network/DSM) scenario.
func runDirect(sc Scenario, seed int64) RunResult {
	rr := RunResult{Experiment: "-", Scenario: sc.Name}
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				rr.Panic = fmt.Sprint(p)
			}
		}()
		rr.Fired, rr.Recovered, err = sc.Direct(seed)
		return
	}()
	if rr.Panic != "" {
		rr.Failures = append(rr.Failures, "panic escaped: "+rr.Panic)
	}
	if err != nil {
		// Direct scenarios assert their own contract; their errors are
		// campaign failures, not recorded degradation.
		rr.Err = err.Error()
		rr.Failures = append(rr.Failures, "direct scenario failed: "+rr.Err)
	}
	if rr.Panic == "" && err == nil && rr.Fired == 0 {
		rr.Failures = append(rr.Failures, fmt.Sprintf("scenario %q fired no faults", sc.Name))
	}
	return rr
}

// runOne executes one experiment with the scenario armed on every
// kernel it constructs, then holds each tracked kernel to the recovery
// contract.
func runOne(exp core.Experiment, sc Scenario, seed int64) RunResult {
	rr := RunResult{Experiment: exp.ID, Scenario: sc.Name}
	rng := rand.New(rand.NewSource(seed))
	var kernels []*kernel.Kernel

	// converge, for protocol scenarios, drives protection maintenance to
	// completion with the fault hooks still armed and holds it to the
	// oracle's convergence contract: within the cycle bound, every CPU
	// trusted, zero violations. Runs before observe so the violations it
	// eliminates were never live (they sat on fenced CPUs).
	converge := func(k *kernel.Kernel) {
		if !sc.Protocol {
			return
		}
		conv, cerr := oracle.CheckConvergence(k)
		rr.ConvergeCycles += conv.Cycles
		if cerr != nil {
			rr.Failures = append(rr.Failures, "convergence contract: "+cerr.Error())
		}
	}

	// observe reads a kernel's fired count and pre-recovery violations
	// and checks the false-positive / clean-injection contract.
	observe := func(k *kernel.Kernel) {
		fired := sc.Fired(k)
		rr.Fired += fired
		pre := len(oracle.Violations(k))
		rr.PreViolations += pre
		if pre > 0 && fired == 0 {
			rr.Failures = append(rr.Failures,
				fmt.Sprintf("oracle reported %d violations with zero injected faults (false positive)", pre))
		}
		if pre > 0 && !sc.Corrupts {
			rr.Failures = append(rr.Failures,
				fmt.Sprintf("injection scenario corrupted hardware state (%d violations)", pre))
		}
	}

	kernel.SetNewHook(func(k *kernel.Kernel) {
		rr.Kernels++
		sc.Arm(k, rng)
		kernels = append(kernels, k)
		if len(kernels) > keep {
			// The experiment has moved on to newer kernels: verify and
			// release the oldest mid-run (the oracle does not perturb it).
			old := kernels[0]
			kernels = kernels[1:]
			converge(old)
			observe(old)
			disarm(old)
		}
	})
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				rr.Panic = fmt.Sprint(p)
			}
		}()
		_, err = exp.Run(&core.Probe{})
		return
	}()
	kernel.SetNewHook(nil)
	if err != nil {
		rr.Err = err.Error()
	}
	if rr.Panic != "" {
		rr.Failures = append(rr.Failures, "panic escaped: "+rr.Panic)
	}

	// Post-run protocol on every still-tracked kernel: observe, disarm,
	// recover, and require the oracle — structural and differential —
	// to come back clean.
	for _, k := range kernels {
		converge(k)
		pre := rr.PreViolations
		observe(k)
		disarm(k)
		violsHere := rr.PreViolations - pre
		dropped := k.RecoverHardware()
		rr.Recovered += uint64(dropped)
		if violsHere > 0 && dropped == 0 {
			rr.Failures = append(rr.Failures, "violations present but recovery dropped no entries")
		}
		if verr := oracle.Verify(k); verr != nil {
			rr.Failures = append(rr.Failures, "oracle dirty after recovery: "+verr.Error())
		}
		if vs := oracle.SweepVerdicts(k); len(vs) > 0 {
			rr.Failures = append(rr.Failures,
				fmt.Sprintf("verdict sweep dirty after recovery: %s (and %d more)", vs[0], len(vs)-1))
		}
	}
	return rr
}

// disarm removes every chaos hook the campaign may have installed — on
// every CPU's private structures, and the IPI fault hook.
func disarm(k *kernel.Kernel) {
	k.SetFaultInjector(nil)
	k.SetIPIFault(nil)
	for i := 0; i < k.NumCPUs(); i++ {
		switch m := k.MachineAt(i).(type) {
		case *machine.PLBMachine:
			m.PLB().SetCorruptor(nil)
			m.TLB().SetCorruptor(nil)
		case *machine.PGMachine:
			m.TLB().SetCorruptor(nil)
			m.Checker().SetCorruptor(nil)
		case *machine.ConventionalMachine:
			m.TLB().SetCorruptor(nil)
		}
	}
}

// subSeed derives a run's private seed from the campaign seed and the
// run's cell, so adding scenarios or experiments does not shift the
// random streams of existing cells.
func subSeed(seed int64, parts ...string) int64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return seed ^ int64(h.Sum64())
}
