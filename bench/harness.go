package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"repro/internal/iommu"
	"repro/internal/kernel"
)

// org is one of the four hardware organizations the paper compares; name
// is the suffix of its per-organization metrics.
type org struct {
	name  string
	model kernel.Model
}

var orgs = [...]org{
	{"plb", kernel.ModelDomainPage},
	{"pg", kernel.ModelPageGroup},
	{"conv", kernel.ModelConventional},
	{"flush", kernel.ModelFlush},
}

const (
	// warmupBatches run before timing starts, so modelled structures and
	// host caches are warm; they count toward set-up time.
	warmupBatches = 32
	// batchesPerSecond is how many timed batches each organization runs per
	// second of --seconds. Batch sizes are chosen so that on the reference
	// host a run's timed batches take about --seconds in total.
	batchesPerSecond = 64
	// setupRuns is how many times a run builds its script and systems. The
	// first set is timed; the others are built between timed batches at
	// even intervals and thrown away. The host alternates between phases
	// about twice as slow as others, lasting seconds, so set-ups done back
	// to back all land in one phase; the fastest of set-ups spread over
	// the run does not depend on the phase the run starts in.
	setupRuns = 5
	// fastQuantile is the batch-time quantile throughput is computed from.
	// On a shared host, phases of contention that last seconds can cover
	// half a run, so the median batch time does not repeat from run to
	// run; the fastest tenth of batches does.
	fastQuantile = 0.1
	// treeEvery keeps the whole span tree of every treeEvery-th op.
	treeEvery = 1024
	// maxNotes caps the failure descriptions a run keeps.
	maxNotes = 8
)

// sizes fixes the work one run does per organization.
type sizes struct {
	batch  int // ops per batch (B)
	warmup int // untimed warm-up batches
	timed  int // timed batches
}

func (s sizes) ops() int { return (s.warmup + s.timed) * s.batch }

// workload is one seeded op mix. gen builds the whole op script up front;
// systems only replay it.
type workload struct {
	name  string
	batch int
	gen   func(seed int64, ops int) script
}

// script is a generated op sequence that can start a fresh system for any
// organization.
type script interface {
	hash() uint64
	start(o org) (system, error)
}

// system is one organization's kernel or machine replaying a script.
type system interface {
	// exec runs op i, checking its outcome through c.
	exec(i int, c *opCtx)
	// simCycles is the simulated cycle total so far.
	simCycles() uint64
	// counters adds the simulator's event counters into dst.
	counters(dst map[string]uint64)
	// boundary runs the checks due after batch n, with timers stopped.
	boundary(n int, c *opCtx)
	// finish drains the system and runs its end-of-run checks.
	finish(c *opCtx)
}

// outcome is an op's architectural result, compared against what the
// generator expects and folded into the per-organization digest.
type outcome uint8

const (
	allowed         outcome = iota
	denied                  // kernel.ErrProtection
	devDenied               // iommu.ErrDenied
	unrepresentable         // kernel.ErrUnrepresentable
	unexpected              // any other error
)

func classify(err error) outcome {
	switch {
	case err == nil:
		return allowed
	case errors.Is(err, kernel.ErrProtection):
		return denied
	case errors.Is(err, iommu.ErrDenied):
		return devDenied
	case errors.Is(err, kernel.ErrUnrepresentable):
		return unrepresentable
	}
	return unexpected
}

// checks collects a run's correctness failures.
type checks struct {
	failedOps    int64 // ops whose outcome differs from the expectation
	failedChecks int   // failed oracle, digest, drain and determinism checks
	notes        []string
}

func (k *checks) note(msg string) {
	if len(k.notes) < maxNotes {
		k.notes = append(k.notes, msg)
	}
}

// opCtx is what a system sees while it runs: the tracer (nil in untraced
// batches), the layer statistics (nil in untraced runs) and the checker
// state of one organization.
type opCtx struct {
	tr     *tracer
	layers *layerStats
	org    int
	digest uint64
	unrep  uint64
	chk    *checks
}

// expect checks that op's call had the outcome the generator expects.
func (c *opCtx) expect(op int, want outcome, err error) { c.expectValue(op, want, 0, err, 0) }

// expectValue checks an op's outcome and value against the generator's
// expectation and folds both into the digest. Page-group's
// ErrUnrepresentable is the one sanctioned divergence: it is counted and
// left out of the digest.
func (c *opCtx) expectValue(op int, want outcome, wantVal uint64, err error, gotVal uint64) {
	got := classify(err)
	if got == unrepresentable && orgs[c.org].model == kernel.ModelPageGroup {
		c.unrep++
		return
	}
	c.digest = mix(mix(c.digest, uint64(got)), gotVal)
	if got != want || gotVal != wantVal {
		c.chk.failedOps++
		c.chk.note(fmt.Sprintf("%s op %d: outcome %d value %#x (err %v), want outcome %d value %#x",
			orgs[c.org].name, op, got, gotVal, err, want, wantVal))
	}
}

// observe folds a value the generator cannot predict but every
// organization must agree on (such as a recycled domain ID) into the
// digest.
func (c *opCtx) observe(v uint64) { c.digest = mix(c.digest, v) }

// fail records a failed check that is not a single op's outcome.
func (c *opCtx) fail(format string, args ...any) {
	c.chk.failedChecks++
	c.chk.note(orgs[c.org].name + ": " + fmt.Sprintf(format, args...))
}

// oracle runs an oracle check, timing it into the oracle layer on traced
// runs. Checks run between batches, outside any batch timer.
func (c *opCtx) oracle(call callID, check func() error) {
	t0 := time.Now()
	err := check()
	if c.layers != nil {
		d := int64(time.Since(t0))
		c.layers.add(call, c.org, d, d, err != nil, 0)
	}
	if err != nil {
		c.fail("%s: %v", calls[call].name, err)
	}
}

// report is everything one run of one workload measured.
type report struct {
	workload   string
	seed       int64
	traced     bool
	sz         sizes
	scriptHash uint64

	setupS     []float64
	refNs      []int64            // refLoop times, one per round of batches
	untracedNs [len(orgs)][]int64 // timed batch wall times
	tracedNs   [len(orgs)][]int64
	simCycles  [len(orgs)]uint64 // over all warm-up and timed batches
	allocBytes uint64            // over untraced timed batches
	allocOps   int
	heapPeak   uint64 // live heap, as of the last collection

	attempted int64
	unrep     uint64
	chk       checks

	ctrs   map[string]uint64 // counter deltas over the timed batches, summed over orgs
	layers *layerStats
	trees  []spanTree
}

func (r *report) correct() bool { return r.chk.failedOps == 0 && r.chk.failedChecks == 0 }

// fleet is one set-up: a system per organization, with its checker
// context and its simulated cycle total before warm-up.
type fleet struct {
	systems [len(orgs)]system
	ctxs    [len(orgs)]opCtx
	cyc0    [len(orgs)]uint64
}

// setUp builds w's script and every organization's system and warms them
// up, recording its duration in rep.setupS.
func setUp(w *workload, rep *report) (*fleet, bool) {
	runtime.GC()
	t0 := time.Now()
	sz := rep.sz
	sc := w.gen(rep.seed, sz.ops())
	f := &fleet{}
	warmOps := sz.warmup * sz.batch
	for oi := range orgs {
		c := &f.ctxs[oi]
		*c = opCtx{org: oi, layers: rep.layers, chk: &rep.chk}
		sys, err := sc.start(orgs[oi])
		if err != nil {
			c.fail("start: %v", err)
			return nil, false
		}
		f.cyc0[oi] = sys.simCycles()
		for i := 0; i < warmOps; i++ {
			sys.exec(i, c)
		}
		f.systems[oi] = sys
	}
	rep.setupS = append(rep.setupS, time.Since(t0).Seconds())
	rep.attempted += int64(len(orgs) * warmOps)
	if h := sc.hash(); len(rep.setupS) > 1 && h != rep.scriptHash {
		rep.chk.failedChecks++
		rep.chk.note("the generator built a different script for the same seed")
	} else {
		rep.scriptHash = h
	}
	return f, true
}

// runWorkload sets w up and times every organization on it, setting up
// setupRuns-1 more times along the way. On a traced run every odd timed
// batch is traced, so the untraced batches of the same run give the
// tracing overhead.
func runWorkload(w *workload, seed int64, sz sizes, traced, keepTrees bool) *report {
	rep := &report{workload: w.name, seed: seed, traced: traced, sz: sz, ctrs: map[string]uint64{}}
	var tr *tracer
	if traced {
		rep.layers = newLayerStats()
		tr = newTracer(keepTrees)
	}
	f, ok := setUp(w, rep)
	if !ok {
		return rep
	}
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/live:bytes"}}
	var before [len(orgs)]map[string]uint64
	for oi, sys := range f.systems {
		before[oi] = map[string]uint64{}
		sys.counters(before[oi])
		if tr != nil {
			tr.calibrate(oi, sys.simCycles)
		}
	}
	// The organizations take turns batch by batch, so that a slow phase of
	// a shared host slows all of them alike.
	setupEvery := max(sz.timed/setupRuns, 1)
	ref := newRefLoop()
	for b := 0; b < sz.timed; b++ {
		ref.run() // untimed, so the timed pass does not start on the batches' cache state
		t0 := time.Now()
		ref.run()
		rep.refNs = append(rep.refNs, int64(time.Since(t0)))
		if b > 0 && b%setupEvery == 0 && len(rep.setupS) < setupRuns {
			if _, ok := setUp(w, rep); !ok {
				return rep
			}
			runtime.GC() // drop the thrown-away set before the next heap reading
		}
		lo := (sz.warmup + b) * sz.batch
		hi := lo + sz.batch
		tracedBatch := traced && b%2 == 1
		for oi, sys := range f.systems {
			c := &f.ctxs[oi]
			metrics.Read(samples)
			allocs0 := samples[0].Value.Uint64()
			if tracedBatch {
				c.tr = tr
				tr.startBatch(oi, lo)
				for i := lo; i < hi; i++ {
					tr.beginOp()
					sys.exec(i, c)
				}
				rep.tracedNs[oi] = append(rep.tracedNs[oi], tr.now()-tr.start)
				c.tr = nil
			} else {
				t0 := time.Now()
				for i := lo; i < hi; i++ {
					sys.exec(i, c)
				}
				rep.untracedNs[oi] = append(rep.untracedNs[oi], int64(time.Since(t0)))
			}
			metrics.Read(samples)
			rep.heapPeak = max(rep.heapPeak, samples[1].Value.Uint64())
			if tracedBatch {
				tr.flush(rep.layers, w.name, oi)
			} else {
				rep.allocBytes += samples[0].Value.Uint64() - allocs0
				rep.allocOps += sz.batch
			}
			sys.boundary(sz.warmup+b, c)
		}
	}
	for oi, sys := range f.systems {
		rep.simCycles[oi] = sys.simCycles() - f.cyc0[oi]
		after := map[string]uint64{}
		sys.counters(after)
		for k, v := range after {
			rep.ctrs[k] += v - before[oi][k]
		}
		sys.finish(&f.ctxs[oi])
		rep.unrep += f.ctxs[oi].unrep
	}
	rep.attempted += int64(len(orgs) * sz.timed * sz.batch)
	for oi := 1; oi < len(orgs); oi++ {
		if f.ctxs[oi].digest != f.ctxs[0].digest {
			rep.chk.failedChecks++
			rep.chk.note(fmt.Sprintf("outcome digest of %s (%#x) differs from %s (%#x)",
				orgs[oi].name, f.ctxs[oi].digest, orgs[0].name, f.ctxs[0].digest))
		}
	}
	if tr != nil {
		rep.trees = tr.trees
	}
	return rep
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostSlowdown is how much slower refLoop ran here than on the reference
// host, from the fastest tenth of its runs.
func (r *report) hostSlowdown() float64 {
	if len(r.refNs) == 0 {
		return 1
	}
	return quantile(floats(r.refNs), fastQuantile) / refLoopNs
}

// endToEnd returns the metrics a user of the simulator sees. Host times
// are scaled to the reference host's speed by hostSlowdown.
func (r *report) endToEnd() map[string]metric {
	slow := r.hostSlowdown()
	m := map[string]metric{"setup_s": {slices.Min(r.setupS) / slow, "s"}}
	for oi, o := range orgs {
		ns := floats(r.untracedNs[oi])
		m["ops_per_s."+o.name] = metric{float64(r.sz.batch) * 1e9 / quantile(ns, fastQuantile) * slow, "ops/s"}
		m["sim_cycles_per_op."+o.name] = metric{float64(r.simCycles[oi]) / float64(r.sz.ops()), "cycles"}
	}
	m["heap_peak_mb"] = metric{float64(r.heapPeak) / 1e6, "MB"}
	return m
}

// allocBytesPerOp is the heap allocated per op in untraced timed batches.
// It is a per-layer metric because the bare-machine and portal paths
// allocate nothing.
func (r *report) allocBytesPerOp() float64 { return ratio(float64(r.allocBytes), float64(r.allocOps)) }

// Counter ratios of the traced run: hits over hits plus misses. The
// fast-path rate is hits over hits plus installs (warm accesses only).
var hitRates = []struct{ name, hits, misses string }{
	{"plb.hit_rate", "plb.hit", "plb.miss"},
	{"pgc.hit_rate", "pgc.hit", "pgc.miss"},
	{"pgtlb.hit_rate", "pgtlb.hit", "pgtlb.miss"},
	{"tlb.hit_rate", "tlb.hit", "tlb.miss"},
	{"cache.hit_rate", "cache.hit", "cache.miss"},
	{"fastpath.warm_hit_rate", "fastpath.hits", "fastpath.installs"},
	{"iommu.iotlb_hit_rate", "iommu.iotlb_hits", "iommu.iotlb_misses"},
}

// Counter deltas of the traced run, by the names the simulator uses.
var counts = []struct{ name, unit string }{
	{"fastpath.invalidations", "count"},
	{"trap.plb_refill", "count"},
	{"trap.pg_refill", "count"},
	{"trap.tlb_refill", "count"},
	{"switch.cycles", "cycles"},
	{"cache.flushed_lines", "count"},
	{"kernel.domain_ids_recycled", "count"},
	{"kernel.cow_override_copies", "count"},
	{"kernel.page_faults", "count"},
	{"kernel.prot_faults", "count"},
	{"pg.groups_recycled", "count"},
	{"smp.requests", "count"},
	{"smp.ipis", "count"},
	{"smp.coalesced", "count"},
	{"smp.dev_ipis", "count"},
	{"smp.acks", "count"},
	{"smp.retransmits", "count"},
	{"smp.hop_cycles", "cycles"},
	{"iommu.denied", "count"},
}

// perLayer returns the traced run's metrics of single layers.
func (r *report) perLayer() map[string]metric {
	m := map[string]metric{}
	ls := r.layers
	for l := layer(0); l < numLayers; l++ {
		n := layerNames[l]
		m[n+".calls"] = metric{float64(ls.calls[l]), "count"}
		m[n+".p50_ns"] = metric{float64(ls.dur[l].quantile(0.5)), "ns"}
		m[n+".p99_ns"] = metric{float64(ls.dur[l].quantile(0.99)), "ns"}
		m[n+".errors"] = metric{float64(ls.errors[l]), "count"}
		for oi, o := range orgs {
			m[n+".self_ms."+o.name] = metric{float64(ls.selfNs[l][oi]) / 1e6, "ms"}
		}
	}
	for _, h := range hitRates {
		hits := float64(r.ctrs[h.hits])
		m[h.name] = metric{ratio(hits, hits+float64(r.ctrs[h.misses])), "ratio"}
	}
	for _, c := range counts {
		m[c.name] = metric{float64(r.ctrs[c.name]), c.unit}
	}
	for k := simKind(0); k < numSimKinds; k++ {
		m["sim."+simNames[k]+".p50_cycles"] = metric{float64(ls.sim[k].quantile(0.5)), "cycles"}
		m["sim."+simNames[k]+".p99_cycles"] = metric{float64(ls.sim[k].quantile(0.99)), "cycles"}
	}
	var traced, untraced float64
	for oi := range orgs {
		traced += median(floats(r.tracedNs[oi]))
		untraced += median(floats(r.untracedNs[oi]))
	}
	m["trace.overhead_pct"] = metric{100 * (ratio(traced, untraced) - 1), "%"}
	m["trace.wall_ms"] = metric{float64(r.tracedWallNs()) / 1e6, "ms"}
	var tracing int64
	for _, ns := range ls.tracerNs {
		tracing += ns
	}
	m["trace.tracer_ms"] = metric{float64(tracing) / 1e6, "ms"}
	m["alloc_bytes_per_op"] = metric{r.allocBytesPerOp(), "B"}
	m["host.ref_loop_ns"] = metric{quantile(floats(r.refNs), fastQuantile), "ns"}
	return m
}

// tracedWallNs is the summed wall time of the traced batches.
func (r *report) tracedWallNs() int64 {
	var total int64
	for _, ns := range r.tracedNs {
		for _, v := range ns {
			total += v
		}
	}
	return total
}

// print writes the human-readable summary of the run.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "%s  seed %d  B=%d  batches %d warm-up + %d timed per org  setup %.3f s (fastest of %d)\n",
		r.workload, r.seed, r.sz.batch, r.sz.warmup, r.sz.timed, slices.Min(r.setupS), len(r.setupS))
	fmt.Fprintf(w, "  host slowdown %.3f (reference loop %.0f us, %.0f us on the reference host); ops/s and setup_s are scaled by it\n",
		r.hostSlowdown(), quantile(floats(r.refNs), fastQuantile)/1e3, float64(refLoopNs)/1e3)
	e2e := r.endToEnd()
	fmt.Fprintf(w, "  %-6s %14s %14s %14s %16s\n", "org", "ops/s", "median ns/op", "p99 ns/op", "sim cycles/op")
	for oi, o := range orgs {
		ns := floats(r.untracedNs[oi])
		fmt.Fprintf(w, "  %-6s %14.0f %14.1f %14.1f %16.2f\n", o.name, e2e["ops_per_s."+o.name].Value,
			median(ns)/float64(r.sz.batch), tail(ns)/float64(r.sz.batch), e2e["sim_cycles_per_op."+o.name].Value)
	}
	fmt.Fprintf(w, "  alloc %.1f B/op  heap peak %.1f MB  failed %d of %d ops (fail_ratio %g)  failed checks %d  page-group unrepresentable %d\n",
		r.allocBytesPerOp(), e2e["heap_peak_mb"].Value, r.chk.failedOps, r.attempted,
		ratio(float64(r.chk.failedOps), float64(r.attempted)), r.chk.failedChecks, r.unrep)
	if r.traced {
		r.printLayers(w)
	}
	for _, n := range r.chk.notes {
		fmt.Fprintf(w, "  FAIL %s\n", n)
	}
}

// printLayers writes the traced run's layer table with each layer's share
// of the traced wall time net of tracing. Oracle checks run between
// batches, so their self time is outside that wall.
func (r *report) printLayers(w io.Writer) {
	pl := r.perLayer()
	wall, tracing := pl["trace.wall_ms"].Value, pl["trace.tracer_ms"].Value
	fmt.Fprintf(w, "  %-17s %10s %9s %9s %7s %7s", "layer", "calls", "p50 ns", "p99 ns", "errors", "share")
	for _, o := range orgs {
		fmt.Fprintf(w, " %10s", "ms "+o.name)
	}
	fmt.Fprintln(w)
	var inWall float64
	for l, n := range layerNames {
		self := 0.0
		for _, o := range orgs {
			self += pl[n+".self_ms."+o.name].Value
		}
		if layer(l) != layerOracle {
			inWall += self
		}
		fmt.Fprintf(w, "  %-17s %10.0f %9.0f %9.0f %7.0f %6.1f%%", n, pl[n+".calls"].Value,
			pl[n+".p50_ns"].Value, pl[n+".p99_ns"].Value, pl[n+".errors"].Value, 100*ratio(self, wall-tracing))
		for _, o := range orgs {
			fmt.Fprintf(w, " %10.1f", pl[n+".self_ms."+o.name].Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  self times outside oracle %.1f ms + tracing %.1f ms = %.1f of %.1f ms traced wall (%+.2f%%); tracing overhead %.1f%%\n",
		inWall, tracing, inWall+tracing, wall, 100*(ratio(inWall+tracing, wall)-1), pl["trace.overhead_pct"].Value)
}
