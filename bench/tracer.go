package main

import (
	"encoding/json"
	"math/bits"
	"os"
	"slices"
	"time"
)

// layer is one module of the simulator that the traced run attributes
// host time to. The names are the repository's package names.
type layer uint8

const (
	layerMachine layer = iota
	layerLifecycle
	layerVASpace
	layerEngine
	layerTouch
	layerPaging
	layerSMP
	layerIOMMU
	layerOracle
	layerDriver
	numLayers
)

var layerNames = [numLayers]string{
	"machine", "kernel.lifecycle", "kernel.vaspace", "kernel.engine",
	"kernel.touch", "kernel.paging", "smp", "iommu", "oracle", "driver",
}

// simKind groups the calls whose simulated cost the traced run reports as
// a distribution (sim.<kind>.{p50,p99}_cycles).
type simKind int8

const (
	noSim simKind = iota - 1
	simFork
	simDestroy
	simTouch
	simCall
	simRevoke
	simDMA
	numSimKinds
)

var simNames = [numSimKinds]string{"fork", "destroy", "touch", "call", "revoke", "dma"}

// callID names one public call a workload driver makes; every call the
// drivers make inside a timed batch is wrapped in a span of its layer.
type callID uint8

const (
	callOp callID = iota // an op's root span, in the driver layer
	callAccess
	callSwitchDomain
	callForkDomain
	callDestroyDomain
	callCreateSegment
	callDestroySegment
	callAttach
	callDetach
	callSetPageRights
	callClearPageRights
	callSetSegmentRights
	callTouch
	callLoad
	callStore
	callCall
	callPageOut
	callFlushShootdowns
	callDeviceWritePage
	callDeviceReadPage
	callDeviceTouch
	callVerify
	callVerifyDestroyed
)

var calls = [...]struct {
	name  string
	layer layer
	sim   simKind
}{
	callOp:               {"op", layerDriver, noSim},
	callAccess:           {"Access", layerMachine, noSim},
	callSwitchDomain:     {"SwitchDomain", layerMachine, noSim},
	callForkDomain:       {"ForkDomain", layerLifecycle, simFork},
	callDestroyDomain:    {"DestroyDomain", layerLifecycle, simDestroy},
	callCreateSegment:    {"CreateSegment", layerVASpace, noSim},
	callDestroySegment:   {"DestroySegment", layerVASpace, noSim},
	callAttach:           {"Attach", layerVASpace, noSim},
	callDetach:           {"Detach", layerVASpace, noSim},
	callSetPageRights:    {"SetPageRights", layerEngine, simRevoke},
	callClearPageRights:  {"ClearPageRights", layerEngine, simRevoke},
	callSetSegmentRights: {"SetSegmentRights", layerEngine, simRevoke},
	callTouch:            {"Touch", layerTouch, simTouch},
	callLoad:             {"Load", layerTouch, noSim},
	callStore:            {"Store", layerTouch, noSim},
	callCall:             {"Call", layerTouch, simCall},
	callPageOut:          {"PageOut", layerPaging, noSim},
	callFlushShootdowns:  {"FlushShootdowns", layerSMP, noSim},
	callDeviceWritePage:  {"DeviceWritePage", layerIOMMU, simDMA},
	callDeviceReadPage:   {"DeviceReadPage", layerIOMMU, simDMA},
	callDeviceTouch:      {"DeviceTouch", layerIOMMU, simDMA},
	callVerify:           {"Verify", layerOracle, noSim},
	callVerifyDestroyed:  {"VerifyDestroyed", layerOracle, noSim},
}

// span is one call's interval. Times are nanoseconds since the tracer's
// epoch; parent indexes the enclosing span, or is -1 when the op's root
// span encloses it; cyc is the simulated cycles the call spent,
// for calls with a sim kind.
type span struct {
	call       callID
	err        bool
	parent     int32
	start, end int64
	cyc        uint64
}

// interval is a closed-open time range in nanoseconds.
type interval struct{ start, end int64 }

// tracer records spans for the ops of one traced batch. Recording only
// appends to buffers that are reused across batches; flush folds a batch
// into layerStats after the batch timer has stopped. A nil *tracer
// records nothing, which is how untraced batches run.
//
// An op's root span runs from the end of the previous op's last call to
// the end of its own, so the roots of a batch tile it and the work
// between calls (reading the script, checking outcomes) is the driver
// layer's self time.
type tracer struct {
	epoch  time.Time
	cycles func() uint64 // the current system's simulated cycle total

	spans   []span
	ops     []int32 // index in spans of each op's first call
	firstOp int     // id of the batch's first op
	open    int32   // innermost open span; -1 between calls
	start   int64   // batch start

	cost      tracingCost // of the system being traced
	costs     [len(orgs)]tracingCost
	cyclesFns [len(orgs)]func() uint64

	ovh           []int64 // per span of an op: tracing cost of its subtree
	kids, top     []interval
	calIn, calOut []int64 // calibration samples, kept so the timed batches see no allocation

	keepTrees bool
	tracedOps int // ops flushed so far; every treeEvery-th keeps its tree
	trees     []spanTree
}

func newTracer(keepTrees bool) *tracer {
	const calSamples = 3 * 4096
	return &tracer{epoch: time.Now(), open: -1, keepTrees: keepTrees,
		calIn: make([]int64, 0, calSamples), calOut: make([]int64, 0, calSamples)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// tracingCost is what tracing one call costs: inside is the part of its
// clock reads within the call's span; outside (or outsideSim, for calls
// that also read the simulated cycle total) is the part, with the
// bookkeeping, that falls in the enclosing span.
type tracingCost struct{ inside, outside, outsideSim int64 }

// calibrate measures the tracing cost for organization org's system by
// tracing empty calls through the same code paths: the median empty span
// is the inside cost, and the median gap between consecutive empty calls
// the outside cost. flush subtracts both, so reported times are net of
// tracing.
func (t *tracer) calibrate(org int, cycles func() uint64) {
	t.cyclesFns[org], t.cycles = cycles, cycles
	const n = 4096
	cost := &t.costs[org]
	for _, c := range []callID{callAccess, callTouch} {
		t.calIn, t.calOut = t.calIn[:0], t.calOut[:0]
		for round := 0; round < 3; round++ {
			t.start = t.now()
			t.beginOp()
			for i := 0; i < n; i++ {
				t.end(t.begin(c), nil)
			}
			prev := t.start
			for _, s := range t.spans {
				t.calIn = append(t.calIn, s.end-s.start)
				t.calOut = append(t.calOut, s.start-prev)
				prev = s.end
			}
			t.spans, t.ops = t.spans[:0], t.ops[:0]
		}
		slices.Sort(t.calIn)
		slices.Sort(t.calOut)
		cost.inside = t.calIn[len(t.calIn)/2]
		if c == callAccess {
			cost.outside = t.calOut[len(t.calOut)/2]
		} else {
			cost.outsideSim = t.calOut[len(t.calOut)/2]
		}
	}
}

// startBatch starts a traced batch of organization org whose first op is
// firstOp.
func (t *tracer) startBatch(org, firstOp int) {
	t.cycles, t.cost = t.cyclesFns[org], t.costs[org]
	t.firstOp = firstOp
	t.start = t.now()
}

// beginOp starts the next op of the batch.
func (t *tracer) beginOp() { t.ops = append(t.ops, int32(len(t.spans))) }

// begin opens a span for call c inside the innermost open span. It returns
// the span's handle for end; on a nil tracer it does nothing.
func (t *tracer) begin(c callID) int32 {
	if t == nil {
		return -1
	}
	return t.push(c)
}

func (t *tracer) push(c callID) int32 {
	s := span{call: c, parent: t.open}
	if calls[c].sim != noSim {
		s.cyc = t.cycles()
	}
	s.start = t.now()
	t.spans = append(t.spans, s)
	t.open = int32(len(t.spans) - 1)
	return t.open
}

// end closes the span begin returned, recording whether the call failed.
func (t *tracer) end(i int32, err error) {
	if t == nil {
		return
	}
	t.pop(i, err)
}

func (t *tracer) pop(i int32, err error) {
	now := t.now()
	s := &t.spans[i]
	s.end = now
	s.err = err != nil
	if calls[s.call].sim != noSim {
		s.cyc = t.cycles() - s.cyc
	}
	t.open = s.parent
}

func (t *tracer) outsideOf(s *span) int64 {
	if calls[s.call].sim != noSim {
		return t.cost.outsideSim
	}
	return t.cost.outside
}

// flush folds the recorded batch into ls for organization org, with every
// duration and self time net of the calibrated tracing cost, and resets
// the buffers. Every treeEvery-th op keeps its whole span tree.
func (t *tracer) flush(ls *layerStats, workload string, org int) {
	prevEnd := t.start
	for n, first := range t.ops {
		lo, hi := int(first), len(t.spans)
		if n+1 < len(t.ops) {
			hi = int(t.ops[n+1])
		}
		op := t.spans[lo:hi]
		// Tracing cost of each span's subtree, children before parents.
		t.ovh = append(t.ovh[:0], make([]int64, len(op))...)
		for j := len(op) - 1; j >= 0; j-- {
			t.ovh[j] += t.cost.inside + t.outsideOf(&op[j])
			if p := op[j].parent; p >= 0 {
				t.ovh[int(p)-lo] += t.ovh[j]
			}
		}
		end := prevEnd
		var rootOvh, rootOut int64
		t.top = t.top[:0]
		for j := range op {
			s := &op[j]
			t.kids = t.kids[:0]
			var out int64
			for k := j + 1; k < len(op); k++ {
				if int(op[k].parent) == lo+j {
					t.kids = append(t.kids, interval{op[k].start, op[k].end})
					out += t.outsideOf(&op[k])
				}
			}
			self := selfTime(interval{s.start, s.end}, t.kids) - t.cost.inside - out
			ls.add(s.call, org, s.end-s.start-(t.ovh[j]-t.outsideOf(s)), self, s.err, s.cyc)
			if s.parent < 0 {
				end = s.end
				rootOvh += t.ovh[j]
				rootOut += t.outsideOf(s)
				t.top = append(t.top, interval{s.start, s.end})
			}
		}
		ls.add(callOp, org, end-prevEnd-rootOvh, selfTime(interval{prevEnd, end}, t.top)-rootOut, false, 0)
		ls.tracerNs[org] += rootOvh
		t.tracedOps++
		if t.keepTrees && t.tracedOps%treeEvery == 0 {
			t.trees = append(t.trees, newSpanTree(workload, orgs[org].name, t.firstOp+n, prevEnd, op, lo))
		}
		prevEnd = end
	}
	t.spans = t.spans[:0]
	t.ops = t.ops[:0]
}

// selfTime is the part of parent not covered by the union of its
// children, which may overlap each other or stick out of the parent.
func selfTime(parent interval, kids []interval) int64 {
	slices.SortFunc(kids, func(a, b interval) int {
		switch {
		case a.start < b.start:
			return -1
		case a.start > b.start:
			return 1
		}
		return 0
	})
	covered := int64(0)
	cur := interval{start: parent.start, end: parent.start}
	for _, k := range kids {
		k.start = max(k.start, parent.start)
		k.end = min(k.end, parent.end)
		if k.end <= k.start {
			continue
		}
		if k.start > cur.end {
			covered += cur.end - cur.start
			cur = k
		} else if k.end > cur.end {
			cur.end = k.end
		}
	}
	covered += cur.end - cur.start
	return parent.end - parent.start - covered
}

// logHist is a streaming histogram with 16 linear sub-buckets per power
// of two, so a quantile is within 6.25% of the true value.
type logHist struct {
	counts [976]uint64
	total  uint64
}

const histSubBits = 4

func histBucket(v uint64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	shift := bits.Len64(v) - histSubBits - 1
	return shift<<histSubBits + int(v>>shift)
}

func histLower(b int) uint64 {
	if b < 1<<histSubBits {
		return uint64(b)
	}
	shift := b>>histSubBits - 1
	return uint64(b-shift<<histSubBits) << shift
}

func (h *logHist) add(v uint64) {
	h.counts[histBucket(v)]++
	h.total++
}

// quantile returns the lower bound of the bucket holding the nearest-rank
// q-quantile, or 0 for an empty histogram.
func (h *logHist) quantile(q float64) uint64 {
	if h.total == 0 {
		return 0
	}
	rank := nearestRank(q, int(h.total))
	seen := uint64(0)
	for b, c := range h.counts {
		seen += c
		if seen >= uint64(rank) {
			return histLower(b)
		}
	}
	return 0
}

// exactHist counts each distinct value; simulated cycle costs take few
// distinct values, and their quantiles must repeat exactly.
type exactHist map[uint64]uint64

func (h exactHist) quantile(q float64) uint64 {
	if len(h) == 0 {
		return 0
	}
	vals := make([]uint64, 0, len(h))
	total := 0
	for v, c := range h {
		vals = append(vals, v)
		total += int(c)
	}
	slices.Sort(vals)
	rank := nearestRank(q, total)
	seen := 0
	for _, v := range vals {
		seen += int(h[v])
		if seen >= rank {
			return v
		}
	}
	return vals[len(vals)-1]
}

// layerStats aggregates the spans of a traced run by layer.
type layerStats struct {
	calls  [numLayers]uint64
	errors [numLayers]uint64
	dur    [numLayers]logHist
	selfNs [numLayers][len(orgs)]int64
	sim    [numSimKinds]exactHist
	// tracerNs is the calibrated tracing cost inside traced batches.
	tracerNs [len(orgs)]int64
}

func newLayerStats() *layerStats {
	ls := &layerStats{}
	for k := range ls.sim {
		ls.sim[k] = exactHist{}
	}
	return ls
}

func (ls *layerStats) add(c callID, org int, dur, self int64, failed bool, cyc uint64) {
	l := calls[c].layer
	ls.calls[l]++
	ls.dur[l].add(uint64(max(dur, 0)))
	ls.selfNs[l][org] += self
	if failed {
		ls.errors[l]++
	}
	if k := calls[c].sim; k != noSim {
		ls.sim[k][cyc]++
	}
}

// spanTree is one op's complete span tree, as written to the -spans file.
type spanTree struct {
	Workload string     `json:"workload"`
	Org      string     `json:"org"`
	Op       int        `json:"op"`
	Spans    []treeSpan `json:"spans"`
}

type treeSpan struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Error   bool   `json:"error,omitempty"`
}

// newSpanTree copies an op's spans, measured raw, behind a root for the
// op itself; times are relative to the root's start and parents index the
// tree (the root's parent is -1).
func newSpanTree(workload, org string, op int, rootStart int64, spans []span, base int) spanTree {
	tree := spanTree{Workload: workload, Org: org, Op: op, Spans: make([]treeSpan, len(spans)+1)}
	tree.Spans[0] = treeSpan{Name: calls[callOp].name, Layer: layerNames[layerDriver], Parent: -1}
	for i, s := range spans {
		parent := 0
		if s.parent >= 0 {
			parent = int(s.parent) - base + 1
		}
		tree.Spans[i+1] = treeSpan{
			Name: calls[s.call].name, Layer: layerNames[calls[s.call].layer], Parent: parent,
			StartNs: s.start - rootStart, EndNs: s.end - rootStart, Error: s.err,
		}
		tree.Spans[0].EndNs = max(tree.Spans[0].EndNs, s.end-rootStart)
	}
	return tree
}

// writeTrees writes the kept span trees to path as one JSON array.
func writeTrees(path string, trees []spanTree) error {
	data, err := json.MarshalIndent(trees, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
