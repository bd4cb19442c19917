// Package stats provides the measurement substrate for the simulator:
// named event counters, cycle accounting against a parameterized cost
// model, simple histograms, and plain-text table rendering for the
// experiment harness.
//
// Every hardware structure (PLB, TLBs, page-group cache, data caches) and
// the kernel increment counters here; experiments read them back to
// tabulate the per-operation costs that the paper's Table 1 describes
// qualitatively.
//
// Counters interns each name once into a dense slot registry. Hot paths
// resolve a Handle at construction time and increment through it — a
// single array add per event, no hashing — while the name-based API
// (Add, Get, Snapshot, Diff, Merge, String) keeps working on top of the
// same registry for experiment code and aggregation points.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Counters is a set of named monotonic event counters. The zero value is
// ready to use. Counters is not safe for concurrent use; the simulator is
// single-threaded by design (cycle-accurate interleaving is explicit).
//
// A counter becomes visible (to Names, Snapshot, String, ...) the first
// time it is incremented — including an Add of zero, which materializes
// the name at value 0. Registering a Handle alone does not make a counter
// visible, so structures may pre-resolve every counter they might ever
// bump without polluting output with events that never fired.
type Counters struct {
	idx     map[string]int // name → slot
	names   []string       // slot → name, registration order
	vals    []uint64       // slot → value
	touched []bool         // slot was explicitly Added (even with zero)
}

// Handle is a pre-resolved counter slot: incrementing through a Handle is
// a single array add, with the name→slot hash paid once at resolution.
// Obtain handles with Counters.Handle at construction time. Handles stay
// valid across Reset. The zero Handle is not usable.
type Handle struct {
	c    *Counters
	slot int32
}

// slot interns name, returning its dense index.
func (c *Counters) slot(name string) int {
	if i, ok := c.idx[name]; ok {
		return i
	}
	if c.idx == nil {
		c.idx = make(map[string]int)
	}
	i := len(c.vals)
	c.idx[name] = i
	c.names = append(c.names, name)
	c.vals = append(c.vals, 0)
	c.touched = append(c.touched, false)
	return i
}

// Handle interns name and returns its pre-resolved handle.
func (c *Counters) Handle(name string) Handle {
	return Handle{c: c, slot: int32(c.slot(name))}
}

// Inc increments the counter by one.
func (h Handle) Inc() { h.c.vals[h.slot]++ }

// Add increments the counter by n. Like the name-based Add, a zero n
// still materializes the counter in snapshots and rendered output.
func (h Handle) Add(n uint64) {
	h.c.vals[h.slot] += n
	h.c.touched[h.slot] = true
}

// Get returns the counter's current value.
func (h Handle) Get() uint64 { return h.c.vals[h.slot] }

// present reports whether slot i has been incremented (or zero-Added).
func (c *Counters) present(i int) bool { return c.vals[i] != 0 || c.touched[i] }

// Add increments the named counter by n.
func (c *Counters) Add(name string, n uint64) {
	i := c.slot(name)
	c.vals[i] += n
	c.touched[i] = true
}

// Get returns the value of the named counter (zero if never incremented).
func (c *Counters) Get(name string) uint64 {
	if i, ok := c.idx[name]; ok {
		return c.vals[i]
	}
	return 0
}

// Names returns all incremented counter names in sorted order.
func (c *Counters) Names() []string {
	names := make([]string, 0, len(c.names))
	for i, n := range c.names {
		if c.present(i) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Snapshot returns a copy of the current counter values.
func (c *Counters) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(c.names))
	for i, n := range c.names {
		if c.present(i) {
			out[n] = c.vals[i]
		}
	}
	return out
}

// Diff returns counters holding the difference between c and an earlier
// snapshot (c - before). Counters absent from the snapshot are treated as
// zero there.
func (c *Counters) Diff(before map[string]uint64) *Counters {
	out := &Counters{}
	for i, n := range c.names {
		if !c.present(i) {
			continue
		}
		if d := c.vals[i] - before[n]; d != 0 {
			out.Add(n, d)
		}
	}
	return out
}

// Merge adds all of other's counters into c, iterating other's dense
// slots directly (no intermediate map).
func (c *Counters) Merge(other *Counters) {
	for i, n := range other.names {
		if other.present(i) {
			c.Add(n, other.vals[i])
		}
	}
}

// MergeSnapshot adds a counter snapshot (as returned by Snapshot) into c.
func (c *Counters) MergeSnapshot(snap map[string]uint64) {
	for k, v := range snap {
		c.Add(k, v)
	}
}

// String renders the counters one per line, sorted by name.
func (c *Counters) String() string {
	var b strings.Builder
	for _, name := range c.Names() {
		fmt.Fprintf(&b, "%-40s %12d\n", name, c.Get(name))
	}
	return b.String()
}

// Cycles accumulates simulated processor cycles. It is kept separate from
// Counters so cost-model changes do not disturb event counts.
type Cycles struct {
	total uint64
}

// Add charges n cycles.
func (c *Cycles) Add(n uint64) { c.total += n }

// Total returns the cycles charged so far.
func (c *Cycles) Total() uint64 { return c.total }

// Histogram is a fixed-bucket histogram of uint64 samples. Bucket i counts
// samples in [bounds[i-1], bounds[i]); the final bucket is unbounded.
type Histogram struct {
	bounds []uint64
	counts []uint64
	n      uint64
	sum    uint64
	max    uint64
}

// NewHistogram creates a histogram with the given ascending bucket upper
// bounds. It panics if bounds are not strictly ascending, since histogram
// shape is fixed at construction.
func NewHistogram(bounds ...uint64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]uint64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v < h.bounds[i] })
	h.counts[i]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Max returns the largest sample observed (zero if none).
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the arithmetic mean of samples (zero if none).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// String renders the histogram compactly.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.2f max=%d\n", h.n, h.Mean(), h.max)
	prev := uint64(0)
	for i, c := range h.counts {
		if i < len(h.bounds) {
			fmt.Fprintf(&b, "  [%d,%d): %d\n", prev, h.bounds[i], c)
			prev = h.bounds[i]
		} else {
			fmt.Fprintf(&b, "  [%d,+inf): %d\n", prev, c)
		}
	}
	return b.String()
}
