package stats

import (
	"strings"
	"testing"
)

func TestCountersBasics(t *testing.T) {
	var c Counters
	if c.Get("x") != 0 {
		t.Fatal("fresh counter not zero")
	}
	c.Add("x", 1)
	c.Add("x", 4)
	c.Add("y", 2)
	if c.Get("x") != 5 || c.Get("y") != 2 {
		t.Fatalf("got x=%d y=%d", c.Get("x"), c.Get("y"))
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Fatalf("Names = %v", names)
	}
	c.Reset()
	if c.Get("x") != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestCountersSnapshotDiff(t *testing.T) {
	var c Counters
	c.Add("a", 10)
	c.Add("b", 1)
	snap := c.Snapshot()
	c.Add("a", 5)
	c.Add("c", 3)
	d := c.Diff(snap)
	if d.Get("a") != 5 || d.Get("b") != 0 || d.Get("c") != 3 {
		t.Fatalf("Diff = %v", d.Snapshot())
	}
	// Diff must not contain zero-valued entries.
	for _, n := range d.Names() {
		if d.Get(n) == 0 {
			t.Errorf("Diff contains zero counter %q", n)
		}
	}
	// Snapshot must be a copy, not an alias.
	snap["a"] = 999
	if c.Get("a") != 15 {
		t.Error("Snapshot aliases the live map")
	}
}

func TestCountersMerge(t *testing.T) {
	var a, b Counters
	a.Add("x", 1)
	b.Add("x", 2)
	b.Add("y", 7)
	a.Merge(&b)
	if a.Get("x") != 3 || a.Get("y") != 7 {
		t.Fatalf("Merge: %v", a.Snapshot())
	}
}

func TestCyclesAccumulate(t *testing.T) {
	var cy Cycles
	cy.Add(10)
	cy.Add(5)
	if cy.Total() != 15 {
		t.Fatalf("Total = %d", cy.Total())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 100)
	for _, v := range []uint64{0, 5, 9, 10, 50, 99, 100, 1000} {
		h.Observe(v)
	}
	if h.n != 8 {
		t.Fatalf("count = %d", h.n)
	}
	if h.Max() != 1000 {
		t.Fatalf("Max = %d", h.Max())
	}
	bounds, counts := h.bounds, h.counts
	if len(bounds) != 2 || len(counts) != 3 {
		t.Fatalf("buckets: %v %v", bounds, counts)
	}
	if counts[0] != 3 || counts[1] != 3 || counts[2] != 2 {
		t.Fatalf("counts = %v", counts)
	}
	wantMean := float64(0+5+9+10+50+99+100+1000) / 8
	if h.Mean() != wantMean {
		t.Fatalf("Mean = %f, want %f", h.Mean(), wantMean)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on descending bounds")
		}
	}()
	NewHistogram(10, 5)
}

func TestHistogramEmptyMean(t *testing.T) {
	h := NewHistogram(1)
	if h.Mean() != 0 {
		t.Fatal("empty histogram mean should be 0")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "name", "count")
	tb.AddRow("alpha", 1)
	tb.AddRow("beta-long-name", 123456)
	tb.AddRow("gamma", 3.14159)
	tb.AddNote("a footnote")
	s := tb.String()
	for _, want := range []string{"Demo", "name", "count", "alpha", "beta-long-name", "123456", "3.142", "note: a footnote"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q in:\n%s", want, s)
		}
	}
	if len(tb.rows) != 3 {
		t.Errorf("table holds %d rows, want 3", len(tb.rows))
	}
	// Header and first row must be aligned: 'count' column starts at same
	// offset in header and rows.
	lines := strings.Split(s, "\n")
	var headerLine, rowLine string
	for i, l := range lines {
		if strings.HasPrefix(l, "name") {
			headerLine = l
			rowLine = lines[i+2]
			break
		}
	}
	if strings.Index(headerLine, "count") != strings.Index(rowLine, "1") {
		t.Errorf("misaligned columns:\n%q\n%q", headerLine, rowLine)
	}
}

func TestRatioPct(t *testing.T) {
	if Ratio(10, 5) != "2.00x" {
		t.Errorf("Ratio(10,5) = %s", Ratio(10, 5))
	}
	if Ratio(0, 0) != "1.00x" {
		t.Errorf("Ratio(0,0) = %s", Ratio(0, 0))
	}
	if Ratio(3, 0) != "inf" {
		t.Errorf("Ratio(3,0) = %s", Ratio(3, 0))
	}
	if Pct(1, 4) != "25.0%" {
		t.Errorf("Pct(1,4) = %s", Pct(1, 4))
	}
	if Pct(1, 0) != "0.0%" {
		t.Errorf("Pct(1,0) = %s", Pct(1, 0))
	}
}

func TestMergeSnapshot(t *testing.T) {
	var c Counters
	c.Add("x", 1)
	c.MergeSnapshot(map[string]uint64{"x": 2, "y": 5})
	if c.Get("x") != 3 || c.Get("y") != 5 {
		t.Fatalf("got x=%d y=%d", c.Get("x"), c.Get("y"))
	}
}

func TestHandleIncAdd(t *testing.T) {
	c := &Counters{}
	h := c.Handle("x.hits")
	h.Inc()
	h.Add(4)
	if got := c.Get("x.hits"); got != 5 {
		t.Fatalf("Get after handle Inc/Add = %d, want 5", got)
	}
	if got := h.Get(); got != 5 {
		t.Fatalf("Handle.Get = %d, want 5", got)
	}
	if name := c.names[h.slot]; name != "x.hits" {
		t.Fatalf("handle names %q, want x.hits", name)
	}
	// The name-based API shares the slot.
	c.Add("x.hits", 1)
	if got := h.Get(); got != 6 {
		t.Fatalf("Handle.Get after name-based Add = %d, want 6", got)
	}
	// Resolving the same name again returns the same slot.
	h2 := c.Handle("x.hits")
	h2.Inc()
	if got := h.Get(); got != 7 {
		t.Fatalf("handles for one name diverged: %d, want 7", got)
	}
}

func TestHandleRegistrationInvisibleUntilTouched(t *testing.T) {
	// Structures pre-resolve every counter they might bump; names must not
	// leak into output until an event actually fires (seed parity).
	c := &Counters{}
	h := c.Handle("never.fired")
	if names := c.Names(); len(names) != 0 {
		t.Fatalf("Names after Handle = %v, want empty", names)
	}
	if snap := c.Snapshot(); len(snap) != 0 {
		t.Fatalf("Snapshot after Handle = %v, want empty", snap)
	}
	if c.String() != "" {
		t.Fatalf("String after Handle = %q, want empty", c.String())
	}
	// An Add of zero materializes the counter, like the seed's map write.
	h.Add(0)
	if snap := c.Snapshot(); len(snap) != 1 || snap["never.fired"] != 0 {
		t.Fatalf("Snapshot after Add(0) = %v, want {never.fired:0}", snap)
	}
}

func TestHandleSurvivesReset(t *testing.T) {
	c := &Counters{}
	h := c.Handle("a")
	h.Add(3)
	c.Reset()
	if got := c.Get("a"); got != 0 {
		t.Fatalf("Get after Reset = %d, want 0", got)
	}
	if names := c.Names(); len(names) != 0 {
		t.Fatalf("Names after Reset = %v, want empty (zero-Add cleared)", names)
	}
	h.Inc()
	if got := c.Get("a"); got != 1 {
		t.Fatalf("handle after Reset: Get = %d, want 1", got)
	}
}

func TestCountersMergeBySlot(t *testing.T) {
	a, b := &Counters{}, &Counters{}
	a.Add("x", 1)
	b.Add("x", 2)
	b.Add("y", 3)
	b.Handle("hidden") // registered but never fired: must not merge
	a.Merge(b)
	if got := a.Get("x"); got != 3 {
		t.Fatalf("x = %d, want 3", got)
	}
	if got := a.Get("y"); got != 3 {
		t.Fatalf("y = %d, want 3", got)
	}
	if got := a.Names(); len(got) != 2 {
		t.Fatalf("Names = %v, want [x y]", got)
	}
}

func BenchmarkHandleInc(b *testing.B) {
	c := &Counters{}
	h := c.Handle("bench.counter")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Inc()
	}
}

func BenchmarkNameInc(b *testing.B) {
	c := &Counters{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add("bench.counter", 1)
	}
}
