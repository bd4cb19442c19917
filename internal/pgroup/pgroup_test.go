package pgroup

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/assoc"
	"repro/internal/stats"
)

// pidRegisters builds n PID registers as machine.NewPG does: a FIFO group
// cache of one set and n ways.
func pidRegisters(n int, ctrs *stats.Counters) *GroupCache {
	return NewGroupCache(assoc.Config{Sets: 1, Ways: n, Policy: assoc.FIFO}, ctrs, "pid")
}

func checkers(ctrs *stats.Counters) map[string]*GroupCache {
	return map[string]*GroupCache{
		"pid-registers": pidRegisters(4, ctrs),
		"group-cache": NewGroupCache(assoc.Config{Sets: 1, Ways: 4, Policy: assoc.LRU},
			ctrs, "pgc"),
	}
}

// resident counts c's resident groups.
func resident(c *GroupCache) int {
	n := 0
	c.ForEach(func(addr.GroupID, bool) bool { n++; return true })
	return n
}

func TestCheckerCommonBehaviour(t *testing.T) {
	for name, c := range checkers(&stats.Counters{}) {
		t.Run(name, func(t *testing.T) {
			// Group 0 is globally accessible, never write-disabled.
			ok, wd := c.Check(addr.GlobalGroup)
			if !ok || wd {
				t.Fatal("global group check wrong")
			}
			// Unloaded group misses.
			if ok, _ := c.Check(7); ok {
				t.Fatal("unloaded group accessible")
			}
			c.Load(7, false)
			if ok, wd := c.Check(7); !ok || wd {
				t.Fatal("loaded group check wrong")
			}
			// Write-disable bit is surfaced.
			c.Load(8, true)
			if ok, wd := c.Check(8); !ok || !wd {
				t.Fatal("write-disable bit lost")
			}
			if resident(c) != 2 {
				t.Fatalf("resident groups = %d", resident(c))
			}
			// Remove drops exactly the named group.
			if !c.Remove(7) || c.Remove(7) {
				t.Fatal("Remove semantics wrong")
			}
			if ok, _ := c.Check(7); ok {
				t.Fatal("removed group accessible")
			}
			// PurgeAll empties (domain switch).
			if n := c.PurgeAll(); n != 1 {
				t.Fatalf("PurgeAll = %d", n)
			}
			if resident(c) != 0 {
				t.Fatal("entries after purge")
			}
			if c.Capacity() != 4 {
				t.Fatalf("Capacity = %d", c.Capacity())
			}
		})
	}
}

func TestCheckerCapacityEviction(t *testing.T) {
	for name, c := range checkers(&stats.Counters{}) {
		t.Run(name, func(t *testing.T) {
			for g := addr.GroupID(1); g <= 5; g++ {
				c.Load(g, false)
			}
			if resident(c) != 4 {
				t.Fatalf("resident groups = %d, want capacity 4", resident(c))
			}
			// Group 5 must be resident; one of 1..4 was displaced.
			if ok, _ := c.Check(5); !ok {
				t.Fatal("most recently loaded group missing")
			}
		})
	}
}

func TestPIDRoundRobinReplacement(t *testing.T) {
	ctrs := &stats.Counters{}
	p := pidRegisters(2, ctrs)
	p.Load(1, false)
	p.Load(2, false)
	p.Load(3, false) // displaces slot 0 (group 1)
	if ok, _ := p.Check(1); ok {
		t.Fatal("group 1 should have been displaced")
	}
	if ok, _ := p.Check(2); !ok {
		t.Fatal("group 2 displaced out of order")
	}
	p.Load(4, false) // displaces slot 1 (group 2)
	if ok, _ := p.Check(2); ok {
		t.Fatal("group 2 should have been displaced second")
	}
}

func TestGroupCacheLRUReplacement(t *testing.T) {
	ctrs := &stats.Counters{}
	g := NewGroupCache(assoc.Config{Sets: 1, Ways: 2, Policy: assoc.LRU}, ctrs, "pgc")
	g.Load(1, false)
	g.Load(2, false)
	g.Check(1) // refresh 1; 2 becomes LRU
	g.Load(3, false)
	if ok, _ := g.Check(2); ok {
		t.Fatal("LRU group 2 should have been evicted")
	}
	if ok, _ := g.Check(1); !ok {
		t.Fatal("recently used group 1 evicted")
	}
}

func TestPIDLoadExistingUpdatesWriteDisable(t *testing.T) {
	ctrs := &stats.Counters{}
	p := pidRegisters(4, ctrs)
	p.Load(5, false)
	p.Load(5, true)
	if resident(p) != 1 {
		t.Fatalf("resident groups = %d (reload duplicated)", resident(p))
	}
	if _, wd := p.Check(5); !wd {
		t.Fatal("write-disable not updated")
	}
}

func TestPIDInvalidSlotReuse(t *testing.T) {
	ctrs := &stats.Counters{}
	p := pidRegisters(2, ctrs)
	p.Load(1, false)
	p.Load(2, false)
	p.Remove(1)
	p.Load(3, false) // must reuse the freed slot, not displace group 2
	if ok, _ := p.Check(2); !ok {
		t.Fatal("group 2 displaced despite free slot")
	}
	if ok, _ := p.Check(3); !ok {
		t.Fatal("group 3 missing")
	}
}

func TestCounters(t *testing.T) {
	ctrs := &stats.Counters{}
	g := NewGroupCache(assoc.Config{Sets: 1, Ways: 4, Policy: assoc.LRU}, ctrs, "pgc")
	g.Check(1) // miss
	g.Load(1, false)
	g.Check(1) // hit
	g.PurgeAll()
	if ctrs.Get("pgc.miss") != 1 || ctrs.Get("pgc.hit") != 1 ||
		ctrs.Get("pgc.load") != 1 || ctrs.Get("pgc.purged") != 1 {
		t.Fatalf("counters: %v", ctrs.Snapshot())
	}
}

// TestRemoveCounted pins the revocation-accounting contract for both
// checker variants: a successful Remove increments ".removed", a failed
// one does not. GroupCache.Remove used to bypass accounting,
// hiding E3/E14 group-revocation traffic.
func TestRemoveCounted(t *testing.T) {
	for _, tc := range []struct {
		name, prefix string
	}{
		{"pid-registers", "pid"},
		{"group-cache", "pgc"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctrs := &stats.Counters{}
			c := checkers(ctrs)[tc.name]
			c.Load(7, false)
			c.Load(8, true)
			if !c.Remove(7) {
				t.Fatal("Remove of loaded group failed")
			}
			c.Remove(7) // absent: must not count
			c.Remove(9) // never loaded: must not count
			if got := ctrs.Get(tc.prefix + ".removed"); got != 1 {
				t.Fatalf("%s.removed = %d, want 1", tc.prefix, got)
			}
		})
	}
}

func TestNewPIDRegistersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for 0 registers")
		}
	}()
	pidRegisters(0, &stats.Counters{})
}

// TestPIDFIFOAfterRemove pins the one case where FIFO PID registers part
// from the round-robin register file they replaced: a load into a slot a
// Remove freed. With 3 registers, load 1-4, remove 2, then load 5 and 6:
// the round-robin pointer, left at the freed slot, evicted 5; FIFO evicts
// the oldest load, 3.
func TestPIDFIFOAfterRemove(t *testing.T) {
	p := pidRegisters(3, &stats.Counters{})
	for g := addr.GroupID(1); g <= 4; g++ {
		p.Load(g, false)
	}
	p.Remove(2)
	p.Load(5, false)
	p.Load(6, false)
	for g, want := range map[addr.GroupID]bool{3: false, 4: true, 5: true, 6: true} {
		if ok, _ := p.Check(g); ok != want {
			t.Errorf("group %d resident = %v, want %v", g, ok, want)
		}
	}
}
