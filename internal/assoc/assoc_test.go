package assoc

import (
	"math"
	"testing"
	"testing/quick"
)

func identity(k uint64) uint64 { return k }

// Peek reads k's value through Ref.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	if p := c.Ref(k); p != nil {
		return *p, true
	}
	var zero V
	return zero, false
}

func fullAssoc(ways int, p Policy) *Cache[uint64, string] {
	return New[uint64, string](Config{Sets: 1, Ways: ways, Policy: p}, identity)
}

func TestLookupMissOnEmpty(t *testing.T) {
	c := fullAssoc(4, LRU)
	if _, ok := c.Lookup(1); ok {
		t.Fatal("hit on empty cache")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestInsertLookup(t *testing.T) {
	c := fullAssoc(4, LRU)
	c.Insert(1, "a")
	c.Insert(2, "b")
	if v, ok := c.Lookup(1); !ok || v != "a" {
		t.Fatalf("Lookup(1) = %q,%v", v, ok)
	}
	if v, ok := c.Lookup(2); !ok || v != "b" {
		t.Fatalf("Lookup(2) = %q,%v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestInsertUpdatesInPlace(t *testing.T) {
	c := fullAssoc(2, LRU)
	c.Insert(1, "a")
	_, _, evicted := c.Insert(1, "a2")
	if evicted {
		t.Fatal("re-insert evicted")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	if v, _ := c.Lookup(1); v != "a2" {
		t.Fatalf("value = %q", v)
	}
}

func TestLRUEviction(t *testing.T) {
	c := fullAssoc(2, LRU)
	c.Insert(1, "a")
	c.Insert(2, "b")
	c.Lookup(1) // 2 is now LRU
	k, v, evicted := c.Insert(3, "c")
	if !evicted || k != 2 || v != "b" {
		t.Fatalf("evicted %d,%q,%v; want 2,b,true", k, v, evicted)
	}
	if _, ok := c.Lookup(2); ok {
		t.Fatal("evicted key still present")
	}
	if _, ok := c.Lookup(1); !ok {
		t.Fatal("recently used key evicted")
	}
}

func TestFIFOEviction(t *testing.T) {
	c := fullAssoc(2, FIFO)
	c.Insert(1, "a")
	c.Insert(2, "b")
	c.Lookup(1) // FIFO ignores use
	k, _, evicted := c.Insert(3, "c")
	if !evicted || k != 1 {
		t.Fatalf("FIFO evicted %d, want 1", k)
	}
}

func TestRandomEvictionDeterministic(t *testing.T) {
	run := func() []uint64 {
		c := New[uint64, int](Config{Sets: 1, Ways: 4, Policy: Random, Seed: 42}, identity)
		var evictions []uint64
		for i := uint64(0); i < 32; i++ {
			if k, _, ev := c.Insert(i, int(i)); ev {
				evictions = append(evictions, k)
			}
		}
		return evictions
	}
	a, b := run(), run()
	if len(a) != 28 {
		t.Fatalf("eviction count = %d, want 28", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Random policy not deterministic for fixed seed")
		}
	}
}

func TestSetMapping(t *testing.T) {
	// 4 sets x 1 way, direct-mapped on key value.
	c := New[uint64, int](Config{Sets: 4, Ways: 1}, identity)
	c.Insert(0, 100)
	c.Insert(4, 400) // same set as 0: conflict
	if _, ok := c.Lookup(0); ok {
		t.Fatal("conflicting key not evicted in direct-mapped set")
	}
	if v, ok := c.Lookup(4); !ok || v != 400 {
		t.Fatal("newly inserted key missing")
	}
	c.Insert(1, 101)
	c.Insert(2, 102)
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestInvalidate(t *testing.T) {
	c := fullAssoc(4, LRU)
	c.Insert(1, "a")
	if !c.Invalidate(1) {
		t.Fatal("Invalidate present key returned false")
	}
	if c.Invalidate(1) {
		t.Fatal("Invalidate absent key returned true")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d", c.Len())
	}
	// Invalidated way must be reusable without eviction.
	c.Insert(2, "b")
	c.Insert(3, "c")
	c.Insert(4, "d")
	_, _, evicted := c.Insert(5, "e")
	if evicted {
		t.Fatal("eviction despite free way")
	}
}

func TestUpdatePreservesLRU(t *testing.T) {
	c := fullAssoc(2, LRU)
	c.Insert(1, "a")
	c.Insert(2, "b")
	// Update key 1 without refreshing it; it stays LRU.
	if !c.Update(1, "a2") {
		t.Fatal("Update returned false")
	}
	k, _, _ := c.Insert(3, "c")
	if k != 1 {
		t.Fatalf("evicted %d, want 1 (Update must not refresh LRU)", k)
	}
	if c.Update(99, "zz") {
		t.Fatal("Update absent key returned true")
	}
}

// TestPeekDoesNotRefresh: Ref rewrites a resident value in place
// without refreshing its LRU position, and finds no absent key.
func TestPeekDoesNotRefresh(t *testing.T) {
	c := fullAssoc(2, LRU)
	c.Insert(1, "a")
	c.Insert(2, "b")
	*c.Ref(1) = "a2"
	if c.Ref(9) != nil {
		t.Fatal("Ref found an absent key")
	}
	k, v, _ := c.Insert(3, "c")
	if k != 1 || v != "a2" {
		t.Fatalf("evicted %d=%q, want 1=\"a2\" (Ref must rewrite in place and not refresh)", k, v)
	}
}

func TestPurgeIf(t *testing.T) {
	c := fullAssoc(8, LRU)
	for i := uint64(0); i < 8; i++ {
		c.Insert(i, "v")
	}
	removed, inspected := c.PurgeIf(func(k uint64, _ string) bool { return k%2 == 0 })
	if removed != 4 || inspected != 8 {
		t.Fatalf("removed=%d inspected=%d", removed, inspected)
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	for i := uint64(0); i < 8; i++ {
		_, ok := c.Lookup(i)
		if want := i%2 == 1; ok != want {
			t.Errorf("key %d present=%v want %v", i, ok, want)
		}
	}
}

func TestPurgeAll(t *testing.T) {
	c := fullAssoc(4, LRU)
	c.Insert(1, "a")
	c.Insert(2, "b")
	if n := c.PurgeAll(); n != 2 {
		t.Fatalf("PurgeAll = %d", n)
	}
	if c.Len() != 0 {
		t.Fatal("entries remain")
	}
	if n := c.PurgeAll(); n != 0 {
		t.Fatalf("second PurgeAll = %d", n)
	}
}

func TestForEach(t *testing.T) {
	c := fullAssoc(8, LRU)
	for i := uint64(0); i < 5; i++ {
		c.Insert(i, "v")
	}
	seen := map[uint64]bool{}
	c.ForEach(func(k uint64, _ string) bool {
		seen[k] = true
		return true
	})
	if len(seen) != 5 {
		t.Fatalf("ForEach visited %d", len(seen))
	}
	// Early termination.
	n := 0
	c.ForEach(func(uint64, string) bool { n++; return false })
	if n != 1 {
		t.Fatalf("ForEach early stop visited %d", n)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Sets: 0, Ways: 1}).Validate(); err == nil {
		t.Error("Sets=0 validated")
	}
	if err := (Config{Sets: 1, Ways: 0}).Validate(); err == nil {
		t.Error("Ways=0 validated")
	}
	if err := (Config{Sets: 1 << 20, Ways: 1 << 12}).Validate(); err == nil {
		t.Error("2^32 ways validated; way numbers are int32")
	}
	if err := (Config{Sets: 2, Ways: 2}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if (Config{Sets: 4, Ways: 2}).Capacity() != 8 {
		t.Error("Capacity wrong")
	}
}

func TestNewPanics(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("bad config", func() { New[int, int](Config{Sets: 0, Ways: 1}, nil) })
	assertPanics("nil index with sets>1", func() { New[int, int](Config{Sets: 2, Ways: 1}, nil) })
	assertPanics("nil index fully associative", func() { New[int, int](Config{Sets: 1, Ways: 128}, nil) })
	assertPanics("nil owner", func() { NewOwned[int, int](Config{Sets: 1, Ways: 1}, func(int) uint64 { return 0 }, nil) })
	assertPanics("owner-scoped purge without an owner", func() {
		New[int, int](Config{Sets: 1, Ways: 1}, func(int) uint64 { return 0 }).PurgeOwner(0, nil)
	})
}

// Property: the cache never exceeds capacity, and a key just inserted is
// always immediately findable.
func TestCapacityInvariant(t *testing.T) {
	f := func(keys []uint64) bool {
		c := New[uint64, uint64](Config{Sets: 4, Ways: 2}, identity)
		for _, k := range keys {
			c.Insert(k, k*2)
			if c.Len() > c.Capacity() {
				return false
			}
			if v, ok := c.Peek(k); !ok || v != k*2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Len always equals the number of entries ForEach visits, across
// a random mix of operations.
func TestLenMatchesForEach(t *testing.T) {
	f := func(ops []uint8, keys []uint64) bool {
		if len(keys) == 0 {
			return true
		}
		c := New[uint64, int](Config{Sets: 2, Ways: 4}, identity)
		for i, op := range ops {
			k := keys[i%len(keys)]
			switch op % 4 {
			case 0:
				c.Insert(k, 1)
			case 1:
				c.Invalidate(k)
			case 2:
				c.Lookup(k)
			case 3:
				c.PurgeIf(func(kk uint64, _ int) bool { return kk%3 == 0 })
			}
			n := 0
			c.ForEach(func(uint64, int) bool { n++; return true })
			if n != c.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: LRU with a working set no larger than capacity never evicts
// once warm (a round-robin scan over W keys in a W-way set misses at most
// once per key).
func TestLRUNoThrashWithinCapacity(t *testing.T) {
	c := fullAssoc(8, LRU)
	misses := 0
	for round := 0; round < 10; round++ {
		for k := uint64(0); k < 8; k++ {
			if _, ok := c.Lookup(k); !ok {
				misses++
				c.Insert(k, "v")
			}
		}
	}
	if misses != 8 {
		t.Fatalf("misses = %d, want 8 (cold only)", misses)
	}
}

// byParity owns each key by its parity: two owners whose entries
// interleave in the ways.
func byParity(k uint64) uint32 { return uint32(k % 2) }

func TestUpdateOwner(t *testing.T) {
	c := NewOwned[uint64, string](Config{Sets: 1, Ways: 8, Policy: LRU}, identity, byParity)
	for i := uint64(0); i < 6; i++ {
		c.Insert(i, "old")
	}
	updated, inspected := c.UpdateOwner(0,
		func(k uint64, _ string) bool { return k != 2 },
		func(uint64, string) string { return "new" })
	if updated != 2 || inspected != 6 {
		t.Fatalf("updated=%d inspected=%d", updated, inspected)
	}
	for i := uint64(0); i < 6; i++ {
		v, _ := c.Peek(i)
		want := "old"
		if i == 0 || i == 4 {
			want = "new"
		}
		if v != want {
			t.Errorf("key %d = %q, want %q", i, v, want)
		}
	}
	if c.Len() != 6 {
		t.Fatal("UpdateOwner changed Len")
	}
}

// TestPurgeOwner purges one owner's entries after an eviction took the
// head of its chain (its most recent insert), and checks that the other
// owner's entries and the freed ways stay usable.
func TestPurgeOwner(t *testing.T) {
	c := NewOwned[uint64, string](Config{Sets: 1, Ways: 4, Policy: LRU}, identity, byParity)
	for i := uint64(0); i < 4; i++ {
		c.Insert(i, "v")
	}
	c.Lookup(0)
	c.Lookup(1)
	c.Lookup(3)
	if k, _, _ := c.Insert(5, "v"); k != 2 {
		t.Fatalf("evicted %d, want 2", k)
	}
	if !c.HasOwner(0) || !c.HasOwner(1) || c.HasOwner(2) {
		t.Fatal("HasOwner wrong after evicting owner 0's chain head")
	}
	removed, inspected := c.PurgeOwner(0, nil)
	if removed != 1 || inspected != 4 || c.Len() != 3 || c.HasOwner(0) {
		t.Fatalf("PurgeOwner(0) = %d,%d; Len %d, HasOwner %v", removed, inspected, c.Len(), c.HasOwner(0))
	}
	removed, _ = c.PurgeOwner(1, func(k uint64, _ string) bool { return k > 1 })
	if removed != 2 || c.Len() != 1 {
		t.Fatalf("PurgeOwner(1, k > 1) removed %d, Len %d", removed, c.Len())
	}
	if _, ok := c.Peek(1); !ok {
		t.Fatal("key 1 purged by a predicate that spares it")
	}
	c.PurgeAll()
	if c.HasOwner(1) {
		t.Fatal("HasOwner after PurgeAll")
	}
}

// TestPurgeAllGenerationWrap checks the one PurgeAll that wraps the
// 32-bit generation: a set last reset 2^32 purges earlier must not read
// as current again.
func TestPurgeAllGenerationWrap(t *testing.T) {
	for _, cfg := range []Config{{Sets: 4, Ways: 2}, {Sets: 1, Ways: 128}} {
		c := NewOwned[uint64, int](cfg, identity, byParity)
		c.Insert(1, 10)        // resets its set and owner 1's chain in generation 0
		c.gen = math.MaxUint32 // as if 2^32-1 purges had passed
		c.Insert(2, 20)
		if n := c.PurgeAll(); n != 2 {
			t.Fatalf("%+v: PurgeAll = %d, want 2", cfg, n)
		}
		for _, k := range []uint64{1, 2} {
			if _, ok := c.Peek(k); ok {
				t.Fatalf("%+v: key %d survived the wrapping PurgeAll", cfg, k)
			}
			if c.HasOwner(byParity(k)) {
				t.Fatalf("%+v: owner of key %d has a chain after the wrapping PurgeAll", cfg, k)
			}
		}
		c.Insert(3, 30)
		var got []uint64
		c.ForEach(func(k uint64, _ int) bool { got = append(got, k); return true })
		if len(got) != 1 || got[0] != 3 || c.Len() != 1 {
			t.Fatalf("%+v: after the wrap ForEach visits %v, Len %d; want [3], 1", cfg, got, c.Len())
		}
	}
}
