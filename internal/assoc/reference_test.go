package assoc

import (
	"math/rand"
	"slices"
	"testing"
)

// refCache is the scan-based structure Cache replaced, kept as the
// reference FuzzCacheMatchesReference holds Cache to. Every way carries
// its own liveness and timestamps: a fill takes the lowest dead way, and a
// full set evicts the way with the oldest use (LRU) or insert (FIFO)
// stamp, or a pseudo-random one.
type refCache[K comparable, V any] struct {
	cfg   Config
	index func(K) uint64
	sets  [][]refEntry[K, V]
	tick  uint64
	gen   uint64
	size  int
	rng   *rand.Rand
}

type refEntry[K comparable, V any] struct {
	key      K
	val      V
	valid    bool
	gen      uint64 // live iff valid && gen == cache gen
	lastUse  uint64 // LRU timestamp
	inserted uint64 // FIFO timestamp
}

func newRef[K comparable, V any](cfg Config, index func(K) uint64) *refCache[K, V] {
	c := &refCache[K, V]{cfg: cfg, index: index, sets: make([][]refEntry[K, V], cfg.Sets)}
	for i := range c.sets {
		c.sets[i] = make([]refEntry[K, V], cfg.Ways)
	}
	if cfg.Policy == Random {
		c.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	return c
}

func (c *refCache[K, V]) setFor(k K) []refEntry[K, V] {
	if c.cfg.Sets == 1 {
		return c.sets[0]
	}
	return c.sets[c.index(k)%uint64(c.cfg.Sets)]
}

func (c *refCache[K, V]) live(e *refEntry[K, V]) bool { return e.valid && e.gen == c.gen }

func (c *refCache[K, V]) find(k K) *refEntry[K, V] {
	set := c.setFor(k)
	for i := range set {
		if c.live(&set[i]) && set[i].key == k {
			return &set[i]
		}
	}
	return nil
}

func (c *refCache[K, V]) Len() int { return c.size }

func (c *refCache[K, V]) Lookup(k K) (V, bool) {
	c.tick++
	if e := c.find(k); e != nil {
		e.lastUse = c.tick
		return e.val, true
	}
	var zero V
	return zero, false
}

func (c *refCache[K, V]) Peek(k K) (V, bool) {
	if e := c.find(k); e != nil {
		return e.val, true
	}
	var zero V
	return zero, false
}

func (c *refCache[K, V]) Insert(k K, v V) (evictedKey K, evictedVal V, evicted bool) {
	c.tick++
	if e := c.find(k); e != nil {
		e.val = v
		e.lastUse = c.tick
		return evictedKey, evictedVal, false
	}
	set := c.setFor(k)
	fresh := refEntry[K, V]{key: k, val: v, valid: true, gen: c.gen, lastUse: c.tick, inserted: c.tick}
	for i := range set {
		if !c.live(&set[i]) {
			set[i] = fresh
			c.size++
			return evictedKey, evictedVal, false
		}
	}
	victim := c.chooseVictim(set)
	evictedKey, evictedVal = set[victim].key, set[victim].val
	set[victim] = fresh
	return evictedKey, evictedVal, true
}

func (c *refCache[K, V]) chooseVictim(set []refEntry[K, V]) int {
	switch c.cfg.Policy {
	case FIFO:
		victim := 0
		for i := 1; i < len(set); i++ {
			if set[i].inserted < set[victim].inserted {
				victim = i
			}
		}
		return victim
	case Random:
		return c.rng.Intn(len(set))
	default: // LRU
		victim := 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[victim].lastUse {
				victim = i
			}
		}
		return victim
	}
}

func (c *refCache[K, V]) Update(k K, v V) bool {
	if e := c.find(k); e != nil {
		e.val = v
		return true
	}
	return false
}

func (c *refCache[K, V]) Invalidate(k K) bool {
	if e := c.find(k); e != nil {
		e.valid = false
		c.size--
		return true
	}
	return false
}

func (c *refCache[K, V]) PurgeIf(pred func(K, V) bool) (removed, inspected int) {
	for s := range c.sets {
		set := c.sets[s]
		for i := range set {
			if !c.live(&set[i]) {
				continue
			}
			inspected++
			if pred(set[i].key, set[i].val) {
				set[i].valid = false
				c.size--
				removed++
			}
		}
	}
	return removed, inspected
}

func (c *refCache[K, V]) UpdateIf(pred func(K, V) bool, fn func(K, V) V) (updated, inspected int) {
	for s := range c.sets {
		set := c.sets[s]
		for i := range set {
			if !c.live(&set[i]) {
				continue
			}
			inspected++
			if pred(set[i].key, set[i].val) {
				set[i].val = fn(set[i].key, set[i].val)
				updated++
			}
		}
	}
	return updated, inspected
}

func (c *refCache[K, V]) PurgeAll() int {
	removed := c.size
	c.gen++
	c.size = 0
	return removed
}

func (c *refCache[K, V]) ForEach(fn func(K, V) bool) {
	for s := range c.sets {
		set := c.sets[s]
		for i := range set {
			if c.live(&set[i]) && !fn(set[i].key, set[i].val) {
				return
			}
		}
	}
}

// fuzzGeometries are the (sets, ways) shapes a fuzz input picks from: the
// fully associative structures, every one tag-indexed, from the
// degenerate one way through the PID registers and the group cache to
// the 128-way PLB and TLBs and the 4096-way PLB of the granularity
// sweep, and the set-associative TLB and data cache shapes.
var fuzzGeometries = []struct{ sets, ways int }{
	{1, 1}, {1, 4}, {1, 16}, {1, 64}, {1, 128}, {1, 4096},
	{4, 2}, {256, 4}, {1024, 2},
}

// fuzzIndexes are the index functions a fuzz input picks from: the key
// itself; one that gives four consecutive keys one value (shared sets and
// long tag-index chains); one that shifts the key above bit 13, where a
// PLB key keeps its domain; and a constant, which puts every key in one
// set and one bucket.
var fuzzIndexes = []func(uint64) uint64{
	func(k uint64) uint64 { return k },
	func(k uint64) uint64 { return k >> 2 },
	func(k uint64) uint64 { return k << 13 },
	func(uint64) uint64 { return 0 },
}

// fuzzOwners are the owner functions a fuzz input picks from: three
// owners interleaved across sets and ways, as domains share a PLB; one per
// run of eight keys, so the chain heads grow to a thousand owners; one
// owner of everything; and none, the structure New builds.
var fuzzOwners = []func(uint64) uint32{
	func(k uint64) uint32 { return uint32(k % 3) },
	func(k uint64) uint32 { return uint32(k >> 3) },
	func(uint64) uint32 { return 0 },
	nil,
}

// FuzzCacheMatchesReference drives Cache and the scan-based reference
// with the same decoded op stream and requires identical behaviour after
// every op: hit and value results, evicted key, value and flag, removed,
// updated and inspected counts, owner tests, Len, and ForEach's visiting
// order. An owner-scoped op is held to the reference's PurgeIf, UpdateIf
// or scan filtered by owner.
//
// The input's first three bytes pick the geometry, the policy and Random
// seed, and the index function (third byte mod 4) and owner function
// (third byte / 4). Each following 3-byte record is one op: the low 3 bits
// of its first byte select it, and the other two bytes give the key
// (reduced to twice the capacity, so hits and misses both occur) or the
// predicate's modulus. An Insert inserts a run of consecutive keys: 1-4 of
// them, or one more than the capacity when the op byte's top bits are all
// set, so small inputs still fill and overflow the largest sets. Bit 3 of
// the op byte turns a PurgeIf into PurgeOwner and an UpdateOwner into
// HasOwner, for the owner of the record's key; bit 4 drops PurgeOwner's
// predicate. Without an owner function the owner ops do nothing.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add([]byte{4, 0, 2, 2, 1, 0, 0, 1, 0, 250, 3, 0, 3, 7, 0, 4, 9, 0, 7, 0, 0, 5, 3, 0, 6, 4, 0})
	f.Add([]byte{8, 1, 0, 250, 0, 0, 6, 2, 0, 0, 5, 0, 2, 5, 0})
	f.Add([]byte{5, 5, 3, 250, 9, 1, 0, 9, 1, 4, 9, 1, 250, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		g := fuzzGeometries[int(data[0])%len(fuzzGeometries)]
		cfg := Config{Sets: g.sets, Ways: g.ways, Policy: Policy(data[1] % 3), Seed: int64(data[1] / 3)}
		index := fuzzIndexes[int(data[2])%len(fuzzIndexes)]
		owner := fuzzOwners[int(data[2]/4)%len(fuzzOwners)]
		c := New[uint64, uint64](cfg, index)
		if owner != nil {
			c = NewOwned[uint64, uint64](cfg, index, owner)
		}
		ref := newRef[uint64, uint64](cfg, index)
		keySpace := uint64(2*cfg.Capacity() + 3)
		data = data[3:]
		for step := 0; len(data) >= 3; step++ {
			op, arg := data[0], uint64(data[1])|uint64(data[2])<<8
			data = data[3:]
			k, v := arg%keySpace, uint64(step)<<20
			m := 2 + arg%5
			pred := func(k, v uint64) bool { return (k+v>>20)%m == 0 }
			// An owner op targets the owner of the record's key, and the
			// reference filters its scan to that owner's entries.
			var o uint32
			if owner != nil {
				o = owner(k)
			}
			mine := func(p func(k, v uint64) bool) func(k, v uint64) bool {
				return func(k, v uint64) bool { return owner(k) == o && (p == nil || p(k, v)) }
			}
			switch op % 8 {
			case 0:
				got, ok := c.Lookup(k)
				want, wantOK := ref.Lookup(k)
				if got != want || ok != wantOK {
					t.Fatalf("step %d: Lookup(%d) = %d,%v, reference %d,%v", step, k, got, ok, want, wantOK)
				}
			case 1:
				got, ok := c.Peek(k)
				want, wantOK := ref.Peek(k)
				if got != want || ok != wantOK {
					t.Fatalf("step %d: Peek(%d) = %d,%v, reference %d,%v", step, k, got, ok, want, wantOK)
				}
			case 2:
				n := 1 + int(op>>3)%4
				if op>>3 == 31 {
					n = cfg.Capacity() + 1
				}
				for j := 0; j < n; j++ {
					kj, vj := (k+uint64(j))%keySpace, v+uint64(j)
					ek, ev, ok := c.Insert(kj, vj)
					wk, wv, wantOK := ref.Insert(kj, vj)
					if ek != wk || ev != wv || ok != wantOK {
						t.Fatalf("step %d: Insert(%d) evicted %d,%d,%v, reference %d,%d,%v", step, kj, ek, ev, ok, wk, wv, wantOK)
					}
					if c.Len() != ref.Len() {
						t.Fatalf("step %d: Insert(%d): Len %d, reference %d", step, kj, c.Len(), ref.Len())
					}
				}
			case 3:
				if got, want := c.Update(k, v), ref.Update(k, v); got != want {
					t.Fatalf("step %d: Update(%d) = %v, reference %v", step, k, got, want)
				}
			case 4:
				if got, want := c.Invalidate(k), ref.Invalidate(k); got != want {
					t.Fatalf("step %d: Invalidate(%d) = %v, reference %v", step, k, got, want)
				}
			case 5:
				if op&8 != 0 && owner != nil {
					opred := pred
					if op&16 != 0 {
						opred = nil
					}
					r, n := c.PurgeOwner(o, opred)
					wr, wn := ref.PurgeIf(mine(opred))
					if r != wr || n != wn {
						t.Fatalf("step %d: PurgeOwner(%d) = %d,%d, reference %d,%d", step, o, r, n, wr, wn)
					}
					break
				}
				r, n := c.PurgeIf(pred)
				wr, wn := ref.PurgeIf(pred)
				if r != wr || n != wn {
					t.Fatalf("step %d: PurgeIf = %d,%d, reference %d,%d", step, r, n, wr, wn)
				}
			case 6:
				if owner == nil {
					break
				}
				if op&8 != 0 {
					want := false
					ref.ForEach(func(k, _ uint64) bool { want = owner(k) == o; return !want })
					if got := c.HasOwner(o); got != want {
						t.Fatalf("step %d: HasOwner(%d) = %v, reference %v", step, o, got, want)
					}
					break
				}
				bump := func(k, v uint64) uint64 { return v + k + 1 }
				u, n := c.UpdateOwner(o, pred, bump)
				wu, wn := ref.UpdateIf(mine(pred), bump)
				if u != wu || n != wn {
					t.Fatalf("step %d: UpdateOwner(%d) = %d,%d, reference %d,%d", step, o, u, n, wu, wn)
				}
			case 7:
				if got, want := c.PurgeAll(), ref.PurgeAll(); got != want {
					t.Fatalf("step %d: PurgeAll = %d, reference %d", step, got, want)
				}
			}
			if c.Len() != ref.Len() {
				t.Fatalf("step %d: Len %d, reference %d", step, c.Len(), ref.Len())
			}
			if got, want := visits(c.ForEach), visits(ref.ForEach); !slices.Equal(got, want) {
				t.Fatalf("step %d: ForEach visited %v, reference %v", step, got, want)
			}
		}
	})
}

// visits lists the keys and values a ForEach visits, in order.
func visits(forEach func(func(k, v uint64) bool)) []uint64 {
	var out []uint64
	forEach(func(k, v uint64) bool {
		out = append(out, k, v)
		return true
	})
	return out
}
