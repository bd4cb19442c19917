// Package assoc implements a generic set-associative lookup structure with
// pluggable replacement, the common mechanism under every caching structure
// in the simulator: the PLB, the TLB variants, the page-group cache, and
// the data caches.
//
// A structure has S sets of W ways. S=1 gives a fully associative
// structure; W=1 gives a direct-mapped one. Replacement within a set is
// LRU, FIFO, or pseudo-random. Selective purge by predicate models the
// operations single address space kernels need (e.g. purging one domain's
// or one segment's entries from a PLB on detach).
//
// Two implementation details keep the simulator's hot paths cheap without
// changing observable behavior:
//
//   - All ways live in one backing slab allocated by New, so constructing
//     a structure costs one allocation regardless of set count.
//   - PurgeAll bumps a generation counter instead of scanning: an entry is
//     live only when its generation matches the structure's, so a full
//     purge is O(1) while every per-entry operation is unchanged.
package assoc

import (
	"fmt"
	"math/rand"
)

// Policy selects the replacement policy within a set.
type Policy uint8

const (
	// LRU evicts the least recently used way.
	LRU Policy = iota
	// FIFO evicts the oldest-inserted way.
	FIFO
	// Random evicts a pseudo-random way (deterministic per seed).
	Random
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Config describes the geometry of a structure.
type Config struct {
	// Sets is the number of sets; 1 means fully associative.
	Sets int
	// Ways is the associativity of each set.
	Ways int
	// Policy is the replacement policy.
	Policy Policy
	// Seed seeds the Random policy; ignored otherwise.
	Seed int64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Sets < 1 {
		return fmt.Errorf("assoc: Sets must be >= 1, got %d", c.Sets)
	}
	if c.Ways < 1 {
		return fmt.Errorf("assoc: Ways must be >= 1, got %d", c.Ways)
	}
	return nil
}

// Capacity returns the total number of entries the structure can hold.
func (c Config) Capacity() int { return c.Sets * c.Ways }

type entry[K comparable, V any] struct {
	key      K
	val      V
	valid    bool
	gen      uint64 // live iff valid && gen == cache gen
	lastUse  uint64 // LRU timestamp
	inserted uint64 // FIFO timestamp
}

// Cache is a set-associative structure mapping K to V. Construct with New.
// Cache is not safe for concurrent use.
type Cache[K comparable, V any] struct {
	cfg     Config
	index   func(K) uint64
	sets    [][]entry[K, V]
	tick    uint64
	gen     uint64
	size    int
	rng     *rand.Rand
	onEvict func(K, V)

	// idx maps key → way for large fully-associative structures, turning
	// the per-access way scan into one map probe. Pure host-side
	// acceleration: every probe validates the slot (live + key match), so
	// stale index entries — left behind by PurgeAll's generation bump or
	// by predicate purges — read as misses, exactly as the scan would.
	// The invariant is one-way: a live entry always has a current index
	// entry (maintained by Insert/Invalidate/PurgeIf), but an index entry
	// may point at a dead or reused slot.
	idx map[K]int32
}

// New creates a Cache with the given configuration. index maps a key to a
// set-selection value (reduced modulo Sets); it is ignored when Sets == 1
// and may then be nil. New panics on an invalid configuration, since
// geometry is fixed by the machine description.
func New[K comparable, V any](cfg Config, index func(K) uint64) *Cache[K, V] {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Sets > 1 && index == nil {
		panic("assoc: index function required when Sets > 1")
	}
	c := &Cache[K, V]{
		cfg:   cfg,
		index: index,
		sets:  make([][]entry[K, V], cfg.Sets),
	}
	slab := make([]entry[K, V], cfg.Sets*cfg.Ways)
	for i := range c.sets {
		c.sets[i] = slab[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	if cfg.Policy == Random {
		c.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	// Index large fully-associative structures (the 128-way PLB and TLB
	// organizations); small sets scan faster than they hash.
	if cfg.Sets == 1 && cfg.Ways >= 64 {
		c.idx = make(map[K]int32, cfg.Ways)
	}
	return c
}

// find returns the way of the live entry for k in set si, or -1.
func (c *Cache[K, V]) find(si int, k K) int {
	set := c.sets[si]
	if c.idx != nil {
		w, ok := c.idx[k]
		if !ok {
			return -1
		}
		e := &set[w]
		if c.live(e) && e.key == k {
			return int(w)
		}
		return -1
	}
	for i := range set {
		if c.live(&set[i]) && set[i].key == k {
			return i
		}
	}
	return -1
}

// OnEvict registers a callback invoked whenever a valid entry is displaced
// by Insert (not by Invalidate or Purge). Data caches use it to model
// write-backs of dirty victims.
func (c *Cache[K, V]) OnEvict(fn func(K, V)) { c.onEvict = fn }

// Config returns the structure's configuration.
func (c *Cache[K, V]) Config() Config { return c.cfg }

// Len returns the number of valid entries.
func (c *Cache[K, V]) Len() int { return c.size }

// Capacity returns Sets*Ways.
func (c *Cache[K, V]) Capacity() int { return c.cfg.Capacity() }

func (c *Cache[K, V]) setIndex(k K) int {
	if c.cfg.Sets == 1 {
		return 0
	}
	return int(c.index(k) % uint64(c.cfg.Sets))
}

func (c *Cache[K, V]) setFor(k K) []entry[K, V] {
	return c.sets[c.setIndex(k)]
}

// live reports whether the slot holds an entry that survived the most
// recent PurgeAll.
func (c *Cache[K, V]) live(e *entry[K, V]) bool {
	return e.valid && e.gen == c.gen
}

// Lookup finds k, returning its value and whether it was present. A hit
// refreshes the entry's LRU position.
func (c *Cache[K, V]) Lookup(k K) (V, bool) {
	c.tick++
	si := c.setIndex(k)
	if i := c.find(si, k); i >= 0 {
		e := &c.sets[si][i]
		e.lastUse = c.tick
		return e.val, true
	}
	var zero V
	return zero, false
}

// Peek finds k without disturbing replacement state.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	si := c.setIndex(k)
	if i := c.find(si, k); i >= 0 {
		return c.sets[si][i].val, true
	}
	var zero V
	return zero, false
}

// Insert adds or replaces the mapping for k. If an unrelated valid entry
// had to be evicted to make room, Insert returns its key/value and true.
// Re-inserting an existing key updates it in place with no eviction.
func (c *Cache[K, V]) Insert(k K, v V) (evictedKey K, evictedVal V, evicted bool) {
	c.tick++
	si := c.setIndex(k)
	set := c.sets[si]
	// Update in place if present.
	if i := c.find(si, k); i >= 0 {
		set[i].val = v
		set[i].lastUse = c.tick
		return evictedKey, evictedVal, false
	}
	// Use an invalid way if one exists.
	for i := range set {
		if !c.live(&set[i]) {
			set[i] = entry[K, V]{key: k, val: v, valid: true, gen: c.gen, lastUse: c.tick, inserted: c.tick}
			c.size++
			if c.idx != nil {
				c.idx[k] = int32(i)
			}
			return evictedKey, evictedVal, false
		}
	}
	// Choose a victim.
	victim := c.chooseVictim(set)
	evictedKey, evictedVal, evicted = set[victim].key, set[victim].val, true
	if c.onEvict != nil {
		c.onEvict(evictedKey, evictedVal)
	}
	set[victim] = entry[K, V]{key: k, val: v, valid: true, gen: c.gen, lastUse: c.tick, inserted: c.tick}
	if c.idx != nil {
		delete(c.idx, evictedKey)
		c.idx[k] = int32(victim)
	}
	return evictedKey, evictedVal, true
}

func (c *Cache[K, V]) chooseVictim(set []entry[K, V]) int {
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

// Update modifies the value for k in place if present, preserving its
// replacement state, and reports whether it was present.
func (c *Cache[K, V]) Update(k K, v V) bool {
	si := c.setIndex(k)
	if i := c.find(si, k); i >= 0 {
		c.sets[si][i].val = v
		return true
	}
	return false
}

// Invalidate removes k and reports whether it was present.
func (c *Cache[K, V]) Invalidate(k K) bool {
	si := c.setIndex(k)
	if i := c.find(si, k); i >= 0 {
		c.sets[si][i].valid = false
		c.size--
		if c.idx != nil {
			delete(c.idx, k)
		}
		return true
	}
	return false
}

// PurgeIf removes every entry for which pred returns true, returning the
// number removed and the number of valid entries inspected. The inspection
// count models the cost of scanning a hardware structure entry by entry
// (the paper's "inspect each entry in the PLB" detach cost).
func (c *Cache[K, V]) PurgeIf(pred func(K, V) bool) (removed, inspected int) {
	if c.size == 0 {
		return 0, 0
	}
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
				if c.idx != nil {
					delete(c.idx, set[i].key)
				}
			}
		}
	}
	return removed, inspected
}

// UpdateIf rewrites the value of every entry matching pred using fn,
// preserving replacement state. It returns the number updated and the
// number of valid entries inspected (the scan cost).
func (c *Cache[K, V]) UpdateIf(pred func(K, V) bool, fn func(K, V) V) (updated, inspected int) {
	if c.size == 0 {
		return 0, 0
	}
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

// PurgeAll removes every entry, returning how many were valid. The purge
// is O(1): the generation counter advances, orphaning every slot.
func (c *Cache[K, V]) PurgeAll() int {
	removed := c.size
	c.gen++
	c.size = 0
	return removed
}

// ForEach calls fn on every valid entry, in unspecified order, until fn
// returns false.
func (c *Cache[K, V]) ForEach(fn func(K, V) bool) {
	if c.size == 0 {
		return
	}
	for s := range c.sets {
		set := c.sets[s]
		for i := range set {
			if c.live(&set[i]) && !fn(set[i].key, set[i].val) {
				return
			}
		}
	}
}

// Keys returns the keys of all valid entries in unspecified order.
func (c *Cache[K, V]) Keys() []K {
	out := make([]K, 0, c.size)
	c.ForEach(func(k K, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}
