// Package assoc implements a generic set-associative lookup structure with
// pluggable replacement, the common mechanism under every caching structure
// in the simulator: the PLB, the TLB variants, the page-group cache, the
// IOTLBs and the data caches.
//
// A structure has S sets of W ways. S=1 gives a fully associative
// structure; W=1 gives a direct-mapped one. Replacement within a set is
// LRU, FIFO, or pseudo-random. Selective purge by predicate models the
// operations single address space kernels need (e.g. purging one domain's
// or one segment's entries from a PLB on detach).
//
// A structure built with NewOwned also knows each key's owner (the PLB's
// and the IOTLB's domain, the ASID TLB's address space), so purges,
// updates and emptiness tests confined to one owner visit only that
// owner's entries. They still report every valid entry as inspected: the
// hardware they model scans the whole structure, and the machines charge
// it that way.
//
// The simulator probes these structures on every reference, so no keyed
// operation uses a Go map or passes over a set's ways to place a fill or
// choose a victim:
//
//   - All ways live in one slab allocated by New, beside per-set
//     bookkeeping: a recency list head, a live bitmap and a generation.
//   - A set threads its live ways into a circular recency list, most
//     recent first, through a links array parallel to the slab. LRU moves
//     a way to the front on a hit and on an insert, FIFO only on a new
//     insert, and both evict the tail. Random keeps no list and evicts a
//     seeded pseudo-random way.
//   - The live bitmap marks occupied ways; a fill takes the lowest free
//     way, found a word of 64 ways at a time.
//   - A fully associative structure (the 128-entry PLB and TLBs, the
//     16-entry group cache, the PID registers, the IOTLBs) finds a key in
//     O(1) through a tag index: bucket heads hashed from the structure's
//     index function by a Fibonacci multiply, chained through per-way
//     links in the slab. A set of a set-associative structure compares
//     the keys of its live ways, as hardware compares a set's tags.
//     Measured on a 2-vCPU Xeon with Go 1.24, an LRU lookup of a 16-way
//     fully associative structure took 36 ns on a hit and 49 ns on a
//     miss by comparing keys, and 22 and 10 ns through the index; at 4
//     ways and at 1 the two came within 3 ns of each other, at about
//     11 ns. So every fully associative structure is indexed, whatever
//     its size.
//   - An owned structure threads each live way onto its owner's chain, a
//     doubly linked list through a second links array parallel to the
//     slab, kept up on insert, eviction and removal. Owner-scoped
//     operations walk the chain instead of every way.
//   - PurgeAll bumps a generation counter. A set whose generation is stale
//     reads as empty and is reset when Insert next fills it, and an owner
//     chain head stamped with a stale generation reads as an empty chain,
//     so a full purge is O(1).
//
// Placement, victims, return values and ForEach order are exactly those of
// a plain scan over timestamped ways, which reference_test.go keeps and
// FuzzCacheMatchesReference holds Cache to: the lowest free way takes a
// fill, LRU and FIFO evict the way with the oldest use or insert stamp, and
// scans visit sets, then ways, in ascending order. An owner-scoped
// operation matches the reference's scan filtered by owner; it removes
// ways in chain order, which leaves the same recency lists, bitmaps and
// tag chains as removing them in way order.
package assoc

import (
	"fmt"
	"math"
	"math/bits"
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
	if c.Ways > math.MaxInt32/c.Sets {
		return fmt.Errorf("assoc: Sets*Ways must fit in an int32, got %d*%d", c.Sets, c.Ways)
	}
	return nil
}

// Capacity returns the total number of entries the structure can hold.
func (c Config) Capacity() int { return c.Sets * c.Ways }

type entry[K comparable, V any] struct {
	key K
	val V
	// chain is the way + 1 of the next way in this way's tag-index
	// bucket, or 0 at the end of the chain.
	chain int32
}

// link places a live way on its set's circular recency list, where prev
// and next are way numbers within the set, or on its owner's chain, where
// they are slab positions + 1 and 0 ends the chain.
type link struct{ prev, next int32 }

// ownerHead is the slab position + 1 at the head of one owner's chain, 0
// when the chain is empty. The chain is empty, too, unless gen equals the
// structure's generation.
type ownerHead struct {
	gen  uint32
	head int32
}

// set is one set's bookkeeping; its live bitmap is kept apart, in
// Cache.live.
type set struct {
	// gen is the generation the set was last reset in. The set is empty
	// unless gen equals the structure's.
	gen uint32
	// head is the most recent way + 1 of the recency list, or 0 when the
	// list is empty.
	head int32
}

// fibonacci is 2^64 divided by the golden ratio. Multiplying by it spreads
// every bit of an index value into the top bits the tag index keeps (a PLB
// key puts its domain above bit 13, beyond a small table's mask).
const fibonacci = 0x9E3779B97F4A7C15

// Cache is a set-associative structure mapping K to V. Construct with New.
// Cache is not safe for concurrent use.
type Cache[K comparable, V any] struct {
	cfg   Config
	index func(K) uint64
	ways  int
	// slab holds every way: set s is slab[s*ways : (s+1)*ways]. links
	// holds the ways' recency links in the same places, apart from the
	// slab so that reordering a list touches a few small words, not the
	// ways' keys and values.
	slab  []entry[K, V]
	links []link
	sets  []set
	// live holds the sets' bitmaps of occupied ways: set s's is
	// live[s*words : (s+1)*words].
	live  []uint64
	words int
	gen   uint32
	size  int
	// lru moves a way to the front of its recency list on every use;
	// otherwise only a new insert goes to the front. rng is non-nil, and
	// the recency lists unused, under Random.
	lru bool
	rng *rand.Rand

	// buckets is the tag index of a fully associative structure: the
	// way + 1 at the head of each hash bucket's chain, 0 when empty. nil
	// when lookups compare keys within the set instead.
	buckets     []int32
	bucketShift uint

	// owner maps a key to its owner under NewOwned, and is nil otherwise.
	// olinks holds the ways' owner-chain links, parallel to the slab, and
	// heads each owner's chain head, indexed by owner; both are nil
	// without an owner function.
	owner  func(K) uint32
	olinks []link
	heads  []ownerHead
}

// New creates a Cache with the given configuration. index maps a key to a
// set-selection value, reduced modulo Sets; a fully associative structure
// hashes it for its tag index, so it is required for every geometry and
// should depend on every field of the key. New panics on an invalid
// configuration, since geometry is fixed by the machine description.
func New[K comparable, V any](cfg Config, index func(K) uint64) *Cache[K, V] {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if index == nil {
		panic("assoc: index function required")
	}
	words := (cfg.Ways + 63) / 64
	c := &Cache[K, V]{
		cfg:   cfg,
		index: index,
		ways:  cfg.Ways,
		slab:  make([]entry[K, V], cfg.Capacity()),
		sets:  make([]set, cfg.Sets),
		live:  make([]uint64, cfg.Sets*words),
		words: words,
		// An unknown policy has always replaced as LRU.
		lru: cfg.Policy != FIFO && cfg.Policy != Random,
	}
	if cfg.Policy == Random {
		c.rng = rand.New(rand.NewSource(cfg.Seed))
	} else {
		c.links = make([]link, cfg.Capacity())
	}
	// Index every fully associative structure, small ones too: from 16
	// ways (the group cache) the index beats comparing keys, 22 ns to
	// 36 on a hit and 10 to 49 on a miss, and below that the two tie
	// (see the package comment). Sets of a set-associative structure
	// compare their keys. Twice as many buckets as ways keeps chains
	// short.
	if cfg.Sets == 1 {
		n := uint(bits.Len(uint(cfg.Ways-1))) + 1
		c.buckets = make([]int32, 1<<n)
		c.bucketShift = 64 - n
	}
	return c
}

// NewOwned is New for a structure whose keys each belong to an owner:
// owner maps a key to it, and the owner-scoped operations (PurgeOwner,
// UpdateOwner, HasOwner) then visit only that owner's entries. Owners
// should be small integers, such as domain IDs: the table of chain heads
// is indexed by owner and grows to the largest one seen.
func NewOwned[K comparable, V any](cfg Config, index func(K) uint64, owner func(K) uint32) *Cache[K, V] {
	if owner == nil {
		panic("assoc: owner function required")
	}
	c := New[K, V](cfg, index)
	c.owner = owner
	c.olinks = make([]link, cfg.Capacity())
	return c
}

// Config returns the structure's configuration.
func (c *Cache[K, V]) Config() Config { return c.cfg }

// Len returns the number of valid entries.
func (c *Cache[K, V]) Len() int { return c.size }

// Capacity returns Sets*Ways.
func (c *Cache[K, V]) Capacity() int { return c.cfg.Capacity() }

func (c *Cache[K, V]) setIndex(k K) int {
	if len(c.sets) == 1 {
		return 0
	}
	return int(c.index(k) % uint64(len(c.sets)))
}

// current reports whether set si has been reset since the last PurgeAll;
// a set that has not holds nothing.
func (c *Cache[K, V]) current(si int) bool { return c.sets[si].gen == c.gen }

// bitmap returns set si's live bitmap.
func (c *Cache[K, V]) bitmap(si int) []uint64 {
	return c.live[si*c.words : (si+1)*c.words]
}

// bucket returns k's tag-index bucket.
func (c *Cache[K, V]) bucket(k K) int {
	return int(c.index(k) * fibonacci >> c.bucketShift)
}

// find returns the way of the live entry for k in set si, or -1.
func (c *Cache[K, V]) find(si int, k K) int {
	if !c.current(si) {
		return -1
	}
	if c.buckets != nil {
		return c.chainFind(c.bucket(k), k)
	}
	return c.scanFind(si, k)
}

// chainFind walks tag-index bucket b for k; every way on a chain is live.
func (c *Cache[K, V]) chainFind(b int, k K) int {
	for p := c.buckets[b]; p != 0; p = c.slab[p-1].chain {
		if c.slab[p-1].key == k {
			return int(p - 1)
		}
	}
	return -1
}

// scanFind compares k against the keys of set si's live ways.
func (c *Cache[K, V]) scanFind(si int, k K) int {
	base := si * c.ways
	for j, w := range c.bitmap(si) {
		for ; w != 0; w &= w - 1 {
			i := j<<6 | bits.TrailingZeros64(w)
			if c.slab[base+i].key == k {
				return i
			}
		}
	}
	return -1
}

// Lookup finds k, returning its value and whether it was present. A hit
// refreshes the entry's LRU position.
func (c *Cache[K, V]) Lookup(k K) (V, bool) {
	// Every simulated reference probes here, so find and toFront are
	// written out rather than called: with the two calls, the page-group
	// machine, whose TLB and group cache almost always hit, ran
	// access-replay about 5% slower.
	si := c.setIndex(k)
	s := &c.sets[si]
	i := -1
	if s.gen == c.gen {
		if c.buckets != nil {
			i = c.chainFind(c.bucket(k), k)
		} else {
			i = c.scanFind(si, k)
		}
	}
	if i < 0 {
		var zero V
		return zero, false
	}
	if h := int(s.head - 1); c.lru && h != i {
		if int32(i) != c.links[si*c.ways+h].prev {
			c.unlink(si, i)
			c.link(si, i)
		}
		s.head = int32(i + 1)
	}
	return c.slab[si*c.ways+i].val, true
}

// Ref finds k without disturbing replacement state, returning a pointer
// to its resident value, or nil when k is not resident. Writing through
// the pointer rewrites the value in place; the pointer is valid until
// the next Insert, removal or purge.
func (c *Cache[K, V]) Ref(k K) *V {
	si := c.setIndex(k)
	if i := c.find(si, k); i >= 0 {
		return &c.slab[si*c.ways+i].val
	}
	return nil
}

// Insert adds or replaces the mapping for k. If an unrelated valid entry
// had to be evicted to make room, Insert returns its key/value and true.
// Re-inserting an existing key updates it in place with no eviction.
func (c *Cache[K, V]) Insert(k K, v V) (evictedKey K, evictedVal V, evicted bool) {
	si := c.setIndex(k)
	if !c.current(si) {
		c.reset(si)
	}
	base := si * c.ways
	var b, i int
	if c.buckets != nil {
		b = c.bucket(k)
		i = c.chainFind(b, k)
	} else {
		i = c.scanFind(si, k)
	}
	if i >= 0 {
		c.slab[base+i].val = v
		if c.lru {
			c.toFront(si, i)
		}
		return evictedKey, evictedVal, false
	}
	if i = c.freeWay(si); i >= 0 {
		c.live[si*c.words+i>>6] |= 1 << (i & 63)
		c.size++
		if c.rng == nil {
			c.link(si, i)
		}
	} else {
		if c.rng != nil {
			i = c.rng.Intn(c.ways)
		} else {
			// The tail is the least recent way; make it the head, as
			// toFront does.
			s := &c.sets[si]
			i = int(c.links[base+int(s.head-1)].prev)
			s.head = int32(i + 1)
		}
		e := &c.slab[base+i]
		evictedKey, evictedVal, evicted = e.key, e.val, true
		if c.buckets != nil {
			c.unchain(i)
		}
	}
	if c.olinks != nil {
		// disown reads the evicted key, still in the way.
		if evicted {
			c.disown(base + i)
		}
		c.own(base+i, c.owner(k))
	}
	e := &c.slab[base+i]
	e.key, e.val = k, v
	if c.buckets != nil {
		e.chain = c.buckets[b]
		c.buckets[b] = int32(i + 1)
	}
	return evictedKey, evictedVal, evicted
}

// reset empties set si, whose contents a PurgeAll orphaned.
func (c *Cache[K, V]) reset(si int) {
	clear(c.bitmap(si))
	c.sets[si] = set{gen: c.gen}
	// Only a single-set structure has a tag index, so si is all of it.
	clear(c.buckets)
}

// freeWay returns the lowest unoccupied way of set si, or -1 when the set
// is full.
func (c *Cache[K, V]) freeWay(si int) int {
	for j, w := range c.bitmap(si) {
		if w != math.MaxUint64 {
			// Bits past the last way are never set, so a full last word
			// reads as a free way beyond the set.
			if i := j<<6 | bits.TrailingZeros64(^w); i < c.ways {
				return i
			}
			return -1
		}
	}
	return -1
}

// link puts way i of set si at the front of the set's recency list.
func (c *Cache[K, V]) link(si, i int) {
	s := &c.sets[si]
	l := c.links[si*c.ways : (si+1)*c.ways]
	if s.head == 0 {
		l[i] = link{prev: int32(i), next: int32(i)}
	} else {
		h := s.head - 1
		t := l[h].prev
		l[i] = link{prev: t, next: h}
		l[t].next = int32(i)
		l[h].prev = int32(i)
	}
	s.head = int32(i + 1)
}

// unlink takes way i of set si off the set's recency list.
func (c *Cache[K, V]) unlink(si, i int) {
	s := &c.sets[si]
	l := c.links[si*c.ways : (si+1)*c.ways]
	e := l[i]
	if int(e.next) == i {
		s.head = 0
		return
	}
	l[e.prev].next = e.next
	l[e.next].prev = e.prev
	if int(s.head-1) == i {
		s.head = e.next + 1
	}
}

// toFront makes way i the most recent of set si.
func (c *Cache[K, V]) toFront(si, i int) {
	s := &c.sets[si]
	h := int(s.head - 1)
	if h == i {
		return
	}
	// Making the tail the head rotates the circular list and keeps every
	// other way's order; only a way in the middle is relinked. A set
	// with two live ways has none in the middle.
	if int32(i) != c.links[si*c.ways+h].prev {
		c.unlink(si, i)
		c.link(si, i)
	}
	s.head = int32(i + 1)
}

// unchain takes way i off its tag-index chain.
func (c *Cache[K, V]) unchain(i int) {
	p := &c.buckets[c.bucket(c.slab[i].key)]
	for int(*p-1) != i {
		p = &c.slab[*p-1].chain
	}
	*p = c.slab[i].chain
}

// own puts slab position p at the head of owner o's chain.
func (c *Cache[K, V]) own(p int, o uint32) {
	if int(o) >= len(c.heads) {
		heads := make([]ownerHead, max(int(o)+1, 2*len(c.heads)))
		copy(heads, c.heads)
		c.heads = heads
	}
	h := &c.heads[o]
	if h.gen != c.gen {
		*h = ownerHead{gen: c.gen}
	}
	c.olinks[p] = link{next: h.head}
	if h.head != 0 {
		c.olinks[h.head-1].prev = int32(p + 1)
	}
	h.head = int32(p + 1)
}

// disown takes slab position p off its owner's chain. Only a chain's
// head needs its owner looked up.
func (c *Cache[K, V]) disown(p int) {
	l := c.olinks[p]
	if l.prev != 0 {
		c.olinks[l.prev-1].next = l.next
	} else {
		c.heads[c.owner(c.slab[p].key)].head = l.next
	}
	if l.next != 0 {
		c.olinks[l.next-1].prev = l.prev
	}
}

// chain returns the slab position + 1 at the head of owner o's chain, or
// 0 when o holds no entry.
func (c *Cache[K, V]) chain(o uint32) int32 {
	if c.owner == nil {
		panic("assoc: owner-scoped operation on a structure built without an owner")
	}
	if int(o) < len(c.heads) && c.heads[o].gen == c.gen {
		return c.heads[o].head
	}
	return 0
}

// remove empties way i of set si.
func (c *Cache[K, V]) remove(si, i int) {
	c.live[si*c.words+i>>6] &^= 1 << (i & 63)
	c.size--
	if c.rng == nil {
		c.unlink(si, i)
	}
	if c.buckets != nil {
		c.unchain(i)
	}
	if c.olinks != nil {
		c.disown(si*c.ways + i)
	}
}

// Update modifies the value for k in place if present, preserving its
// replacement state, and reports whether it was present.
func (c *Cache[K, V]) Update(k K, v V) bool {
	p := c.Ref(k)
	if p != nil {
		*p = v
	}
	return p != nil
}

// Invalidate removes k and reports whether it was present.
func (c *Cache[K, V]) Invalidate(k K) bool {
	si := c.setIndex(k)
	if i := c.find(si, k); i >= 0 {
		c.remove(si, i)
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
	for si := range c.sets {
		r, n := c.purgeSet(si, pred)
		removed += r
		inspected += n
	}
	return removed, inspected
}

// PurgeSetIf is PurgeIf confined to the one set that the index value ix
// selects: it removes the entries of that set for which pred returns true.
// A structure whose index function is the line number flushes a line's
// every copy, whatever else its key holds, by purging the line's set.
func (c *Cache[K, V]) PurgeSetIf(ix uint64, pred func(K, V) bool) (removed, inspected int) {
	return c.purgeSet(int(ix%uint64(len(c.sets))), pred)
}

func (c *Cache[K, V]) purgeSet(si int, pred func(K, V) bool) (removed, inspected int) {
	if !c.current(si) {
		return 0, 0
	}
	base := si * c.ways
	for j, w := range c.bitmap(si) {
		for ; w != 0; w &= w - 1 {
			i := j<<6 | bits.TrailingZeros64(w)
			inspected++
			if e := &c.slab[base+i]; pred(e.key, e.val) {
				c.remove(si, i)
				removed++
			}
		}
	}
	return removed, inspected
}

// PurgeOwner removes owner o's entries for which pred returns true, or
// all of them when pred is nil, visiting only o's chain. Like PurgeIf it
// returns the number removed and the number of valid entries in the
// structure as the number inspected: the hardware scans every entry to
// find o's, whatever the host visits.
func (c *Cache[K, V]) PurgeOwner(o uint32, pred func(K, V) bool) (removed, inspected int) {
	inspected = c.size
	for p := c.chain(o); p != 0; {
		e := &c.slab[p-1]
		next := c.olinks[p-1].next
		if pred == nil || pred(e.key, e.val) {
			c.remove(int(p-1)/c.ways, int(p-1)%c.ways)
			removed++
		}
		p = next
	}
	return removed, inspected
}

// UpdateOwner rewrites with fn the value of each of owner o's entries for
// which pred returns true, preserving replacement state and visiting only
// o's chain. It returns the number updated and, as PurgeOwner does, the
// number of valid entries as the number inspected.
func (c *Cache[K, V]) UpdateOwner(o uint32, pred func(K, V) bool, fn func(K, V) V) (updated, inspected int) {
	for p := c.chain(o); p != 0; p = c.olinks[p-1].next {
		if e := &c.slab[p-1]; pred(e.key, e.val) {
			e.val = fn(e.key, e.val)
			updated++
		}
	}
	return updated, c.size
}

// HasOwner reports whether owner o holds any valid entry.
func (c *Cache[K, V]) HasOwner(o uint32) bool { return c.chain(o) != 0 }

// PurgeAll removes every entry, returning how many were valid. The purge
// is O(1): the generation counter advances, orphaning every set.
func (c *Cache[K, V]) PurgeAll() int {
	removed := c.size
	if removed == 0 {
		return 0
	}
	c.size = 0
	c.gen++
	if c.gen == 0 {
		// The generation wrapped, so a set last reset 2^32 purges ago
		// would read as current: reset them all now.
		clear(c.sets)
		clear(c.live)
		clear(c.buckets)
		clear(c.heads)
	}
	return removed
}

// ForEach calls fn on every valid entry, set by set and way by way in
// ascending order, until fn returns false.
func (c *Cache[K, V]) ForEach(fn func(K, V) bool) {
	if c.size == 0 {
		return
	}
	for si := range c.sets {
		if !c.current(si) {
			continue
		}
		base := si * c.ways
		for j, w := range c.bitmap(si) {
			for ; w != 0; w &= w - 1 {
				if e := &c.slab[base+(j<<6|bits.TrailingZeros64(w))]; !fn(e.key, e.val) {
					return
				}
			}
		}
	}
}
