// Package cache models the first-level data caches whose interaction with
// addressing motivates much of the paper (Section 2.2):
//
//   - VirtualCache: a virtually indexed, virtually tagged (VIVT) cache.
//     The fastest organization — no translation before the access — but on
//     multiple-address-space systems it suffers homonyms (same VA, different
//     data per space) and synonyms (same data under different VAs). A single
//     address space eliminates both by construction. The cache optionally
//     extends its tags with an address-space identifier (the conventional
//     homonym fix, which reintroduces synonyms for shared pages) or is
//     flushed on every context switch (the i860 fix).
//
//   - PhysicalCache: a physically indexed, physically tagged (PIPT) cache,
//     immune to both problems but requiring translation before every
//     access.
//
// Caches track line presence, dirtiness, and (at fill time) the physical
// frame behind each line, so experiments can count writebacks, flush costs
// and resident synonym/homonym duplicates.
package cache

import (
	"math/bits"

	"repro/internal/addr"
	"repro/internal/assoc"
	"repro/internal/stats"
)

// Config describes a cache's geometry.
type Config struct {
	// LineShift is log2 of the line size in bytes (5 → 32-byte lines).
	LineShift uint
	// Assoc is the geometry of the underlying structure: Sets × Ways
	// lines in total.
	Assoc assoc.Config
	// ASIDTags, for VirtualCache only, extends every virtual tag with the
	// referencing address space's identifier so homonyms can coexist.
	ASIDTags bool
}

// DefaultConfig returns a 64 KB, 2-way, 32-byte-line configuration.
func DefaultConfig() Config {
	return Config{
		LineShift: 5,
		Assoc:     assoc.Config{Sets: 1024, Ways: 2, Policy: assoc.LRU},
	}
}

// lineKey identifies a resident line: the line number in whichever address
// space the cache is indexed by, plus the tag-extension space (ASID) when
// enabled.
type lineKey struct {
	line  uint64
	space addr.ASID
}

// lineOf is the VIVT cache's index function. Virtually indexed: the set
// is chosen by VA line-number bits only, regardless of ASID tag extension
// — this is why ASID tags do not prevent synonym duplication across sets.
func lineOf(k lineKey) uint64 { return k.line }

// physLine is the PIPT cache's index function: its keys are physical line
// numbers.
func physLine(line uint64) uint64 { return line }

// lineState records what the cache knows about a resident line.
type lineState struct {
	dirty bool
	// pfn is the physical frame the line was filled from; it identifies
	// the physical data for synonym detection and writeback targets.
	pfn addr.PFN
}

// VirtualCache is the VIVT data cache.
type VirtualCache struct {
	cfg Config
	c   *assoc.Cache[lineKey, lineState]
	// nDirty tracks resident dirty lines so FlushAll reports its
	// writeback count without scanning the structure.
	nDirty int

	nHit       stats.Handle
	nMiss      stats.Handle
	nFill      stats.Handle
	nWriteback stats.Handle
	nFlushLine stats.Handle
	nFlushWB   stats.Handle
}

// NewVirtual creates a VIVT cache counting under prefix. Counter names
// resolve to handles once here, keeping the per-access path free of name
// hashing.
func NewVirtual(cfg Config, ctrs *stats.Counters, prefix string) *VirtualCache {
	v := &VirtualCache{cfg: cfg}
	v.c = assoc.New[lineKey, lineState](cfg.Assoc, lineOf)
	v.nHit = ctrs.Handle(prefix + ".hit")
	v.nMiss = ctrs.Handle(prefix + ".miss")
	v.nFill = ctrs.Handle(prefix + ".fill")
	v.nWriteback = ctrs.Handle(prefix + ".writeback")
	v.nFlushLine = ctrs.Handle(prefix + ".flushed_lines")
	v.nFlushWB = ctrs.Handle(prefix + ".flush_writebacks")
	return v
}

func (v *VirtualCache) key(space addr.ASID, va addr.VA) lineKey {
	k := lineKey{line: uint64(va) >> v.cfg.LineShift}
	if v.cfg.ASIDTags {
		k.space = space
	}
	return k
}

// LinesPerPage returns the number of cache lines covering one page of the
// given geometry.
func (v *VirtualCache) LinesPerPage(geo addr.Geometry) uint64 {
	return geo.PageSize() >> v.cfg.LineShift
}

// PageLinesBound returns the most lines of one page the cache can hold
// at once: each line of the page once or, with ASID tags, one copy per
// way of every set the page's lines index (each space may cache its
// own).
func (v *VirtualCache) PageLinesBound(geo addr.Geometry) uint64 {
	lines := v.LinesPerPage(geo)
	if v.cfg.ASIDTags {
		lines = min(lines, uint64(v.cfg.Assoc.Sets)) * uint64(v.cfg.Assoc.Ways)
	}
	return min(lines, uint64(v.Capacity()))
}

// Access probes the cache for va in space (space is ignored unless the
// cache was built with ASIDTags). On a store hit the line is marked dirty.
// A miss returns false; the caller translates and calls Fill.
func (v *VirtualCache) Access(space addr.ASID, va addr.VA, store bool) bool {
	k := v.key(space, va)
	st, ok := v.c.Lookup(k)
	if !ok {
		v.nMiss.Inc()
		return false
	}
	if store && !st.dirty {
		st.dirty = true
		v.c.Update(k, st)
		v.nDirty++
	}
	v.nHit.Inc()
	return true
}

// Fill installs the line for va after a miss, recording the physical frame
// it came from. It returns true if a dirty victim had to be written back —
// on the PLB machine, a writeback needs a translation, so the machine
// charges an off-chip TLB probe for it (Section 3.2.1).
func (v *VirtualCache) Fill(space addr.ASID, va addr.VA, pfn addr.PFN, store bool) (wroteBack bool) {
	k := v.key(space, va)
	_, victim, evicted := v.c.Insert(k, lineState{dirty: store, pfn: pfn})
	v.nFill.Inc()
	if store {
		v.nDirty++
	}
	if evicted && victim.dirty {
		v.nDirty--
		v.nWriteback.Inc()
		return true
	}
	return false
}

// FlushPage removes every resident line of the page holding va (matching
// any space tag), as a sequence of per-line flush instructions. It returns
// the number of lines flushed and how many were dirty (requiring
// writeback). Used when unmapping pages (Section 4.1.3).
func (v *VirtualCache) FlushPage(va addr.VA, geo addr.Geometry) (flushed, dirty int) {
	firstLine := uint64(geo.Base(geo.PageNumber(va))) >> v.cfg.LineShift
	flushed, dirty = flushLines(v.c, firstLine, v.LinesPerPage(geo), lineOf)
	v.nDirty -= dirty
	v.nFlushLine.Add(uint64(flushed))
	v.nFlushWB.Add(uint64(dirty))
	return flushed, dirty
}

// FlushAll empties the cache (the context-switch flush of systems without
// ASID tags), returning lines flushed and dirty writebacks. Both counts
// are tracked incrementally, so the flush itself is O(1).
func (v *VirtualCache) FlushAll() (flushed, dirty int) {
	dirty = v.nDirty
	v.nDirty = 0
	flushed = v.c.PurgeAll()
	v.nFlushLine.Add(uint64(flushed))
	v.nFlushWB.Add(uint64(dirty))
	return flushed, dirty
}

// ForEachLine visits the first virtual address of every resident line
// in unspecified order; return false from fn to stop early. Oracle
// inspection hook.
func (v *VirtualCache) ForEachLine(fn func(va addr.VA) bool) {
	v.c.ForEach(func(k lineKey, _ lineState) bool {
		return fn(addr.VA(k.line << v.cfg.LineShift))
	})
}

// Capacity returns the line capacity.
func (v *VirtualCache) Capacity() int { return v.c.Capacity() }

// SynonymLines counts resident lines whose physical data is simultaneously
// resident under another key — the synonym duplication of Section 2.2.
// On a true single address space system this is always zero. geo is the
// machine's translation page geometry: the line-in-page offset depends on
// the page size, so a super-page machine must not be counted with
// base-page arithmetic (offsets in the upper parts of a large page would
// alias and be miscounted as synonyms).
func (v *VirtualCache) SynonymLines(geo addr.Geometry) int {
	type phys struct {
		pfn    addr.PFN
		offset uint64
	}
	// A physical line is its frame plus its line-in-page offset. The
	// offset is the low bits of the virtual line number, which is exact
	// for page-aligned sharing (the only kind the kernel creates).
	byPhys := make(map[phys]int)
	linesPerPage := v.LinesPerPage(geo)
	v.c.ForEach(func(k lineKey, st lineState) bool {
		byPhys[phys{pfn: st.pfn, offset: k.line % linesPerPage}]++
		return true
	})
	n := 0
	for _, c := range byPhys {
		if c > 1 {
			n += c
		}
	}
	return n
}

// flushLines removes every resident copy of lines [first, first+n) from
// c, whose index function is line, and returns how many it removed and
// how many of those were dirty. Every copy of a line, whatever its space
// tag, lives in the set its line number selects, so only the sets the
// lines index are visited: n consecutive lines index min(n, Sets)
// consecutive sets.
func flushLines[K comparable](c *assoc.Cache[K, lineState], first, n uint64, line func(K) uint64) (flushed, dirty int) {
	inRange := func(k K, st lineState) bool {
		if l := line(k); l >= first && l < first+n {
			if st.dirty {
				dirty++
			}
			return true
		}
		return false
	}
	for l, end := first, first+min(n, uint64(c.Config().Sets)); l < end; l++ {
		removed, _ := c.PurgeSetIf(l, inRange)
		flushed += removed
	}
	return flushed, dirty
}

// ValidVIPT reports whether the configuration can be used virtually
// indexed, physically tagged: the set-index and line-offset bits must fit
// inside the page offset, so indexing needs no translation and a physical
// line has exactly one possible location — no synonyms, no homonyms.
// This is the cache-size restriction the paper's footnote 3 refers to:
// a VIPT cache grows only by adding associativity.
func ValidVIPT(cfg Config, geo addr.Geometry) bool {
	// Index bits are ceil(log2(Sets)): a non-power-of-two set count still
	// needs enough bits to address every set, so rounding down would
	// validate geometries whose index spills into translated bits.
	indexBits := uint(0)
	if cfg.Assoc.Sets > 1 {
		indexBits = uint(bits.Len(uint(cfg.Assoc.Sets - 1)))
	}
	return cfg.LineShift+indexBits <= geo.Shift()
}

// PhysicalCache is the PIPT data cache: translation must precede every
// access, so the machine charges a TLB lookup on the critical path.
// With a VIPT-valid geometry (ValidVIPT) it equally models a virtually
// indexed, physically tagged cache, whose indexing starts before
// translation completes.
type PhysicalCache struct {
	cfg Config
	c   *assoc.Cache[uint64, lineState]

	nHit       stats.Handle
	nMiss      stats.Handle
	nFill      stats.Handle
	nWriteback stats.Handle
	nFlushLine stats.Handle
	nFlushWB   stats.Handle
}

// NewPhysical creates a PIPT cache counting under prefix.
func NewPhysical(cfg Config, ctrs *stats.Counters, prefix string) *PhysicalCache {
	p := &PhysicalCache{cfg: cfg}
	p.c = assoc.New[uint64, lineState](cfg.Assoc, physLine)
	p.nHit = ctrs.Handle(prefix + ".hit")
	p.nMiss = ctrs.Handle(prefix + ".miss")
	p.nFill = ctrs.Handle(prefix + ".fill")
	p.nWriteback = ctrs.Handle(prefix + ".writeback")
	p.nFlushLine = ctrs.Handle(prefix + ".flushed_lines")
	p.nFlushWB = ctrs.Handle(prefix + ".flush_writebacks")
	return p
}

// Access probes the cache by physical address.
func (p *PhysicalCache) Access(pa addr.PA, store bool) bool {
	line := uint64(pa) >> p.cfg.LineShift
	st, ok := p.c.Lookup(line)
	if !ok {
		p.nMiss.Inc()
		return false
	}
	if store && !st.dirty {
		st.dirty = true
		p.c.Update(line, st)
	}
	p.nHit.Inc()
	return true
}

// Fill installs the line for pa after a miss.
func (p *PhysicalCache) Fill(pa addr.PA, store bool) (wroteBack bool) {
	line := uint64(pa) >> p.cfg.LineShift
	_, victim, evicted := p.c.Insert(line, lineState{dirty: store})
	p.nFill.Inc()
	if evicted && victim.dirty {
		p.nWriteback.Inc()
		return true
	}
	return false
}

// FlushFrame removes every resident line of the physical frame, returning
// lines flushed and dirty writebacks.
func (p *PhysicalCache) FlushFrame(pfn addr.PFN, geo addr.Geometry) (flushed, dirty int) {
	first := (uint64(pfn) << geo.Shift()) >> p.cfg.LineShift
	flushed, dirty = flushLines(p.c, first, geo.PageSize()>>p.cfg.LineShift, physLine)
	p.nFlushLine.Add(uint64(flushed))
	p.nFlushWB.Add(uint64(dirty))
	return flushed, dirty
}

// FlushAll empties the physical cache, returning lines flushed and
// dirty writebacks.
func (p *PhysicalCache) FlushAll() (flushed, dirty int) {
	removed, _ := p.c.PurgeIf(func(_ uint64, st lineState) bool {
		if st.dirty {
			dirty++
		}
		return true
	})
	flushed = removed
	p.nFlushLine.Add(uint64(flushed))
	p.nFlushWB.Add(uint64(dirty))
	return flushed, dirty
}

// Capacity returns the line capacity.
func (p *PhysicalCache) Capacity() int { return p.c.Capacity() }
