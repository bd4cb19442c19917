// Package cache models the first-level data cache whose interaction with
// addressing motivates much of the paper (Section 2.2). It is virtually
// indexed, and it is tagged by whichever address the machine names a
// line with:
//
//   - VIVT: the virtual address. The fastest organization — no
//     translation before the access — but on multiple-address-space
//     systems it suffers homonyms (same VA, different data per space) and
//     synonyms (same data under different VAs). A single address space
//     eliminates both by construction. The cache optionally extends its
//     tags with an address-space identifier (the conventional homonym
//     fix, which reintroduces synonyms for shared pages) or is flushed on
//     every context switch (the i860 fix).
//
//   - VIPT: the physical address, with no space tag. With a geometry
//     ValidVIPT accepts, the set-index bits lie inside the page offset,
//     where the virtual and physical addresses agree, so indexing starts
//     before translation and the physical tag comes from the TLB: no
//     synonyms, no homonyms (footnote 3).
//
// The cache tracks line presence, dirtiness, and (at fill time) the
// physical frame behind each line, so experiments can count writebacks,
// flush costs and resident synonym/homonym duplicates.
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
	// ASIDTags extends every virtual tag with the referencing address
	// space's identifier so homonyms can coexist (VIVT only).
	ASIDTags bool
}

// DefaultConfig returns a 64 KB, 2-way, 32-byte-line configuration.
func DefaultConfig() Config {
	return Config{
		LineShift: 5,
		Assoc:     assoc.Config{Sets: 1024, Ways: 2, Policy: assoc.LRU},
	}
}

// lineKey identifies a resident line: the line number of the address the
// line is named by, plus the tag-extension space (ASID) when enabled.
type lineKey struct {
	line  uint64
	space addr.ASID
}

// lineOf is the cache's index function: the set is chosen by line-number
// bits only, regardless of ASID tag extension — this is why ASID tags do
// not prevent synonym duplication across sets.
func lineOf(k lineKey) uint64 { return k.line }

// lineState records what the cache knows about a resident line.
type lineState struct {
	dirty bool
	// pfn is the physical frame the line was filled from; it identifies
	// the physical data for synonym detection and writeback targets.
	pfn addr.PFN
}

// Cache is every machine's data cache. The PLB, page-group and flush
// machines and the ASID-tagged conventional machine address it by
// virtual address (VIVT); the VIPT conventional machine addresses it by
// the physical address its TLB entry yields.
type Cache struct {
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

// New creates a data cache counting under prefix. Counter names resolve
// to handles once here, keeping the per-access path free of name hashing.
func New(cfg Config, ctrs *stats.Counters, prefix string) *Cache {
	v := &Cache{cfg: cfg}
	v.c = assoc.New[lineKey, lineState](cfg.Assoc, lineOf)
	v.nHit = ctrs.Handle(prefix + ".hit")
	v.nMiss = ctrs.Handle(prefix + ".miss")
	v.nFill = ctrs.Handle(prefix + ".fill")
	v.nWriteback = ctrs.Handle(prefix + ".writeback")
	v.nFlushLine = ctrs.Handle(prefix + ".flushed_lines")
	v.nFlushWB = ctrs.Handle(prefix + ".flush_writebacks")
	return v
}

func (v *Cache) key(space addr.ASID, va addr.VA) lineKey {
	k := lineKey{line: uint64(va) >> v.cfg.LineShift}
	if v.cfg.ASIDTags {
		k.space = space
	}
	return k
}

// LinesPerPage returns the number of cache lines covering one page of the
// given geometry.
func (v *Cache) LinesPerPage(geo addr.Geometry) uint64 {
	return geo.PageSize() >> v.cfg.LineShift
}

// PageLinesBound returns the most lines of one page the cache can hold
// at once: each line of the page once or, with ASID tags, one copy per
// way of every set the page's lines index (each space may cache its
// own).
func (v *Cache) PageLinesBound(geo addr.Geometry) uint64 {
	lines := v.LinesPerPage(geo)
	if v.cfg.ASIDTags {
		lines = min(lines, uint64(v.cfg.Assoc.Sets)) * uint64(v.cfg.Assoc.Ways)
	}
	return min(lines, uint64(v.Capacity()))
}

// Access probes the cache for va in space (space is ignored unless the
// cache was built with ASIDTags). A VIPT cache is given the physical
// address as va. On a store hit the line is marked dirty. A miss returns
// false; the caller translates and calls Fill.
func (v *Cache) Access(space addr.ASID, va addr.VA, store bool) bool {
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
func (v *Cache) Fill(space addr.ASID, va addr.VA, pfn addr.PFN, store bool) (wroteBack bool) {
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
// any space tag; a VIPT cache is given the frame's address), as a
// sequence of per-line flush instructions. It returns the number of lines
// flushed and how many were dirty (requiring writeback). Used when
// unmapping pages (Section 4.1.3).
//
// Every copy of a line, whatever its space tag, lives in the set its line
// number selects, so only the sets the page's lines index are visited: n
// consecutive lines index min(n, Sets) consecutive sets.
func (v *Cache) FlushPage(va addr.VA, geo addr.Geometry) (flushed, dirty int) {
	first := uint64(geo.Base(geo.PageNumber(va))) >> v.cfg.LineShift
	n := v.LinesPerPage(geo)
	inPage := func(k lineKey, st lineState) bool {
		if k.line >= first && k.line < first+n {
			if st.dirty {
				dirty++
			}
			return true
		}
		return false
	}
	for l, end := first, first+min(n, uint64(v.c.Config().Sets)); l < end; l++ {
		removed, _ := v.c.PurgeSetIf(l, inPage)
		flushed += removed
	}
	v.nDirty -= dirty
	v.nFlushLine.Add(uint64(flushed))
	v.nFlushWB.Add(uint64(dirty))
	return flushed, dirty
}

// FlushAll empties the cache (the context-switch flush of systems without
// ASID tags), returning lines flushed and dirty writebacks. Both counts
// are tracked incrementally, so the flush itself is O(1).
func (v *Cache) FlushAll() (flushed, dirty int) {
	dirty = v.nDirty
	v.nDirty = 0
	flushed = v.c.PurgeAll()
	v.nFlushLine.Add(uint64(flushed))
	v.nFlushWB.Add(uint64(dirty))
	return flushed, dirty
}

// ForEachLine visits the first address of every resident line (virtual,
// or physical under VIPT) in unspecified order; return false from fn to
// stop early. Oracle inspection hook.
func (v *Cache) ForEachLine(fn func(va addr.VA) bool) {
	v.c.ForEach(func(k lineKey, _ lineState) bool {
		return fn(addr.VA(k.line << v.cfg.LineShift))
	})
}

// Capacity returns the line capacity.
func (v *Cache) Capacity() int { return v.c.Capacity() }

// SynonymLines counts resident lines whose physical data is simultaneously
// resident under another key — the synonym duplication of Section 2.2.
// On a true single address space system this is always zero. geo is the
// machine's translation page geometry: the line-in-page offset depends on
// the page size, so a super-page machine must not be counted with
// base-page arithmetic (offsets in the upper parts of a large page would
// alias and be miscounted as synonyms).
func (v *Cache) SynonymLines(geo addr.Geometry) int {
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
