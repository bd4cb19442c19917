package machine

import (
	"repro/internal/addr"
	"repro/internal/assoc"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/smp"
	"repro/internal/stats"
	"repro/internal/tlb"
)

// ConvCacheOrg selects the conventional machine's data cache
// organization (the multiple-address-space choices of Section 2.2).
type ConvCacheOrg uint8

const (
	// ConvCacheVIVTASID is a virtually indexed, virtually tagged cache
	// with ASID-extended tags: no flushes, but synonyms for shared pages.
	ConvCacheVIVTASID ConvCacheOrg = iota
	// ConvCacheVIPT is a virtually indexed, physically tagged cache: no
	// flushes, no synonyms, no homonyms — but its geometry is
	// constrained (index+line bits must fit the page offset) and every
	// hit depends on the TLB's tag.
	ConvCacheVIPT
)

// ConvConfig configures the conventional and flush machines.
type ConvConfig struct {
	// Costs is the cycle cost model.
	Costs cpu.CostModel
	// TLB configures the combined (translation + protection) TLB.
	TLB assoc.Config
	// Cache configures the data cache. For the ASID machine the cache is
	// VIVT with ASID-extended tags; for the flush machine it is plain
	// VIVT, flushed on every switch; under VIPT it is named by physical
	// address, with no space tag.
	Cache cache.Config
	// CacheOrg selects VIVT-with-ASID-tags or VIPT.
	CacheOrg ConvCacheOrg
	// Geometry is the translation page geometry.
	Geometry addr.Geometry
}

// DefaultConvConfig returns the baseline conventional machine: a
// 128-entry ASID-tagged TLB and a 64 KB VIVT cache with ASID tags.
func DefaultConvConfig() ConvConfig {
	c := cache.DefaultConfig()
	c.ASIDTags = true
	return ConvConfig{
		Costs:    cpu.DefaultCosts(),
		TLB:      assoc.Config{Sets: 1, Ways: 128, Policy: assoc.LRU},
		Cache:    c,
		Geometry: addr.BaseGeometry(),
	}
}

// ConventionalMachine is the multiple-address-space baseline of Section
// 3.1: an ASID-tagged combined TLB refilled from per-address-space page
// tables, and a VIVT cache with ASID-extended tags (so it need not flush
// on switches, at the price of synonym duplication for shared pages).
//
// When it runs a single address space OS, each protection domain maps to
// one ASID — and every shared page occupies one TLB entry per domain, the
// duplication experiment E5 measures.
type ConventionalMachine struct {
	cfg    ConvConfig
	os     MultiOS
	obs    ResidencyObserver // non-nil when the OS tracks sharers
	domain addr.DomainID
	// flush marks the flush machine (NewFlush): no ASIDs, so the TLB and
	// cache are flushed on every switch.
	flush bool

	tlb   *tlb.TLB[tlb.ASIDKey, tlb.ASIDEntry]
	cache *cache.Cache
	// vipt marks the VIPT organization: the cache is addressed by the
	// physical address the TLB entry yields.
	vipt bool

	ctrs   stats.Counters
	cycles stats.Cycles

	// Pre-resolved handles for the counters bumped on the reference path.
	hAccesses, hStores, hSwitches, hSwitchCycles stats.Handle
	hTrapTLB, hFaultProt, hFaultUnmapped         stats.Handle
	// hTLBPurged counts the entries a whole-TLB purge drops.
	hTLBPurged stats.Handle
}

// NewConventional builds a conventional machine over per-space tables.
// It panics if a VIPT organization is requested with a geometry whose
// index does not fit the page offset (the architectural constraint).
func NewConventional(cfg ConvConfig, os MultiOS) *ConventionalMachine {
	m := &ConventionalMachine{cfg: cfg, os: os, vipt: cfg.CacheOrg == ConvCacheVIPT}
	m.obs, _ = os.(ResidencyObserver)
	m.tlb = tlb.NewASID(cfg.TLB, &m.ctrs, "tlb")
	if m.vipt {
		if !cache.ValidVIPT(cfg.Cache, cfg.Geometry) {
			panic("machine: VIPT cache index does not fit the page offset")
		}
		// Physical tags name each line once, whatever space touches it.
		m.cfg.Cache.ASIDTags = false
	}
	m.cache = cache.New(m.cfg.Cache, &m.ctrs, "cache")
	m.hAccesses = m.ctrs.Handle(CtrAccesses)
	m.hStores = m.ctrs.Handle(CtrStores)
	m.hSwitches = m.ctrs.Handle(CtrSwitches)
	m.hSwitchCycles = m.ctrs.Handle(CtrSwitchCycles)
	m.hTrapTLB = m.ctrs.Handle(CtrTrapTLBRefill)
	m.hFaultProt = m.ctrs.Handle(CtrFaultProt)
	m.hFaultUnmapped = m.ctrs.Handle(CtrFaultUnmapped)
	m.hTLBPurged = m.ctrs.Handle("tlb.purged")
	return m
}

// DefaultVIPTConvConfig returns a conventional machine with a 64 KB VIPT
// cache: 128 sets (the most 4 KB pages allow with 32-byte lines) of 16
// ways — size bought with associativity, per footnote 3.
func DefaultVIPTConvConfig() ConvConfig {
	cfg := DefaultConvConfig()
	cfg.CacheOrg = ConvCacheVIPT
	cfg.Cache = cache.Config{
		LineShift: 5,
		Assoc:     assoc.Config{Sets: 128, Ways: 16, Policy: assoc.LRU},
	}
	return cfg
}

// NewFlush builds the flush machine: a conventional machine without
// address space identifiers, whose homonyms make both the TLB and the
// virtual cache unusable across a context switch, so both are flushed on
// every switch — the regime the paper cites for the i860 (Section 2.2).
// The configuration's cache must not use ASID tags (there is no ASID);
// NewFlush clears the flag. With everything flushed per switch, every
// ASID sees only its own entries, so the machine's ASID tagging is
// harmless: homonymous entries never coexist.
func NewFlush(cfg ConvConfig, os MultiOS) *ConventionalMachine {
	cfg.Cache.ASIDTags = false
	cfg.CacheOrg = ConvCacheVIVTASID // flushing presumes the virtual cache
	m := NewConventional(cfg, os)
	m.flush = true
	return m
}

// Name implements Machine.
func (m *ConventionalMachine) Name() string {
	if m.flush {
		return "flush"
	}
	return "conventional"
}

// Domain implements Machine.
func (m *ConventionalMachine) Domain() addr.DomainID { return m.domain }

// Counters implements Machine.
func (m *ConventionalMachine) Counters() *stats.Counters { return &m.ctrs }

// Cycles implements Machine.
func (m *ConventionalMachine) Cycles() uint64 { return m.cycles.Total() }

// Costs implements Machine.
func (m *ConventionalMachine) Costs() cpu.CostModel { return m.cfg.Costs }

// TLB exposes the combined TLB for inspection.
func (m *ConventionalMachine) TLB() *tlb.TLB[tlb.ASIDKey, tlb.ASIDEntry] { return m.tlb }

// Cache exposes the data cache for inspection.
func (m *ConventionalMachine) Cache() *cache.Cache { return m.cache }

// asid maps the executing domain to its address space identifier.
func (m *ConventionalMachine) asid() addr.ASID { return addr.ASID(m.domain) }

// SwitchDomain implements Machine: with ASID tags a switch is one
// register write, like the PLB machine — but shared pages pay for it with
// duplicated TLB entries and cache synonyms. The flush machine instead
// purges its TLB and flushes its cache: everything goes.
func (m *ConventionalMachine) SwitchDomain(d addr.DomainID) {
	c := &m.cfg.Costs
	cost := c.RegisterWrite
	if m.flush {
		if d == m.domain {
			return
		}
		purged := m.purgeTLB()
		flushed, dirty := m.cache.FlushAll()
		cost += uint64(purged)*c.PurgeEntry + uint64(flushed)*c.CacheLineFlush + uint64(dirty)*c.Writeback
	}
	m.domain = d
	m.hSwitches.Inc()
	m.hSwitchCycles.Add(cost)
	m.cycles.Add(cost)
}

// Access implements Machine. Protection comes from the combined TLB,
// probed in parallel with the (virtually indexed, ASID-tagged) cache.
func (m *ConventionalMachine) Access(va addr.VA, kind addr.AccessKind) cpu.Outcome {
	c := &m.cfg.Costs
	m.hAccesses.Inc()
	if kind == addr.Store {
		m.hStores.Inc()
	}
	m.cycles.Add(c.CacheHit)

	key := tlb.ASIDKey{AS: m.asid(), VPN: m.cfg.Geometry.PageNumber(va)}
	entry, hit := m.tlb.Lookup(key)
	if !hit {
		m.hTrapTLB.Inc()
		m.cycles.Add(c.Trap + c.PTWalk)
		pte, ok := m.os.Walk(key.AS, key.VPN)
		if !ok {
			m.hFaultUnmapped.Inc()
			return cpu.Outcome{Fault: cpu.FaultPageUnmapped}
		}
		entry = tlb.ASIDEntry{PFN: pte.PFN, Rights: pte.Rights}
		m.tlb.Insert(key, entry)
		m.cycles.Add(c.Install)
		if m.obs != nil {
			// A combined-TLB entry carries both the domain's rights and
			// the translation; NoteProtInstall notes both.
			m.obs.NoteProtInstall(m.domain, key.VPN)
		}
	}
	if !entry.Rights.Allows(kind) {
		m.hFaultProt.Inc()
		m.cycles.Add(c.Trap)
		return cpu.Outcome{Fault: cpu.FaultProtection}
	}

	line := va
	if m.vipt {
		// VIPT: indexing begins from untranslated bits; the physical tag
		// comes from the TLB entry already in hand.
		line = addr.VA(uint64(entry.PFN)<<m.cfg.Geometry.Shift() | m.cfg.Geometry.Offset(va))
	}
	if m.cache.Access(key.AS, line, kind == addr.Store) {
		return cpu.Outcome{}
	}
	m.cycles.Add(c.CacheFill)
	if wroteBack := m.cache.Fill(key.AS, line, entry.PFN, kind == addr.Store); wroteBack {
		m.cycles.Add(c.Writeback)
	}
	return cpu.Outcome{}
}

// Apply implements Seat. Rights live in each address space's TLB
// entries, so per-domain changes touch one (ASID, page) entry, while
// page-wide changes must scan the whole TLB for every space's duplicate
// (Section 3.1).
func (m *ConventionalMachine) Apply(r smp.Request) int {
	c := &m.cfg.Costs
	as := addr.ASID(r.Domain)
	switch r.Kind {
	case smp.InvalRights:
		// Detach and per-space protection revocation.
		if m.tlb.Invalidate(tlb.ASIDKey{AS: as, VPN: r.VPN}) {
			m.cycles.Add(c.PurgeEntry)
			return 1
		}
	case smp.UpdateRights:
		// A resident entry is rewritten; absent entries refill from the
		// page tables on next touch.
		k := tlb.ASIDKey{AS: as, VPN: r.VPN}
		if e, ok := m.tlb.Lookup(k); ok {
			e.Rights = r.Rights
			m.tlb.Insert(k, e)
			m.cycles.Add(c.Install)
			return 1
		}
	case smp.DomainPurge:
		// Address-space teardown: one full-TLB scan replaces the
		// per-page invalidation storm a destroy would otherwise issue.
		return m.scan(m.tlb.PurgeOwner(uint32(as)))
	case smp.PurgePage:
		// What a mapping change to a shared page costs on this
		// architecture.
		return m.scan(m.purgePage(r.VPN))
	case smp.Unmap:
		// The page's lines are flushed (a VIPT cache names them by the
		// frame, found while the mapping still exists), and every space's
		// TLB entry must be found and purged: the duplicated-purge cost
		// of Section 3.1.
		page, ok := r.VPN, true
		if m.vipt {
			pte, mapped := m.os.Walk(m.asid(), r.VPN)
			page, ok = addr.VPN(pte.PFN), mapped
		}
		dirty := 0
		if ok {
			_, dirty = m.cache.FlushPage(m.cfg.Geometry.Base(page), m.cfg.Geometry)
		}
		m.cycles.Add(m.cache.LinesPerPage(m.cfg.Geometry)*c.CacheLineFlush + uint64(dirty)*c.Writeback)
		return m.scan(m.purgePage(r.VPN))
	}
	return 0
}

// purgePage removes every address space's entry for vpn.
func (m *ConventionalMachine) purgePage(vpn addr.VPN) int {
	return m.tlb.PurgeIf(func(k tlb.ASIDKey, _ tlb.ASIDEntry) bool { return k.VPN == vpn })
}

// purgeTLB empties the TLB, counting the entries it drops.
func (m *ConventionalMachine) purgeTLB() int {
	n := m.tlb.PurgeAll()
	m.hTLBPurged.Add(uint64(n))
	return n
}

// scan charges an entry-by-entry TLB scan, which inspects every slot
// whether valid or not, and passes through the number of entries it
// touched.
func (m *ConventionalMachine) scan(n int) int {
	m.cycles.Add(uint64(m.tlb.Capacity()) * m.cfg.Costs.PurgeEntry)
	return n
}

// PurgeAll implements Seat: the TLB is purged and every data-cache line
// (virtual or VIPT) flushed. Lines left by mappings the CPU no longer
// holds would otherwise survive: unmap shootdowns flush them when
// delivered, and a seat withdrawn from the sharer directory stops
// receiving those.
func (m *ConventionalMachine) PurgeAll() int {
	c := &m.cfg.Costs
	n := m.purgeTLB()
	flushed, dirty := m.cache.FlushAll()
	m.cycles.Add(uint64(flushed)*c.CacheLineFlush + uint64(dirty)*c.Writeback)
	return n
}

// MaxCycles implements Seat. The dearer Apply is a single-entry
// install or an unmap, which scans the TLB and flushes a page of lines
// with every resident line of the page dirty; PurgeAll at worst flushes
// a cache full of dirty lines.
func (m *ConventionalMachine) MaxCycles() (apply, purge uint64) {
	c := &m.cfg.Costs
	geo := m.cfg.Geometry
	unmap := uint64(m.tlb.Capacity())*c.PurgeEntry + m.cache.LinesPerPage(geo)*c.CacheLineFlush + m.cache.PageLinesBound(geo)*c.Writeback
	return max(c.Install, unmap), uint64(m.cache.Capacity()) * (c.CacheLineFlush + c.Writeback)
}

// HasDomainEntries implements Seat: whether the TLB chain of domain d's
// address space is non-empty.
func (m *ConventionalMachine) HasDomainEntries(d addr.DomainID) bool {
	return m.tlb.HasOwner(uint32(addr.ASID(d)))
}

// Entries implements Seat: ASID-TLB entries, each tagged with its
// domain's address space, then virtually tagged data-cache lines. VIPT
// lines are left out: physically tagged, they hit only through the TLB.
func (m *ConventionalMachine) Entries(fn func(Entry) bool) {
	s := entrySink{fn: fn}
	shift := m.cfg.Geometry.Shift()
	m.tlb.ForEach(func(k tlb.ASIDKey, e tlb.ASIDEntry) bool {
		return s.put(Entry{Kind: DomainPage, Where: "asid-tlb", Domain: addr.DomainID(k.AS), Page: uint64(k.VPN),
			Shift: shift, Rights: e.Rights, Frame: e.PFN, HasFrame: true})
	})
	if !m.vipt {
		s.cacheLines(m.cache, m.cfg.Geometry)
	}
}

var _ Machine = (*ConventionalMachine)(nil)
