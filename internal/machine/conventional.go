package machine

import (
	"repro/internal/addr"
	"repro/internal/assoc"
	"repro/internal/cache"
	"repro/internal/cpu"
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
	// VIVT, flushed on every switch.
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

	tlb   *tlb.ASIDTLB
	cache *cache.VirtualCache  // VIVT-ASID organization
	vipt  *cache.PhysicalCache // VIPT organization

	ctrs   stats.Counters
	cycles stats.Cycles

	// Pre-resolved handles for the counters bumped on the reference path.
	hAccesses, hStores, hSwitches, hSwitchCycles stats.Handle
	hTrapTLB, hFaultProt, hFaultUnmapped         stats.Handle
}

// NewConventional builds a conventional machine over per-space tables.
// It panics if a VIPT organization is requested with a geometry whose
// index does not fit the page offset (the architectural constraint).
func NewConventional(cfg ConvConfig, os MultiOS) *ConventionalMachine {
	m := &ConventionalMachine{cfg: cfg, os: os}
	m.obs, _ = os.(ResidencyObserver)
	m.tlb = tlb.NewASID(cfg.TLB, &m.ctrs, "tlb")
	if cfg.CacheOrg == ConvCacheVIPT {
		if !cache.ValidVIPT(cfg.Cache, cfg.Geometry) {
			panic("machine: VIPT cache index does not fit the page offset")
		}
		m.vipt = cache.NewPhysical(cfg.Cache, &m.ctrs, "cache")
	} else {
		m.cache = cache.NewVirtual(cfg.Cache, &m.ctrs, "cache")
	}
	m.hAccesses = m.ctrs.Handle(CtrAccesses)
	m.hStores = m.ctrs.Handle(CtrStores)
	m.hSwitches = m.ctrs.Handle(CtrSwitches)
	m.hSwitchCycles = m.ctrs.Handle(CtrSwitchCycles)
	m.hTrapTLB = m.ctrs.Handle(CtrTrapTLBRefill)
	m.hFaultProt = m.ctrs.Handle(CtrFaultProt)
	m.hFaultUnmapped = m.ctrs.Handle(CtrFaultUnmapped)
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

// Name implements Machine.
func (m *ConventionalMachine) Name() string { return "conventional" }

// Domain implements Machine.
func (m *ConventionalMachine) Domain() addr.DomainID { return m.domain }

// Counters implements Machine.
func (m *ConventionalMachine) Counters() *stats.Counters { return &m.ctrs }

// Cycles implements Machine.
func (m *ConventionalMachine) Cycles() uint64 { return m.cycles.Total() }

// Costs implements Machine.
func (m *ConventionalMachine) Costs() cpu.CostModel { return m.cfg.Costs }

// TLB exposes the combined TLB for inspection.
func (m *ConventionalMachine) TLB() *tlb.ASIDTLB { return m.tlb }

// Cache exposes the VIVT data cache for inspection (nil under VIPT).
func (m *ConventionalMachine) Cache() *cache.VirtualCache { return m.cache }

// VIPTCache exposes the VIPT data cache for inspection (nil under
// VIVT-ASID).
func (m *ConventionalMachine) VIPTCache() *cache.PhysicalCache { return m.vipt }

// asid maps the executing domain to its address space identifier.
func (m *ConventionalMachine) asid() addr.ASID { return addr.ASID(m.domain) }

// SwitchDomain implements Machine: with ASID tags a switch is one
// register write, like the PLB machine — but shared pages pay for it with
// duplicated TLB entries and cache synonyms.
func (m *ConventionalMachine) SwitchDomain(d addr.DomainID) {
	m.domain = d
	m.hSwitches.Inc()
	m.hSwitchCycles.Add(m.cfg.Costs.RegisterWrite)
	m.cycles.Add(m.cfg.Costs.RegisterWrite)
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

	vpn := m.cfg.Geometry.PageNumber(va)
	entry, hit := m.tlb.Lookup(m.asid(), vpn)
	if !hit {
		m.hTrapTLB.Inc()
		m.cycles.Add(c.Trap + c.PTWalk)
		pte, ok := m.os.Walk(m.asid(), vpn)
		if !ok {
			m.hFaultUnmapped.Inc()
			return cpu.Outcome{Fault: cpu.FaultPageUnmapped}
		}
		entry = tlb.ASIDEntry{PFN: pte.PFN, Rights: pte.Rights}
		m.tlb.Insert(m.asid(), vpn, entry)
		m.cycles.Add(c.Install)
		if m.obs != nil {
			// A combined-TLB entry carries both the domain's rights and
			// the translation, so it feeds both directory axes.
			m.obs.NoteProtInstall(m.domain, vpn)
			m.obs.NotePageInstall(vpn)
		}
	}
	if !entry.Rights.Allows(kind) {
		m.hFaultProt.Inc()
		m.cycles.Add(c.Trap)
		return cpu.Outcome{Fault: cpu.FaultProtection}
	}

	if m.vipt != nil {
		// VIPT: indexing begins from untranslated bits; the physical tag
		// comes from the TLB entry already in hand.
		pa := addr.PA(uint64(entry.PFN)<<m.cfg.Geometry.Shift() | m.cfg.Geometry.Offset(va))
		if m.vipt.Access(pa, kind == addr.Store) {
			return cpu.Outcome{}
		}
		m.cycles.Add(c.CacheFill)
		if wroteBack := m.vipt.Fill(pa, kind == addr.Store); wroteBack {
			m.cycles.Add(c.Writeback)
		}
		return cpu.Outcome{}
	}
	if m.cache.Access(m.asid(), va, kind == addr.Store) {
		return cpu.Outcome{}
	}
	m.cycles.Add(c.CacheFill)
	if wroteBack := m.cache.Fill(m.asid(), va, entry.PFN, kind == addr.Store); wroteBack {
		m.cycles.Add(c.Writeback)
	}
	return cpu.Outcome{}
}

// InvalidatePage purges every address space's TLB entry for vpn — what a
// mapping change to a shared page costs on this architecture (the scan of
// Section 3.1).
func (m *ConventionalMachine) InvalidatePage(vpn addr.VPN) int {
	n := m.tlb.PurgePage(vpn)
	// An entry-by-entry hardware scan inspects every TLB slot, valid or
	// not, so the charge covers the full capacity.
	m.cycles.Add(uint64(m.tlb.Capacity()) * m.cfg.Costs.PurgeEntry)
	return n
}

// SetRights updates the resident TLB entry for (as, vpn); absent entries
// refill from the page tables on next touch.
func (m *ConventionalMachine) SetRights(as addr.ASID, vpn addr.VPN, r addr.Rights) int {
	if e, ok := m.tlb.Lookup(as, vpn); ok {
		e.Rights = r
		m.tlb.Insert(as, vpn, e)
		m.cycles.Add(m.cfg.Costs.Install)
		return 1
	}
	return 0
}

// PurgeASID drops every TLB entry tagged with address space as — the
// address-space teardown primitive (domain destroy). One full-TLB scan
// replaces the per-page InvalidateEntry storm a destroy would otherwise
// issue, so the charge covers the full capacity once.
func (m *ConventionalMachine) PurgeASID(as addr.ASID) int {
	n := m.tlb.PurgeAS(as)
	m.cycles.Add(uint64(m.tlb.Capacity()) * m.cfg.Costs.PurgeEntry)
	return n
}

// InvalidateEntry drops one space's TLB entry for vpn (detach and
// per-space protection revocation).
func (m *ConventionalMachine) InvalidateEntry(as addr.ASID, vpn addr.VPN) int {
	if m.tlb.Invalidate(as, vpn) {
		m.cycles.Add(m.cfg.Costs.PurgeEntry)
		return 1
	}
	return 0
}

// UnmapPage destroys the translation for vpn: every address space's TLB
// entry must be found and purged (the duplicated-purge cost of Section
// 3.1), and the page's cache lines flushed.
func (m *ConventionalMachine) UnmapPage(vpn addr.VPN) int {
	c := &m.cfg.Costs
	// The flush needs the physical frame before the mapping disappears.
	var pfn addr.PFN
	havePFN := false
	if m.vipt != nil {
		if pte, ok := m.os.Walk(m.asid(), vpn); ok {
			pfn, havePFN = pte.PFN, true
		}
	}
	n := m.tlb.PurgePage(vpn)
	m.cycles.Add(uint64(m.tlb.Capacity()) * c.PurgeEntry)
	var dirty int
	if m.vipt != nil {
		if havePFN {
			_, dirty = m.vipt.FlushFrame(pfn, m.cfg.Geometry)
		}
	} else {
		_, dirty = m.cache.FlushPage(m.cfg.Geometry.Base(vpn), m.cfg.Geometry)
	}
	m.cycles.Add((m.cfg.Geometry.PageSize() >> m.cfg.Cache.LineShift) * c.CacheLineFlush)
	m.cycles.Add(uint64(dirty) * c.Writeback)
	return n
}

// FlushDataCache flushes every line of the data cache (virtual or
// VIPT), charging the per-line flush and writeback costs. Lines left
// by mappings the CPU no longer holds would otherwise survive a bulk
// invalidation: unmap shootdowns flush them when delivered, and a CPU
// withdrawn from the sharer directory stops receiving those.
func (m *ConventionalMachine) FlushDataCache() int {
	var flushed, dirty int
	if m.vipt != nil {
		flushed, dirty = m.vipt.FlushAll()
	} else {
		flushed, dirty = m.cache.FlushAll()
	}
	m.cycles.Add(uint64(flushed)*m.cfg.Costs.CacheLineFlush + uint64(dirty)*m.cfg.Costs.Writeback)
	return flushed
}

// Geometry returns the machine's translation page geometry.
func (m *ConventionalMachine) Geometry() addr.Geometry { return m.cfg.Geometry }

var _ Machine = (*ConventionalMachine)(nil)

// FlushMachine is a conventional machine without address space
// identifiers: homonyms make both the TLB and the virtual cache unusable
// across a context switch, so both are flushed on every switch — the
// regime the paper cites for the i860 (Section 2.2).
type FlushMachine struct {
	inner *ConventionalMachine
}

// NewFlush builds a flush machine. The configuration's cache must not use
// ASID tags (there is no ASID); NewFlush clears the flag.
func NewFlush(cfg ConvConfig, os MultiOS) *FlushMachine {
	cfg.Cache.ASIDTags = false
	cfg.CacheOrg = ConvCacheVIVTASID // flushing presumes the virtual cache
	return &FlushMachine{inner: NewConventional(cfg, os)}
}

// Name implements Machine.
func (m *FlushMachine) Name() string { return "flush" }

// Domain implements Machine.
func (m *FlushMachine) Domain() addr.DomainID { return m.inner.domain }

// Counters implements Machine.
func (m *FlushMachine) Counters() *stats.Counters { return &m.inner.ctrs }

// Cycles implements Machine.
func (m *FlushMachine) Cycles() uint64 { return m.inner.cycles.Total() }

// Costs implements Machine.
func (m *FlushMachine) Costs() cpu.CostModel { return m.inner.cfg.Costs }

// Cache exposes the data cache for inspection.
func (m *FlushMachine) Cache() *cache.VirtualCache { return m.inner.cache }

// Inner exposes the wrapped conventional machine, through which the
// kernel's conventional engine performs TLB maintenance and the oracle
// inspects resident state. The flush machine shares the conventional
// machine's structures; only its switch behaviour differs.
func (m *FlushMachine) Inner() *ConventionalMachine { return m.inner }

// TLB exposes the TLB for inspection.
func (m *FlushMachine) TLB() *tlb.ASIDTLB { return m.inner.tlb }

// SwitchDomain implements Machine: everything goes.
func (m *FlushMachine) SwitchDomain(d addr.DomainID) {
	c := &m.inner.cfg.Costs
	if d == m.inner.domain {
		return
	}
	purged := m.inner.tlb.PurgeAll()
	flushed, dirty := m.inner.cache.FlushAll()
	cost := c.RegisterWrite +
		uint64(purged)*c.PurgeEntry +
		uint64(flushed)*c.CacheLineFlush +
		uint64(dirty)*c.Writeback
	m.inner.domain = d
	m.inner.hSwitches.Inc()
	m.inner.hSwitchCycles.Add(cost)
	m.inner.cycles.Add(cost)
}

// Access implements Machine. With the TLB and cache flushed per switch,
// every ASID sees only its own entries; the inner machine's ASID tagging
// is harmless because homonymous entries never coexist.
func (m *FlushMachine) Access(va addr.VA, kind addr.AccessKind) cpu.Outcome {
	return m.inner.Access(va, kind)
}

var _ Machine = (*FlushMachine)(nil)
