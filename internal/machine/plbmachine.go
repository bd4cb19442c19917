package machine

import (
	"repro/internal/addr"
	"repro/internal/assoc"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/plb"
	"repro/internal/smp"
	"repro/internal/stats"
	"repro/internal/tlb"
)

// PLBConfig configures a PLBMachine.
type PLBConfig struct {
	// Costs is the cycle cost model.
	Costs cpu.CostModel
	// PLB configures the protection lookaside buffer.
	PLB plb.Config
	// TLB configures the second-level, translation-only TLB. Being
	// off-chip it can be large (Section 3.2.1).
	TLB assoc.Config
	// Cache configures the VIVT data cache.
	Cache cache.Config
	// Geometry is the translation page geometry.
	Geometry addr.Geometry
}

// DefaultPLBConfig returns the baseline PLB machine used in
// EXPERIMENTS.md: 128-entry PLB, 1024-entry off-chip TLB, 64 KB cache.
func DefaultPLBConfig() PLBConfig {
	return PLBConfig{
		Costs:    cpu.DefaultCosts(),
		PLB:      plb.DefaultConfig(),
		TLB:      assoc.Config{Sets: 256, Ways: 4, Policy: assoc.LRU},
		Cache:    cache.DefaultConfig(),
		Geometry: addr.BaseGeometry(),
	}
}

// PLBMachine is the domain-page model implementation of Figure 1.
type PLBMachine struct {
	cfg    PLBConfig
	os     OS
	obs    ResidencyObserver // non-nil when the OS tracks sharers
	domain addr.DomainID     // the PD-ID register

	plb   *plb.PLB
	tlb   *tlb.TLB[addr.VPN, tlb.TransEntry]
	cache *cache.Cache

	ctrs   stats.Counters
	cycles stats.Cycles

	// Pre-resolved handles for the shared counter names bumped on the
	// reference path (resolved once in NewPLB, a single array add per
	// event thereafter).
	hAccesses, hStores, hSwitches, hSwitchCycles   stats.Handle
	hTrapPLB, hTrapTLB, hFaultProt, hFaultUnmapped stats.Handle
	hFaultAddressing                               stats.Handle
}

// NewPLB builds a PLB machine over the given OS. An invalid PLB
// configuration returns the *plb.ConfigError; MustPLB panics instead
// for known-good configurations (the defaults, test fixtures).
func NewPLB(cfg PLBConfig, os OS) (*PLBMachine, error) {
	m := &PLBMachine{cfg: cfg, os: os}
	m.obs, _ = os.(ResidencyObserver)
	p, err := plb.New(cfg.PLB, &m.ctrs, "plb")
	if err != nil {
		return nil, err
	}
	m.plb = p
	m.tlb = tlb.NewTrans(cfg.TLB, &m.ctrs, "tlb")
	m.cache = cache.New(cfg.Cache, &m.ctrs, "cache")
	m.hAccesses = m.ctrs.Handle(CtrAccesses)
	m.hStores = m.ctrs.Handle(CtrStores)
	m.hSwitches = m.ctrs.Handle(CtrSwitches)
	m.hSwitchCycles = m.ctrs.Handle(CtrSwitchCycles)
	m.hTrapPLB = m.ctrs.Handle(CtrTrapPLBRefill)
	m.hTrapTLB = m.ctrs.Handle(CtrTrapTLBRefill)
	m.hFaultProt = m.ctrs.Handle(CtrFaultProt)
	m.hFaultUnmapped = m.ctrs.Handle(CtrFaultUnmapped)
	m.hFaultAddressing = m.ctrs.Handle(CtrFaultAddressing)
	return m, nil
}

// MustPLB is NewPLB for configurations known to be valid; it panics on
// a config error.
func MustPLB(cfg PLBConfig, os OS) *PLBMachine {
	m, err := NewPLB(cfg, os)
	if err != nil {
		panic(err)
	}
	return m
}

// Name implements Machine.
func (m *PLBMachine) Name() string { return "plb" }

// Domain implements Machine.
func (m *PLBMachine) Domain() addr.DomainID { return m.domain }

// Counters implements Machine.
func (m *PLBMachine) Counters() *stats.Counters { return &m.ctrs }

// Cycles implements Machine.
func (m *PLBMachine) Cycles() uint64 { return m.cycles.Total() }

// Costs implements Machine.
func (m *PLBMachine) Costs() cpu.CostModel { return m.cfg.Costs }

// PLB exposes the protection lookaside buffer for inspection by
// experiments.
func (m *PLBMachine) PLB() *plb.PLB { return m.plb }

// TLB exposes the second-level TLB for inspection.
func (m *PLBMachine) TLB() *tlb.TLB[addr.VPN, tlb.TransEntry] { return m.tlb }

// Cache exposes the data cache for inspection.
func (m *PLBMachine) Cache() *cache.Cache { return m.cache }

// SwitchDomain implements Machine. On the PLB machine a protection domain
// switch writes one control register — the PD-ID — and nothing else: no
// PLB, TLB or cache state is purged (Section 4.1.4).
func (m *PLBMachine) SwitchDomain(d addr.DomainID) {
	m.domain = d
	m.hSwitches.Inc()
	m.hSwitchCycles.Add(m.cfg.Costs.RegisterWrite)
	m.cycles.Add(m.cfg.Costs.RegisterWrite)
}

// Access implements Machine: the Figure 1 reference path. The PLB and the
// VIVT cache are probed in parallel, so a PLB hit adds no latency beyond
// the cache access; translation happens only on cache misses and dirty
// writebacks, through the off-critical-path TLB.
func (m *PLBMachine) Access(va addr.VA, kind addr.AccessKind) cpu.Outcome {
	c := &m.cfg.Costs
	m.hAccesses.Inc()
	if kind == addr.Store {
		m.hStores.Inc()
	}
	m.cycles.Add(c.CacheHit) // cache + PLB probed in parallel

	// Protection: PLB lookup, refilled by the kernel on a miss.
	rights, hit := m.plb.Lookup(m.domain, va)
	if !hit {
		m.hTrapPLB.Inc()
		m.cycles.Add(c.Trap)
		resolved, cacheable, ok := m.os.ResolveRights(m.domain, m.cfg.Geometry.PageNumber(va))
		if !ok {
			m.hFaultAddressing.Inc()
			return cpu.Outcome{Fault: cpu.FaultNoAuthority}
		}
		if cacheable {
			// The kernel installs the resolved rights — including None,
			// so repeated illegal references by an attached domain fault
			// on a resident entry rather than re-resolving (e.g. the
			// GC's no-access from-space pages). Domains with no record
			// at all get nothing installed: a later grant must not have
			// to hunt down cached denials.
			shift := uint(m.cfg.Geometry.Shift())
			if ps, ok := m.os.(ProtShifter); ok {
				shift = ps.ProtShift(m.domain, m.cfg.Geometry.PageNumber(va))
			}
			m.plb.Insert(m.domain, va, shift, resolved)
			m.cycles.Add(c.Install)
			if m.obs != nil {
				m.obs.NoteProtInstall(m.domain, m.cfg.Geometry.PageNumber(va))
			}
		}
		rights = resolved
	}
	if !rights.Allows(kind) {
		m.hFaultProt.Inc()
		m.cycles.Add(c.Trap)
		return cpu.Outcome{Fault: cpu.FaultProtection}
	}

	// Data: VIVT cache; translation only on a miss.
	if m.cache.Access(0, va, kind == addr.Store) {
		return cpu.Outcome{}
	}
	pfn, ok := m.translate(m.cfg.Geometry.PageNumber(va))
	if !ok {
		m.hFaultUnmapped.Inc()
		return cpu.Outcome{Fault: cpu.FaultPageUnmapped}
	}
	m.cycles.Add(c.CacheFill)
	if wroteBack := m.cache.Fill(0, va, pfn, kind == addr.Store); wroteBack {
		// Writing back a dirty victim needs its translation: one more
		// off-chip TLB reference.
		m.cycles.Add(c.Writeback + c.OffChipTLB)
	}
	return cpu.Outcome{}
}

// translate consults the off-chip TLB, trapping to the kernel on a miss.
func (m *PLBMachine) translate(vpn addr.VPN) (addr.PFN, bool) {
	c := &m.cfg.Costs
	m.cycles.Add(c.OffChipTLB)
	if e, ok := m.tlb.Lookup(vpn); ok {
		return e.PFN, true
	}
	m.hTrapTLB.Inc()
	m.cycles.Add(c.Trap + c.PTWalk)
	pfn, ok := m.os.Translate(vpn)
	if !ok {
		return 0, false
	}
	m.tlb.Insert(vpn, tlb.TransEntry{PFN: pfn})
	m.cycles.Add(c.Install)
	if m.obs != nil {
		m.obs.NotePageInstall(vpn)
	}
	return pfn, true
}

// Apply implements Seat with the domain-page maintenance primitives of
// Table 1: single-entry PLB updates and invalidations, entry-by-entry
// PLB scans for range, domain and page purges, a flash clear, and unmap.
func (m *PLBMachine) Apply(r smp.Request) int {
	c := &m.cfg.Costs
	va := m.cfg.Geometry.Base(r.VPN)
	switch r.Kind {
	case smp.InvalRights:
		// Drop the (domain, page) entry at every configured size class.
		if m.plb.Invalidate(r.Domain, va) {
			m.cycles.Add(c.PurgeEntry)
			return 1
		}
	case smp.UpdateRights:
		// The cheap single-entry update of Section 4.1.2. A non-resident
		// entry is left alone: the new rights fault in lazily.
		if m.plb.Update(r.Domain, va, r.Rights) {
			m.cycles.Add(c.Install)
			return 1
		}
	case smp.RangeRights:
		// The segment-wide per-domain rights change (GC flip, checkpoint
		// restrict).
		return m.scan(m.plb.UpdateRange(r.Domain, r.Range.Start, r.Range.Length, r.Rights))
	case smp.RangeDetach:
		// The segment-detach scan of Section 4.1.1.
		return m.scan(m.plb.PurgeRange(r.Domain, r.Range.Start, r.Range.Length))
	case smp.RangePurge:
		// Segment destruction drops every domain's entries in the range;
		// its scan is not charged.
		return m.plb.PurgeRangeAll(r.Range.Start, r.Range.Length)
	case smp.PurgeAllProt:
		// The cheap but indiscriminate detach alternative of Section
		// 4.1.1: one flash clear, after which every domain's rights must
		// fault back in.
		m.cycles.Add(c.RegisterWrite)
		return m.plb.PurgeAll()
	case smp.DomainPurge:
		return m.scan(m.plb.PurgeDomain(r.Domain))
	case smp.PurgePage:
		// Every domain's entries for the page (a rights change for all
		// domains at once).
		return m.scan(m.plb.PurgePage(va))
	case smp.Unmap:
		// Section 4.1.3: the translation goes and the page's lines are
		// flushed. The PLB needs no maintenance — stale entries age out,
		// and any touch faults on the missing translation.
		n := 0
		if m.tlb.Invalidate(r.VPN) {
			m.cycles.Add(c.PurgeEntry)
			n = 1
		}
		_, dirty := m.cache.FlushPage(va, m.cfg.Geometry)
		m.cycles.Add(m.cache.LinesPerPage(m.cfg.Geometry)*c.CacheLineFlush + uint64(dirty)*c.Writeback)
		return n
	}
	return 0
}

// scan charges an entry-by-entry PLB scan, which inspects every slot
// whether valid or not (Section 4.1.1 "inspect each entry"), and passes
// through the number of entries it touched.
func (m *PLBMachine) scan(n int) int {
	m.cycles.Add(uint64(m.plb.Capacity()) * m.cfg.Costs.PurgeEntry)
	return n
}

// PurgeAll implements Seat: the PLB is flash-cleared, the translation
// TLB purged and every data-cache line flushed.
func (m *PLBMachine) PurgeAll() int {
	c := &m.cfg.Costs
	n := m.plb.PurgeAll() + m.tlb.PurgeAll()
	flushed, dirty := m.cache.FlushAll()
	m.cycles.Add(c.RegisterWrite + uint64(flushed)*c.CacheLineFlush + uint64(dirty)*c.Writeback)
	return n
}

// MaxCycles implements Seat. The dearest Apply is a single-entry
// install, a flash clear, a full PLB scan, or an unmap flushing a page
// of dirty lines; PurgeAll at worst flushes a cache full of dirty lines.
func (m *PLBMachine) MaxCycles() (apply, purge uint64) {
	c := &m.cfg.Costs
	geo := m.cfg.Geometry
	unmap := c.PurgeEntry + m.cache.LinesPerPage(geo)*c.CacheLineFlush + m.cache.PageLinesBound(geo)*c.Writeback
	apply = max(c.Install, c.RegisterWrite, uint64(m.plb.Capacity())*c.PurgeEntry, unmap)
	return apply, c.RegisterWrite + uint64(m.cache.Capacity())*(c.CacheLineFlush+c.Writeback)
}

// HasDomainEntries implements Seat: whether domain d's PLB chain is
// non-empty.
func (m *PLBMachine) HasDomainEntries(d addr.DomainID) bool { return m.plb.HasDomain(d) }

// Entries implements Seat: PLB entries at their own shift, then
// translation-TLB entries and data-cache lines.
func (m *PLBMachine) Entries(fn func(Entry) bool) {
	s := entrySink{fn: fn}
	shift := m.cfg.Geometry.Shift()
	m.plb.ForEach(func(k plb.Key, r addr.Rights) bool {
		return s.put(Entry{Kind: DomainPage, Where: "plb", Domain: k.Domain, Page: k.Page, Shift: uint(k.Shift), Rights: r})
	})
	m.tlb.ForEach(func(vpn addr.VPN, e tlb.TransEntry) bool {
		return s.put(Entry{Kind: Translation, Where: "trans-tlb", Page: uint64(vpn), Shift: shift, Frame: e.PFN, HasFrame: true})
	})
	s.cacheLines(m.cache, m.cfg.Geometry)
}

var _ Machine = (*PLBMachine)(nil)
