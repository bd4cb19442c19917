package machine

import (
	"repro/internal/addr"
	"repro/internal/assoc"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/plb"
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
	tlb   *tlb.TransTLB
	cache *cache.VirtualCache

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
	m.cache = cache.NewVirtual(cfg.Cache, &m.ctrs, "cache")
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
func (m *PLBMachine) TLB() *tlb.TransTLB { return m.tlb }

// Cache exposes the data cache for inspection.
func (m *PLBMachine) Cache() *cache.VirtualCache { return m.cache }

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

// Maintenance operations used by the kernel's domain-page protection
// engine. Each charges its architectural cost and returns the number of
// resident entries it touched, so the shootdown subsystem can attribute
// remote invalidation traffic precisely.

// UpdateRights rewrites the resident PLB entry for (d, va) if present —
// the cheap single-entry update of Section 4.1.2. When the entry is not
// resident nothing is done; the new rights will fault in lazily.
func (m *PLBMachine) UpdateRights(d addr.DomainID, va addr.VA, r addr.Rights) int {
	if m.plb.Update(d, va, r) {
		m.cycles.Add(m.cfg.Costs.Install)
		return 1
	}
	return 0
}

// InstallRights eagerly inserts a PLB entry (used when the kernel chooses
// to pre-load rather than fault-in, and by sub-page experiments that
// install at non-default shifts).
func (m *PLBMachine) InstallRights(d addr.DomainID, va addr.VA, shift uint, r addr.Rights) {
	m.plb.Insert(d, va, shift, r)
	m.cycles.Add(m.cfg.Costs.Install)
	if m.obs != nil {
		m.obs.NoteProtInstall(d, m.cfg.Geometry.PageNumber(va))
	}
}

// InvalidateRights drops the PLB entry for (d, va) if resident (at
// every configured size class).
func (m *PLBMachine) InvalidateRights(d addr.DomainID, va addr.VA) int {
	if m.plb.Invalidate(d, va) {
		m.cycles.Add(m.cfg.Costs.PurgeEntry)
		return 1
	}
	return 0
}

// UpdateRange rewrites all of d's resident PLB entries overlapping the
// range to the given rights — the segment-wide per-domain rights change of
// Table 1 (GC flip, checkpoint restrict). The whole PLB is scanned: an
// entry-by-entry hardware scan inspects every slot, valid or not
// (§4.1.1 "inspect each entry"), so the charge covers the full capacity.
func (m *PLBMachine) UpdateRange(d addr.DomainID, start addr.VA, length uint64, r addr.Rights) int {
	n := m.plb.UpdateRange(d, start, length, r)
	m.cycles.Add(uint64(m.plb.Capacity()) * m.cfg.Costs.PurgeEntry)
	return n
}

// PurgeAllPLB flash-clears the whole PLB in one operation — the cheap
// but indiscriminate detach alternative of Section 4.1.1 ("Purge the PLB
// or inspect each entry..."): every domain's rights must fault back in.
func (m *PLBMachine) PurgeAllPLB() int {
	n := m.plb.PurgeAll()
	m.cycles.Add(m.cfg.Costs.RegisterWrite)
	return n
}

// DetachRange purges all of d's PLB entries overlapping the range: the
// segment-detach scan of Section 4.1.1. Every PLB slot is inspected, so
// the scan costs capacity x per-entry purge regardless of occupancy.
func (m *PLBMachine) DetachRange(d addr.DomainID, start addr.VA, length uint64) int {
	n := m.plb.PurgeRange(d, start, length)
	m.cycles.Add(uint64(m.plb.Capacity()) * m.cfg.Costs.PurgeEntry)
	return n
}

// PurgeDomain drops every PLB entry of domain d — the domain-destroy
// scan. Like the other scan operations, every slot is inspected whether
// or not it belongs to d, so the charge covers the full capacity.
func (m *PLBMachine) PurgeDomain(d addr.DomainID) int {
	n := m.plb.PurgeDomain(d)
	m.cycles.Add(uint64(m.plb.Capacity()) * m.cfg.Costs.PurgeEntry)
	return n
}

// PurgePage removes every domain's PLB entries for the page holding va
// (used when rights change for all domains at once). Like the other scan
// operations this inspects every slot of the PLB.
func (m *PLBMachine) PurgePage(va addr.VA) int {
	n := m.plb.PurgePage(va)
	m.cycles.Add(uint64(m.plb.Capacity()) * m.cfg.Costs.PurgeEntry)
	return n
}

// UnmapPage destroys the translation for vpn: the TLB entry is
// invalidated and the page's lines are flushed from the data cache
// (Section 4.1.3). The PLB needs no maintenance — stale entries age out,
// and any touch faults on the missing translation.
func (m *PLBMachine) UnmapPage(vpn addr.VPN) int {
	c := &m.cfg.Costs
	n := 0
	if m.tlb.Invalidate(vpn) {
		m.cycles.Add(c.PurgeEntry)
		n = 1
	}
	flushed, dirty := m.cache.FlushPage(m.cfg.Geometry.Base(vpn), m.cfg.Geometry)
	m.cycles.Add(uint64(m.cache.LinesPerPage(m.cfg.Geometry)) * c.CacheLineFlush)
	m.cycles.Add(uint64(dirty) * c.Writeback)
	_ = flushed
	return n
}

// FlushDataCache flushes every line of the VIVT data cache, charging
// the per-line flush and writeback costs. Part of a bulk invalidation:
// a virtually-tagged line hits without consulting translation, so the
// proof that a purged CPU holds nothing must cover the cache, or a
// stale line would satisfy an access to a page that is no longer
// mapped.
func (m *PLBMachine) FlushDataCache() int {
	flushed, dirty := m.cache.FlushAll()
	m.cycles.Add(uint64(flushed)*m.cfg.Costs.CacheLineFlush + uint64(dirty)*m.cfg.Costs.Writeback)
	return flushed
}

// Geometry returns the machine's translation page geometry.
func (m *PLBMachine) Geometry() addr.Geometry { return m.cfg.Geometry }

var _ Machine = (*PLBMachine)(nil)
