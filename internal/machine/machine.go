// Package machine composes the hardware structures into the four machine
// organizations the paper compares:
//
//   - PLBMachine (Figure 1): PD-ID register + protection lookaside buffer
//     probed in parallel with a virtually indexed, virtually tagged data
//     cache; a translation-only TLB at the second level, off the critical
//     path, consulted only on cache misses and writebacks.
//
//   - PGMachine (Figure 2): PA-RISC style. An on-chip TLB carrying
//     translation + access identifier (AID) + rights is probed on every
//     reference, followed sequentially by a check of the AID against the
//     current domain's page-group set (PID registers or an LRU group
//     cache).
//
//   - ConventionalMachine (Section 3.1): an ASID-tagged combined TLB over
//     per-address-space linear page tables, with a VIVT cache whose tags
//     are extended with the ASID. The baseline for the TLB-duplication and
//     virtual-cache experiments.
//
//   - The flush machine (NewFlush): a ConventionalMachine without ASIDs
//     that must flush the TLB and data cache on every context switch
//     (the i860 regime).
//
// Machines are purely architectural: they count structure events and
// charge cycles, trapping to an OS interface to resolve misses. They never
// move data; the kernel performs functional reads/writes against physical
// memory after the machine approves an access. Protection changes reach a
// machine as smp.Requests through one Apply per organization, the same
// contract device translation agents (internal/iommu) honour, so which
// hardware operations a change costs on which organization (Table 1,
// Section 4.1) is stated once, next to the structures it touches.
package machine

import (
	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/ptable"
	"repro/internal/smp"
	"repro/internal/stats"
)

// OS is the software interface single address space machines trap to on
// structure misses. The kernel implements it.
type OS interface {
	// Translate returns the global translation for vpn. ok is false if
	// the page is unmapped (page fault).
	Translate(vpn addr.VPN) (pfn addr.PFN, ok bool)
	// ResolveRights returns domain d's access rights to vpn from the
	// kernel's protection tables. ok is false if the kernel has no record
	// of the page at all (an addressing error, not a protection fault).
	// cacheable reports whether the kernel holds a protection record for
	// (d, page) — attachment or override — that protection hardware may
	// cache. A domain with no record resolves to (None, false, true):
	// the access faults but nothing is installed, so a later grant
	// (attach) needs no hardware invalidation.
	ResolveRights(d addr.DomainID, vpn addr.VPN) (r addr.Rights, cacheable, ok bool)
	// PageInfo returns the page-group identifier and group rights of vpn
	// (page-group machine TLB refill). ok is false for unknown pages.
	PageInfo(vpn addr.VPN) (aid addr.GroupID, r addr.Rights, ok bool)
	// DomainGroup reports whether domain d may access page-group g, and
	// whether the domain's writes to the group are disabled.
	DomainGroup(d addr.DomainID, g addr.GroupID) (ok, writeDisabled bool)
	// DomainGroups lists all groups accessible to d, for eager page-group
	// cache reload on domain switches (Section 4.1.4).
	DomainGroups(d addr.DomainID) []GroupAccess
}

// ProtShifter is an optional OS extension for multiple protection page
// sizes (Section 4.3): when implemented, the PLB machine installs refill
// entries at the shift the kernel reports for (domain, page) — a
// super-page entry for constant-rights segments, the base shift
// elsewhere. The shift must be one of the PLB's configured size classes.
type ProtShifter interface {
	ProtShift(d addr.DomainID, vpn addr.VPN) uint
}

// ResidencyObserver is an optional OS extension the machines notify
// when hardware installs an entry naming a domain or a page: the
// kernel's sharer directory records which CPU gained which state, so
// shootdowns can target only CPUs that actually hold an entry instead
// of every CPU a domain ever ran on. Installs happen on the executing
// CPU, so the observer attributes each note to its current CPU. Like
// ProtShifter, implementation is discovered by type assertion on the
// OS at construction; an OS that does not implement it costs nothing.
type ResidencyObserver interface {
	// NoteProtInstall records that the executing CPU installed a
	// protection entry for (d, vpn): PLB entry, ASID-tagged TLB entry.
	// It notes the page too, as NotePageInstall would, so an entry that
	// also carries the translation is reported once.
	NoteProtInstall(d addr.DomainID, vpn addr.VPN)
	// NotePageInstall records that the executing CPU installed
	// translation state for vpn (trans-TLB, PG-TLB entries).
	NotePageInstall(vpn addr.VPN)
}

// GroupAccess is one element of a domain's page-group set.
type GroupAccess struct {
	Group        addr.GroupID
	WriteDisable bool
}

// MultiOS is the software interface of the conventional multiple address
// space baselines: per-address-space page tables.
type MultiOS interface {
	// Walk performs a page table walk in address space as.
	Walk(as addr.ASID, vpn addr.VPN) (ptable.LinearPTE, bool)
}

// Seat is the maintenance contract of one shootdown seat: a CPU's
// machine, or a device translation agent (*iommu.Device). The kernel
// applies each protection change on the executing CPU and delivers the
// same request to remote seats, so local and remote maintenance cannot
// drift apart.
type Seat interface {
	// Apply performs r on the seat's structures, charging its
	// architectural cost, and returns how many resident entries it
	// invalidated, rewrote or loaded. Kinds the seat has no maintenance
	// for touch nothing and cost nothing.
	Apply(r smp.Request) int
	// PurgeAll bulk-invalidates every protection and translation entry
	// (and flushes a CPU's data cache: a virtually tagged line hits
	// without consulting translation), returning the entries dropped.
	// Afterwards the seat caches no authority at all.
	PurgeAll() int
	// HasDomainEntries reports whether the seat may still cache an
	// entry naming domain d — the scan that decides whether a removal
	// request dropped d's last entry there.
	HasDomainEntries(d addr.DomainID) bool
	// Cycles returns total cycles charged so far.
	Cycles() uint64
	// MaxCycles bounds what one Apply and one PurgeAll may charge from
	// the seat's current state.
	MaxCycles() (apply, purge uint64)
	// Entries calls fn for every unit of authority the seat caches,
	// until fn returns false. It reads without perturbing: no counter
	// or replacement state moves.
	Entries(fn func(Entry) bool)
}

// EntryKind classifies one unit of cached authority.
type EntryKind uint8

const (
	// DomainPage is Rights cached for (Domain, Page) at Shift: a PLB
	// entry. ASID-tagged TLB and domain-page IOTLB entries also carry
	// their Frame.
	DomainPage EntryKind = iota
	// Translation maps Page to Frame with no rights: the PLB machine's
	// second-level TLB.
	Translation
	// GroupPage maps Page to Frame and tags it with its page-group and
	// the group's shared Rights: page-group TLB and IOTLB entries.
	GroupPage
	// Membership lets Domain, the executing or on-behalf domain, reach
	// Group: a page-group checker entry or a device's group set.
	Membership
	// CacheLine is a virtually tagged data-cache line of Page. It holds
	// no rights, but it hits without consulting translation.
	CacheLine
)

// Entry is one normalized unit of cached authority (Seat.Entries).
// Fields its kind does not use are zero.
type Entry struct {
	Kind EntryKind
	// Where labels the holding structure: "plb", "trans-tlb",
	// "pg-tlb", "checker", "asid-tlb", "iotlb", "iotlb-group" or
	// "cache".
	Where  string
	Domain addr.DomainID
	// Page is the page number at Shift: the entry covers
	// [Page<<Shift, (Page+1)<<Shift). Only PLB entries use a shift
	// other than the translation page shift.
	Page         uint64
	Shift        uint
	Group        addr.GroupID
	Rights       addr.Rights
	WriteDisable bool
	// Frame is the cached translation, present when HasFrame is set.
	Frame    addr.PFN
	HasFrame bool
}

// entrySink feeds a machine's structures to one Entries callback in
// turn; once the callback returns false, every later put refuses, so
// each remaining structure's walk stops at its first entry.
type entrySink struct {
	fn   func(Entry) bool
	done bool
}

func (s *entrySink) put(e Entry) bool {
	if !s.done && !s.fn(e) {
		s.done = true
	}
	return !s.done
}

// cacheLines puts every resident line of a virtually tagged data cache.
func (s *entrySink) cacheLines(c *cache.Cache, geo addr.Geometry) {
	c.ForEachLine(func(va addr.VA) bool {
		return s.put(Entry{Kind: CacheLine, Where: "cache", Page: uint64(geo.PageNumber(va)), Shift: geo.Shift()})
	})
}

// Machine is the interface common to all four organizations, sufficient
// for trace-driven experiments and the kernel's access path.
type Machine interface {
	Seat
	// Name identifies the organization ("plb", "page-group", ...).
	Name() string
	// SwitchDomain makes d the executing protection domain, performing
	// whatever hardware actions the model requires (a register write on
	// the PLB machine; a page-group cache purge and reload on the
	// page-group machine; a full flush on the flush machine).
	SwitchDomain(d addr.DomainID)
	// Domain returns the executing domain.
	Domain() addr.DomainID
	// Access issues one memory reference at va. Structure misses that
	// hardware and kernel resolve transparently (refills) are handled
	// inside, with their traps counted and charged; only faults needing
	// policy (protection, page, addressing) surface in the Outcome.
	Access(va addr.VA, kind addr.AccessKind) cpu.Outcome
	// Counters exposes the machine's event counters.
	Counters() *stats.Counters
	// Costs returns the machine's cost model.
	Costs() cpu.CostModel
}

// Counter names shared across machines, so experiment code can tabulate
// uniformly.
const (
	CtrAccesses        = "access.total"
	CtrStores          = "access.stores"
	CtrTrapPLBRefill   = "trap.plb_refill"
	CtrTrapTLBRefill   = "trap.tlb_refill"
	CtrTrapPGRefill    = "trap.pg_refill"
	CtrFaultProt       = "fault.protection"
	CtrFaultUnmapped   = "fault.page_unmapped"
	CtrFaultAddressing = "fault.no_authority"
	CtrSwitches        = "switch.count"
	CtrSwitchCycles    = "switch.cycles"
)
