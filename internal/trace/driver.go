package trace

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/ptable"
)

// OpenOS is a permissive OS for trace-driven machine experiments: every
// referenced page is mapped on demand (one global translation) and every
// domain holds read-write-execute rights everywhere. With authority out
// of the picture, the measured traffic is pure structure behaviour
// (capacity, duplication, switch costs).
//
// OpenOS implements both machine.OS (single address space machines, one
// shared translation) and machine.MultiOS (conventional machines, one
// linear-table view per address space, duplicating the mapping per space
// exactly as a multiple-address-space OS must).
type OpenOS struct {
	geo      addr.Geometry
	nextPFN  addr.PFN
	trans    map[addr.VPN]addr.PFN
	groupOf  func(addr.VPN) addr.GroupID
	perSpace map[asidVPN]ptable.LinearPTE
}

type asidVPN struct {
	as  addr.ASID
	vpn addr.VPN
}

// NewOpenOS creates an OpenOS. groupOf assigns page-group identifiers to
// pages for the page-group machine (nil means every page is in the global
// group 0).
func NewOpenOS(geo addr.Geometry, groupOf func(addr.VPN) addr.GroupID) *OpenOS {
	return &OpenOS{
		geo:      geo,
		trans:    make(map[addr.VPN]addr.PFN),
		groupOf:  groupOf,
		perSpace: make(map[asidVPN]ptable.LinearPTE),
	}
}

// Translate implements machine.OS.
func (o *OpenOS) Translate(vpn addr.VPN) (addr.PFN, bool) {
	if pfn, ok := o.trans[vpn]; ok {
		return pfn, true
	}
	pfn := o.nextPFN
	o.nextPFN++
	o.trans[vpn] = pfn
	return pfn, true
}

// ResolveRights implements machine.OS: open authority, always cacheable.
func (o *OpenOS) ResolveRights(addr.DomainID, addr.VPN) (addr.Rights, bool, bool) {
	return addr.RWX, true, true
}

// PageInfo implements machine.OS.
func (o *OpenOS) PageInfo(vpn addr.VPN) (addr.GroupID, addr.Rights, bool) {
	g := addr.GlobalGroup
	if o.groupOf != nil {
		g = o.groupOf(vpn)
	}
	return g, addr.RWX, true
}

// DomainGroup implements machine.OS: every domain may use every group.
func (o *OpenOS) DomainGroup(addr.DomainID, addr.GroupID) (bool, bool) { return true, false }

// DomainGroups implements machine.OS. OpenOS cannot enumerate the groups
// a domain will use, so eager reload is unavailable (return nil).
func (o *OpenOS) DomainGroups(addr.DomainID) []machine.GroupAccess { return nil }

// Walk implements machine.MultiOS: each space maps each page privately to
// the same frame the global table would use (the conventional OS's
// duplicated view of shared memory).
func (o *OpenOS) Walk(as addr.ASID, vpn addr.VPN) (ptable.LinearPTE, bool) {
	key := asidVPN{as: as, vpn: vpn}
	if pte, ok := o.perSpace[key]; ok {
		return pte, true
	}
	pfn, _ := o.Translate(vpn)
	pte := ptable.LinearPTE{PFN: pfn, Rights: addr.RWX}
	o.perSpace[key] = pte
	return pte, true
}

var (
	_ machine.OS      = (*OpenOS)(nil)
	_ machine.MultiOS = (*OpenOS)(nil)
)

// Result is the outcome of replaying a trace.
type Result struct {
	// Records is the number of references replayed.
	Records int
	// Switches is the number of domain switches performed.
	Switches int
	// Cycles is the machine cycle total after the run.
	Cycles uint64
	// Counters is a snapshot of the machine counters after the run.
	Counters map[string]uint64
}

// Run replays records against m, switching domains whenever consecutive
// records differ. Faults are errors: trace experiments run with open
// authority, so nothing should fault.
func Run(m machine.Machine, records []Record) (Result, error) {
	res := Result{}
	cur := addr.DomainID(0)
	for i, r := range records {
		if r.Domain != cur {
			m.SwitchDomain(r.Domain)
			cur = r.Domain
			res.Switches++
		}
		out := m.Access(r.VA, r.Kind)
		if out.Fault != cpu.FaultNone {
			return res, fmt.Errorf("trace: record %d (%#x by %d): unexpected %v fault",
				i, uint64(r.VA), r.Domain, out.Fault)
		}
		res.Records++
	}
	res.Cycles = m.Cycles()
	res.Counters = m.Counters().Snapshot()
	return res, nil
}
