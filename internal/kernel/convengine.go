package kernel

import (
	"repro/internal/addr"
	"repro/internal/smp"
	"repro/internal/stats"
)

// convEngine drives the conventional (multiple address space) machine
// running this single address space kernel — the Section 3.1 scenario.
// Every protection operation must be repeated per address space: rights
// live in each space's TLB entries, so per-domain changes update one
// (ASID, page) entry but segment-wide changes walk the segment page by
// page, and translation changes must hunt down every space's duplicate.
type convEngine struct {
	k *Kernel

	hSlotsAllocated, hSlotsFreed, hPerPageOps stats.Handle
}

func newConvEngine(k *Kernel) *convEngine {
	return &convEngine{k: k,
		hSlotsAllocated: k.ctrs.Handle("conv.pte_slots_allocated"),
		hSlotsFreed:     k.ctrs.Handle("conv.pte_slots_freed"),
		hPerPageOps:     k.ctrs.Handle("conv.per_page_rights_ops"),
	}
}

func (e *convEngine) onCreateSegment(*Segment) error { return nil }

// onAttach is pure bookkeeping: per-space entries fault in via Walk. The
// kernel also accounts the per-space page-table slots a new attachment
// consumes (the linear-table space waste of Section 3.1). A renewed one
// keeps its slots and invalidates the entries holding the old rights,
// as a detach does.
func (e *convEngine) onAttach(d *Domain, s *Segment, _ addr.Rights, renewed bool) error {
	if renewed {
		e.invalidate(d, s)
	} else {
		e.hSlotsAllocated.Add(s.NumPages())
	}
	return nil
}

// onDetach invalidates the domain's TLB entries across the segment and
// frees its page-table slots.
func (e *convEngine) onDetach(d *Domain, s *Segment) {
	e.invalidate(d, s)
	e.hSlotsFreed.Add(s.NumPages())
}

// invalidate drops the domain's TLB entries across the segment, one
// (ASID, page) at a time.
func (e *convEngine) invalidate(d *Domain, s *Segment) {
	for i := uint64(0); i < s.NumPages(); i++ {
		e.k.shootDomain(d, smp.Request{Kind: smp.InvalRights, VPN: s.PageVPN(i)})
	}
}

// setPageRights updates the one resident (ASID, page) entry.
func (e *convEngine) setPageRights(d *Domain, vpn addr.VPN, r addr.Rights) error {
	e.k.shootDomain(d, smp.Request{Kind: smp.UpdateRights, VPN: vpn, Rights: r})
	return nil
}

// setSegmentRights must touch the domain's entry for every page of the
// segment — there is no segment-level hardware handle (Section 3.1).
func (e *convEngine) setSegmentRights(d *Domain, s *Segment, r addr.Rights) error {
	for i := uint64(0); i < s.NumPages(); i++ {
		e.k.shootDomain(d, smp.Request{Kind: smp.UpdateRights, VPN: s.PageVPN(i), Rights: r})
	}
	e.hPerPageOps.Add(s.NumPages())
	return nil
}

func (e *convEngine) onDestroySegment(s *Segment) {
	for i := range s.pages {
		e.k.shootPage(&s.pages[i], smp.Request{Kind: smp.PurgePage, VPN: s.PageVPN(uint64(i))})
	}
}

// onDestroyDomain retires the dying domain's whole address space: one
// ASID-wide TLB purge per sharer (purgeDomain) — the single place the
// conventional model beats its own per-page detach storm, because an
// exiting process's space dies wholesale. The linear page-table slots of
// every remaining attachment are freed with it.
func (e *convEngine) onDestroyDomain(d *Domain) {
	e.k.purgeDomain(d)
	if slots := e.attachedSlots(d); slots > 0 {
		e.hSlotsFreed.Add(slots)
	}
}

// onFork charges the child's linear page tables: a conventional kernel
// replicates a PTE slot per inherited page even when the parent's
// protection state is shared copy-on-write (the Section 3.1 space
// overhead the single-space models avoid).
func (e *convEngine) onFork(parent, child *Domain) {
	if slots := e.attachedSlots(child); slots > 0 {
		e.hSlotsAllocated.Add(slots)
	}
}

// attachedSlots counts the linear page-table slots d's attachments hold.
func (e *convEngine) attachedSlots(d *Domain) (slots uint64) {
	for _, a := range d.attached {
		slots += a.seg.NumPages()
	}
	return slots
}
