package kernel

import (
	"repro/internal/addr"
	"repro/internal/smp"
)

// The sharer directory tracks, per domain and per page, which CPUs
// hold hardware entries — the precise-targeting replacement for the
// old monotonic residency masks. It is fed from two sides:
//
//   - Installs: the machines notify the kernel (machine.ResidencyObserver)
//     whenever hardware installs an entry on the executing CPU, and
//     device agents (iommu.OS) on their own seat, adding the seat to the
//     domain's residency set and/or the page's sharer set, which lives
//     in the page's record in its segment.
//   - Withdrawals: a CPU leaves sets only when the kernel can prove it
//     holds nothing the set stands for — a bulk invalidation
//     (purgeSeat/rejoin), a flush-model switch-away, or a removal-kind
//     shootdown apply after which a hardware scan finds no entry of the
//     domain left (withdrawIfEmpty).
//
// The invariant is superset semantics: every CPU holding a live entry
// is in the corresponding set; a set may conservatively name CPUs that
// aged the entry out. Per-op IPI count therefore tracks sharer count
// (bounded by installs since the last withdrawal), never the domain's
// lifetime CPU history.

// NoteProtInstall implements machine.ResidencyObserver: the current
// CPU installed a protection entry for (d, vpn).
func (k *Kernel) NoteProtInstall(d addr.DomainID, vpn addr.VPN) {
	if dom := k.doms.get(d); dom != nil {
		dom.cpus.Add(k.cur)
	}
	k.notePage(k.cur, vpn)
}

// NotePageInstall implements machine.ResidencyObserver: the current
// CPU installed translation state for vpn.
func (k *Kernel) NotePageInstall(vpn addr.VPN) { k.notePage(k.cur, vpn) }

// NoteDeviceInstall implements iommu.OS: device agents record their
// IOTLB installs under their own seat, so domain- and page-keyed
// shootdowns target them precisely.
func (k *Kernel) NoteDeviceInstall(seat int, d addr.DomainID, vpn addr.VPN) {
	if dom := k.doms.get(d); dom != nil {
		dom.cpus.Add(seat)
	}
	k.notePage(seat, vpn)
}

// notePage adds seat to the sharer set of vpn's record (none exists
// outside live segments, where no refill installs anything).
func (k *Kernel) notePage(seat int, vpn addr.VPN) {
	if p := k.pageRecord(vpn); p != nil {
		p.sharers.Add(seat)
	}
}

// withdrawSeat removes seat i from every directory set: every domain's
// residency set and every page's sharer set. Callers must have proven
// the seat holds no hardware entries (bulk invalidation, or a
// flush-model switch that purges everything).
func (k *Kernel) withdrawSeat(i int) {
	k.doms.forEach(func(d *Domain) { d.cpus.Remove(i) })
	for _, s := range k.segOrder {
		for j := range s.pages {
			s.pages[j].sharers.Remove(i)
		}
	}
}

// withdrawIfEmpty removes seat t from domain d's residency set when
// t's hardware provably holds no entry naming d any more
// (machine.Seat.HasDomainEntries; called after removal-kind shootdown
// applies).
func (k *Kernel) withdrawIfEmpty(t int, d addr.DomainID) {
	if k.seats[t].HasDomainEntries(d) {
		return
	}
	if dom := k.doms.get(d); dom != nil {
		dom.cpus.Remove(t)
	}
}

// shootPage applies r locally and enqueues it to every seat in page
// p's sharer set except the current one — page-scoped targeting for
// translation maintenance (unmap, purge-page, group-update). Seats that
// never installed state for the page are skipped entirely (none can
// hold an entry that was never installed).
func (k *Kernel) shootPage(p *page, r smp.Request) {
	k.mach.Apply(r)
	if k.shoot != nil {
		k.shoot.EnqueueSet(&p.sharers, k.cur, &r)
	}
}

// shootRange applies r locally and enqueues it to the union of the
// sharer sets of every page of segment s (range-scoped purges on
// segment destruction).
func (k *Kernel) shootRange(s *Segment, r smp.Request) {
	k.mach.Apply(r)
	if k.shoot == nil {
		return
	}
	var union smp.CPUSet
	for i := range s.pages {
		union.Union(&s.pages[i].sharers)
	}
	k.shoot.EnqueueSet(&union, k.cur, &r)
}

// DomainResident reports whether the directory lists seat t in domain
// d's residency set (oracle audit hook).
func (k *Kernel) DomainResident(d addr.DomainID, t int) bool {
	dom := k.doms.get(d)
	return dom != nil && dom.cpus.Has(t)
}

// PageResident reports whether the directory lists seat t in vpn's
// sharer set (oracle audit hook).
func (k *Kernel) PageResident(vpn addr.VPN, t int) bool {
	p := k.pageRecord(vpn)
	return p != nil && p.sharers.Has(t)
}
