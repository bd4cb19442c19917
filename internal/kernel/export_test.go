package kernel

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/pgroup"
)

// SetIDLimits narrows the domain and group ID allocators to the given
// maxima (zero keeps the ID type's natural bound), so a test reaches
// the exhaustion boundary without minting tens of thousands of IDs; the
// recycling free lists are unaffected.
func (k *Kernel) SetIDLimits(maxDomain addr.DomainID, maxGroup addr.GroupID) {
	k.maxDomain = maxDomain
	k.maxGroup = maxGroup
}

// FreeDomainIDs returns the number of destroyed domain IDs awaiting
// recycling.
func (k *Kernel) FreeDomainIDs() int { return len(k.freeDomains) }

// FreeGroupIDs returns the number of destroyed page-group IDs awaiting
// recycling (page-group model only).
func (k *Kernel) FreeGroupIDs() int { return len(k.freeGroups) }

// ExecutionSite returns domain d's current execution site.
func (k *Kernel) ExecutionSite(d *Domain) addr.VA { return d.execSite }

// OnBackingStore reports whether the page was paged out and its contents
// live in the paging backend.
func (k *Kernel) OnBackingStore(vpn addr.VPN) bool {
	p := k.pageRecord(vpn)
	return p != nil && p.onDisk
}

// PendingShootdowns returns the number of requests queued for seat t;
// zero on a uniprocessor.
func (k *Kernel) PendingShootdowns(t int) int {
	if k.shoot == nil {
		return 0
	}
	return k.shoot.Pending(t)
}

// DeviceOrg is the IOTLB organization a kernel of model m gives its
// devices.
var DeviceOrg = deviceOrg

// Group returns the segment's primary page-group (page-group model;
// zero under domain-page).
func (s *Segment) Group() addr.GroupID { return s.group }

// DiskBlocks counts the blocks the default pager's disk holds for s's
// pages.
func (k *Kernel) DiskBlocks(s *Segment) int {
	n := 0
	for i := uint64(0); i < s.NumPages(); i++ {
		if _, err := k.disk.Peek(uint64(s.PageVPN(i))); err == nil {
			n++
		}
	}
	return n
}

// CheckPageGroupBookkeeping cross-checks the page-group engine's dense
// bookkeeping against the kernel's authoritative tables (nil under the
// other models). Membership lives only in the domains' group sets, so:
//
//   - every group a live domain holds is a live segment's primary group
//     or a live derived group, and no pooled (destroyed) domain holds a
//     group;
//   - every derived group's page count equals the page records parked in
//     it;
//   - no number on the group free list is held by a domain, a page, a
//     segment or a live derived record;
//   - every signature-index entry names a live derived group made under
//     that signature;
//   - every indexed group the reuse rule would still accept — as many of
//     its live holders as it was granted to have not forked since it was
//     made — has no other holder, and its holders hash to its signature:
//     the premise reusable rests on.
func (k *Kernel) CheckPageGroupBookkeeping() error {
	e, ok := k.engine.(*pgEngine)
	if !ok {
		return nil
	}
	primary := make(map[addr.GroupID]bool)
	for _, s := range k.segOrder {
		primary[s.group] = true
	}
	held := make(map[addr.GroupID][]*Domain)
	var err error
	k.doms.forEach(func(d *Domain) {
		d.groups.ForEach(func(g addr.GroupID, _ bool) {
			held[g] = append(held[g], d)
			if err == nil && !primary[g] && e.derivedRec(g) == nil {
				err = fmt.Errorf("domain %d holds group %d, neither a live primary nor a live derived group", d.ID, g)
			}
		})
	})
	if err != nil {
		return err
	}
	for _, d := range k.freeDomains {
		if n := d.groups.Count(); n > 0 {
			return fmt.Errorf("pooled domain %d still holds %d groups", d.ID, n)
		}
	}
	pages := make(map[addr.GroupID]int)
	for _, s := range k.segOrder {
		for i := range s.pages {
			pages[s.pages[i].group]++
		}
	}
	for i := range e.groups {
		if r := &e.groups[i]; r.derived && r.pages != pages[addr.GroupID(i)] {
			return fmt.Errorf("group %d counts %d pages, %d records point at it", i, r.pages, pages[addr.GroupID(i)])
		}
	}
	for _, g := range k.freeGroups {
		switch {
		case len(held[g]) > 0:
			return fmt.Errorf("free group %d held by %d domains", g, len(held[g]))
		case pages[g] > 0:
			return fmt.Errorf("free group %d holds %d pages", g, pages[g])
		case primary[g]:
			return fmt.Errorf("free group %d is a live segment's primary group", g)
		case e.derivedRec(g) != nil:
			return fmt.Errorf("free group %d has a live derived record", g)
		}
	}
	for sig, g := range e.sigIndex {
		r := e.derivedRec(g)
		if r == nil || r.sig != sig || r.holders == 0 {
			return fmt.Errorf("signature %#x indexes group %d, which was not made under it", sig, g)
		}
		var holders pgroup.Membership[addr.DomainID]
		unforked := 0
		for _, d := range held[g] {
			_, wd := d.groups.Get(g)
			holders.Put(d.ID, wd)
			if d.forkedAt < r.made {
				unforked++
			}
		}
		hash := sigSeed(r.seg)
		holders.ForEach(func(id addr.DomainID, wd bool) { hash = sigStep(hash, id, wd) })
		if unforked == r.holders && (holders.Count() != r.holders || hash != sig) {
			return fmt.Errorf("group %d is reusable, but its %d live holders do not hash to its signature under %d holders",
				g, holders.Count(), r.holders)
		}
	}
	return nil
}

// CheckAttachmentBookkeeping cross-checks the two sides of the
// attachment relation, each domain's vector and each segment's domain
// bitset:
//
//   - every live domain's vector is strictly ascending by segment ID, and
//     names only live segments whose bitsets hold the domain;
//   - every bit of a live segment's bitset names a live domain whose
//     vector holds that segment;
//   - pooled (destroyed) domain structs hold no entries.
func (k *Kernel) CheckAttachmentBookkeeping() error {
	var err error
	k.doms.forEach(func(d *Domain) {
		for i, a := range d.attached {
			switch {
			case err != nil:
			case i > 0 && d.attached[i-1].seg.ID >= a.seg.ID:
				err = fmt.Errorf("domain %d's attachments are out of order at %d: segment %d after %d",
					d.ID, i, a.seg.ID, d.attached[i-1].seg.ID)
			case k.FindSegment(a.seg.Base()) != a.seg:
				err = fmt.Errorf("domain %d is attached to segment %d, which is not live", d.ID, a.seg.ID)
			case !a.seg.attached.Has(int(d.ID)):
				err = fmt.Errorf("domain %d is attached to segment %d, whose bitset lacks it", d.ID, a.seg.ID)
			}
		}
	})
	if err != nil {
		return err
	}
	for _, s := range k.segOrder {
		s.attached.ForEach(func(id int) {
			if err != nil {
				return
			}
			if d := k.doms.get(addr.DomainID(id)); d == nil {
				err = fmt.Errorf("segment %d lists domain %d, which is not live", s.ID, id)
			} else if _, ok := d.Attached(s); !ok {
				err = fmt.Errorf("segment %d lists domain %d, whose vector lacks it", s.ID, id)
			}
		})
		if err != nil {
			return err
		}
	}
	for _, d := range k.freeDomains {
		if n := len(d.attached); n > 0 {
			return fmt.Errorf("pooled domain %d still holds %d attachments", d.ID, n)
		}
	}
	return nil
}

// CheckTranslationBookkeeping cross-checks the translations the page
// records hold against physical memory:
//
//   - no frame is mapped by two pages;
//   - no page is both mapped and on the backing store, and no unmapped
//     page is dirty;
//   - the frames in use are as many as the mapped pages.
func (k *Kernel) CheckTranslationBookkeeping() error {
	owner := make(map[addr.PFN]addr.VPN)
	for _, s := range k.segOrder {
		for i := range s.pages {
			p, vpn := &s.pages[i], s.PageVPN(uint64(i))
			switch {
			case p.mapped && p.onDisk:
				return fmt.Errorf("page %#x is both mapped and on disk", uint64(vpn))
			case !p.mapped && p.dirty:
				return fmt.Errorf("page %#x is dirty but unmapped", uint64(vpn))
			case !p.mapped:
				continue
			}
			if prior, ok := owner[p.frame]; ok {
				return fmt.Errorf("frame %d is mapped by pages %#x and %#x", p.frame, uint64(prior), uint64(vpn))
			}
			owner[p.frame] = vpn
		}
	}
	if n := k.memory.FramesInUse(); n != len(owner) {
		return fmt.Errorf("%d frames in use, %d mapped pages", n, len(owner))
	}
	return nil
}

// DropPageSharer removes seat t from vpn's sharer set, so whatever the
// seat caches for the page escapes page-targeted shootdowns: the fault
// the oracle's directory audit exists to catch.
func (k *Kernel) DropPageSharer(vpn addr.VPN, t int) {
	if p := k.pageRecord(vpn); p != nil {
		p.sharers.Remove(t)
	}
}

// ExecutingSeats lists, ascending, the seats the kernel's executing-seat
// set holds for domain id: the set shootExecuting targets.
func (k *Kernel) ExecutingSeats(id addr.DomainID) []int {
	var seats []int
	if int(id) < len(k.executing) {
		k.executing[id].ForEach(func(t int) { seats = append(seats, t) })
	}
	return seats
}
