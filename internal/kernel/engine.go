package kernel

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/addr"
	"repro/internal/machine"
	"repro/internal/smp"
	"repro/internal/stats"
)

// engine is the per-model protection policy: it translates the kernel's
// model-independent protection operations into the hardware manipulations
// of Table 1's two implementation columns.
type engine interface {
	// onCreateSegment assigns per-segment engine state; it may fail when
	// an architectural namespace (page-group numbers) is exhausted.
	onCreateSegment(s *Segment) error
	onAttach(d *Domain, s *Segment, r addr.Rights)
	onDetach(d *Domain, s *Segment)
	// setPageRights syncs hardware after domain d's rights to one page
	// changed in the kernel tables.
	setPageRights(d *Domain, vpn addr.VPN, r addr.Rights) error
	// setSegmentRights syncs hardware after domain d's rights to a whole
	// segment changed.
	setSegmentRights(d *Domain, s *Segment, r addr.Rights) error
	// onDestroySegment releases per-segment engine state (the segment is
	// already fully detached).
	onDestroySegment(s *Segment)
	// onDestroyDomain withdraws every hardware protection entry naming d
	// and scrubs engine bookkeeping of its ID — d's number is about to be
	// recycled, so nothing keyed by it may survive.
	onDestroyDomain(d *Domain)
	// onFork accounts engine-side state the child inherits with its
	// parent's attachments (hardware entries are faulted in lazily,
	// never copied).
	onFork(parent, child *Domain)
}

// --- Kernel-level protection operations (model-independent API) ---

// SetPageRights changes domain d's access rights to the single page
// holding va (Table 1: the per-domain, per-page operation that most
// sharply separates the two models, Section 4.1.2).
func (k *Kernel) SetPageRights(d *Domain, va addr.VA, r addr.Rights) error {
	vpn := k.geo.PageNumber(va)
	s := k.segmentOf(vpn)
	if s == nil {
		return ErrNoAuthority
	}
	k.overridesRW(d).Set(vpn, r)
	k.hSetPageRights.Inc()
	err := k.engine.setPageRights(d, vpn, r)
	k.flushIPIs()
	return err
}

// ClearPageRights removes domain d's per-page override, reverting the page
// to the domain's segment attachment rights.
func (k *Kernel) ClearPageRights(d *Domain, va addr.VA) error {
	vpn := k.geo.PageNumber(va)
	s := k.segmentOf(vpn)
	if s == nil {
		return ErrNoAuthority
	}
	if _, ok := d.overrides.Get(vpn); !ok {
		return nil
	}
	k.overridesRW(d).Clear(vpn)
	r := d.attached[s.ID]
	k.hClearPageRights.Inc()
	err := k.engine.setPageRights(d, vpn, r)
	k.flushIPIs()
	return err
}

// SetSegmentRights changes domain d's rights over every page of segment s
// at once (GC space flips, checkpoint restriction — the segment-wide rows
// of Table 1). Any per-page overrides d held in the segment are cleared.
func (k *Kernel) SetSegmentRights(d *Domain, s *Segment, r addr.Rights) error {
	if _, ok := d.attached[s.ID]; !ok {
		return ErrNotAttached
	}
	d.attached[s.ID] = r
	s.attached[d.ID] = r
	if d.overrides.Len() > 0 {
		k.overridesRW(d).ClearRange(k.geo.PageNumber(s.Range.Start), s.NumPages())
	}
	k.hSetSegmentRights.Inc()
	err := k.engine.setSegmentRights(d, s, r)
	k.flushIPIs()
	return err
}

// --- Domain-page engine (PLB machine) ---

// dpEngine drives the PLB machine: protection changes are single-entry PLB
// updates; segment-wide changes and detaches are PLB scans.
type dpEngine struct {
	k *Kernel
}

func (e *dpEngine) onCreateSegment(*Segment) error { return nil }

// onAttach does nothing: access rights are faulted into the PLB one page
// at a time as the domain touches them (Table 1, row 1).
func (e *dpEngine) onAttach(*Domain, *Segment, addr.Rights) {}

// onDetach purges the domain's PLB entries for the segment: either a
// precise scan of every resident entry or a flash clear of the whole PLB
// (Table 1, row 2; ablation A5).
func (e *dpEngine) onDetach(d *Domain, s *Segment) {
	if e.k.cfg.PLBDetach == DetachPurgeAll {
		e.k.shootDomain(d, smp.Request{Kind: smp.PurgeAllProt})
		return
	}
	e.k.shootDomain(d, smp.Request{Kind: smp.RangeDetach, Range: s.Range})
}

// setPageRights updates the resident PLB entry for (d, page), if any —
// one entry, other domains untouched. For super-page segments the
// covering entry is too coarse to update in place: it is invalidated and
// a base-page entry installed (sibling pages re-fault their super-page
// entry lazily).
func (e *dpEngine) setPageRights(d *Domain, vpn addr.VPN, r addr.Rights) error {
	if s := e.k.segmentOf(vpn); s != nil && s.protShift != 0 {
		e.k.shootDomain(d, smp.Request{Kind: smp.InvalRights, VPN: vpn})
		// The eager install makes this CPU a holder of d's entries;
		// remote CPUs just invalidate and re-fault at the new rights.
		e.k.mach.(*machine.PLBMachine).InstallRights(d.ID, e.k.geo.Base(vpn), e.k.geo.Shift(), r)
		e.k.markInstalled(d)
		return nil
	}
	e.k.shootDomain(d, smp.Request{Kind: smp.UpdateRights, VPN: vpn, Rights: r})
	return nil
}

// setSegmentRights rewrites the domain's resident entries across the
// segment with a full PLB scan.
func (e *dpEngine) setSegmentRights(d *Domain, s *Segment, r addr.Rights) error {
	e.k.shootDomain(d, smp.Request{Kind: smp.RangeRights, Range: s.Range, Rights: r})
	return nil
}

// onDestroySegment purges any lingering PLB entries for the segment's
// range (stale entries of long-detached domains cannot exist — detach
// purged them — but execution-keyed entries might).
func (e *dpEngine) onDestroySegment(s *Segment) {
	e.k.shootRange(s.Range, smp.Request{Kind: smp.RangePurge, Range: s.Range})
}

// onDestroyDomain drops every PLB entry naming the dying domain with
// one purge-by-domain scan per sharer (purgeDomain) — the destroy cost
// scales with actual sharers, not machine size.
func (e *dpEngine) onDestroyDomain(d *Domain) { e.k.purgeDomain(d) }

// onFork is free in the domain-page model: the child's PLB entries fault
// in on first touch, exactly like any other attachment (the PLB-fill
// charging the paper's Table 1 row 1 describes).
func (e *dpEngine) onFork(*Domain, *Domain) {}

// --- Page-group engine (PA-RISC machine) ---

// pgEngine drives the page-group machine. Every segment owns a primary
// page-group; per-domain, per-page rights changes move pages into derived
// groups whose membership (and write-disable bits) encode the desired
// per-domain rights vector — the group-juggling of Section 4.1.2.
//
// The bookkeeping is dense and sorted, so fork and destroy (the session
// churn path) neither hash, sort nor allocate: group records are indexed
// by GroupID, and member vectors and domain group sets are sorted by ID.
type pgEngine struct {
	k      *Kernel
	groups []pgGroup // indexed by GroupID
	// sigIndex maps a derived group's signature (segment plus member
	// vector, hashed) to the group, so pages with identical sharing reuse
	// it. membersMatch confirms each hit: a collision costs a fresh group.
	sigIndex map[uint64]addr.GroupID
	// Scratch vectors reused across calls (a kernel is single-threaded).
	ids     []addr.DomainID
	vpns    []addr.VPN
	want    []pgWant
	members []groupMember

	hRecycled, hCreated, hGrants, hRevokes stats.Handle
	hClamps, hMoves, hGCed, hForkCopies    stats.Handle
}

// pgGroup is the engine's record of one group number. Only live derived
// groups carry state; primary groups and free numbers are zero records
// (which keep their member vector's capacity for the number's next life).
type pgGroup struct {
	derived bool
	// indexed: sigIndex may name the group under sig. A membership change
	// (a member dying, a fork joining) un-indexes it in O(1) instead of
	// rehashing: it can never match a seeker's signature again.
	indexed bool
	seg     addr.SegmentID
	sig     uint64
	// pages counts the pages parked in the group; at zero the group is
	// freed (freeDerived). Otherwise a long-lived shared segment leaks a
	// group per retired sharing pattern, and every long-lived domain's
	// group set — walked by every fork and destroy — grows without bound.
	pages   int
	members []groupMember // ascending by id
}

// wdEntry is one element of an ID vector kept sorted by id, carrying a
// write-disable bit: a domain's group set is a []groupRef, a derived
// group's membership a []groupMember.
type wdEntry[K addr.GroupID | addr.DomainID] struct {
	id K
	wd bool
}

type (
	groupRef    = wdEntry[addr.GroupID]
	groupMember = wdEntry[addr.DomainID]
)

// find binary-searches a sorted vector for id, returning its index (or
// insertion point) and whether it is present.
func find[K addr.GroupID | addr.DomainID](v []wdEntry[K], id K) (int, bool) {
	lo, hi := 0, len(v)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if v[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(v) && v[lo].id == id
}

// pgWant is one attached domain's entry in a page's desired rights
// vector: its attachment rights and the rights it should hold on the
// page (None when it may not access it).
type pgWant struct {
	id           addr.DomainID
	attach, want addr.Rights
}

func newPGEngine(k *Kernel) *pgEngine {
	c := &k.ctrs
	return &pgEngine{
		k:           k,
		sigIndex:    make(map[uint64]addr.GroupID),
		hRecycled:   c.Handle("pg.groups_recycled"),
		hCreated:    c.Handle("pg.groups_created"),
		hGrants:     c.Handle("pg.grants"),
		hRevokes:    c.Handle("pg.revokes"),
		hClamps:     c.Handle("pg.unrepresentable_clamps"),
		hMoves:      c.Handle("pg.page_moves"),
		hGCed:       c.Handle("pg.derived_groups_gced"),
		hForkCopies: c.Handle("pg.fork_group_copies"),
	}
}

// derivedRec returns g's record if g is a live derived group, else nil.
func (e *pgEngine) derivedRec(g addr.GroupID) *pgGroup {
	if int(g) < len(e.groups) && e.groups[g].derived {
		return &e.groups[g]
	}
	return nil
}

// unindex drops derived group g from the signature index. Called when
// g's membership diverges from its creation-time signature: the stale
// index entry could never pass membersMatch, so g just stops being a
// reuse candidate (seekers mint a fresh group; the page-count GC
// reclaims this one when its last page leaves).
func (e *pgEngine) unindex(g addr.GroupID) {
	r := &e.groups[g]
	if r.indexed {
		if e.sigIndex[r.sig] == g {
			delete(e.sigIndex, r.sig)
		}
		r.indexed = false
	}
}

// newGroup hands out a page-group number, preferring recycled numbers
// from destroyed segments over fresh ones: group numbers are a finite
// architectural namespace (Section 4.2's 2^N group registers), so a
// long-lived system must reuse them or exhaust. When both the free list
// and the counter are spent it reports ErrGroupIDsExhausted instead of
// silently wrapping onto live groups.
func (e *pgEngine) newGroup() (addr.GroupID, error) {
	if n := len(e.k.freeGroups); n > 0 {
		g := e.k.freeGroups[n-1]
		e.k.freeGroups = e.k.freeGroups[:n-1]
		e.hRecycled.Inc()
		return g, nil
	}
	if e.k.nextGroup == 0 || (e.k.maxGroup != 0 && e.k.nextGroup > e.k.maxGroup) {
		return 0, ErrGroupIDsExhausted
	}
	g := e.k.nextGroup
	e.k.nextGroup++
	for int(g) >= len(e.groups) {
		e.groups = append(e.groups, pgGroup{})
	}
	e.hCreated.Inc()
	return g, nil
}

func (e *pgEngine) onCreateSegment(s *Segment) error {
	g, err := e.newGroup()
	if err != nil {
		return err
	}
	s.group = g
	s.groupRights = addr.None
	return nil
}

// grant adds g to d's group set with the given write-disable bit, syncing
// the machine's checker if d is executing.
func (e *pgEngine) grant(d *Domain, g addr.GroupID, wd bool) {
	i, ok := find(d.groups, g)
	switch {
	case !ok:
		d.groups = slices.Insert(d.groups, i, groupRef{id: g, wd: wd})
	case d.groups[i].wd == wd:
		return
	default:
		d.groups[i].wd = wd
	}
	e.hGrants.Inc()
	e.k.shootExecuting(d, smp.Request{Kind: smp.GroupLoad, Group: g, WD: wd})
}

// revoke removes g from d's group set.
func (e *pgEngine) revoke(d *Domain, g addr.GroupID) {
	i, ok := find(d.groups, g)
	if !ok {
		return
	}
	d.groups = slices.Delete(d.groups, i, i+1)
	e.withdraw(d, g)
}

// withdraw counts a revocation of g from d and purges g from every
// checker holding it on d's behalf (d's group set is already updated).
func (e *pgEngine) withdraw(d *Domain, g addr.GroupID) {
	e.hRevokes.Inc()
	e.k.shootExecuting(d, smp.Request{Kind: smp.GroupRevoke, Group: g})
}

// recomputePrimary re-derives the segment's primary group state from its
// attachments. The rights field is sticky — it only ever grows — so that
// revoking one domain's write access is a pure write-disable-bit flip
// (Table 1 "Restrict Access": "mark the page-group read-only to the
// application") and never requires touching the per-page TLB entries.
func (e *pgEngine) recomputePrimary(s *Segment) {
	union := addr.None
	for _, r := range s.attached {
		union |= r
	}
	field := s.groupRights | union
	for _, did := range e.sortedAttached(s) {
		r := s.attached[did]
		d := e.k.doms.get(did)
		if d == nil {
			continue
		}
		if r == addr.None {
			e.revoke(d, s.group)
			continue
		}
		// A domain whose rights are the field minus write gets the
		// write-disable bit; anything else the encoding cannot express
		// is clamped (Section 4.1.2's expressiveness limit).
		wd := false
		switch r {
		case field:
		case field.WithoutWrite():
			wd = field&addr.Write != 0
		default:
			e.hClamps.Inc()
			wd = field&addr.Write != 0 && r&addr.Write == 0
		}
		e.grant(d, s.group, wd)
	}
	if field == s.groupRights {
		return
	}
	s.groupRights = field
	// Touched pages still in the primary group pick up the grown rights
	// field; untouched pages inherit it when their record is created.
	for _, vpn := range e.segPages(s) {
		p := s.pageRecs[vpn]
		if p.group == s.group && p.groupRights != field {
			p.groupRights = field
			e.k.shootPage(vpn, smp.Request{Kind: smp.GroupUpdate, VPN: vpn, Group: p.group, Rights: field})
		}
	}
}

// sortedAttached returns the segment's attached domain IDs ascending —
// shootdown-enqueueing loops iterate it instead of the map so IPI order
// (and with it chaos fault injection) is deterministic. The slice is
// engine scratch, valid until the next call.
func (e *pgEngine) sortedAttached(s *Segment) []addr.DomainID {
	ids := e.ids[:0]
	for did := range s.attached {
		ids = append(ids, did)
	}
	slices.Sort(ids)
	e.ids = ids
	return ids
}

// segPages returns the VPNs of the segment's touched pages ascending
// (pageRecs keeps the scan proportional to the segment, not to every
// page record in the kernel). The slice is engine scratch, valid until
// the next call.
func (e *pgEngine) segPages(s *Segment) []addr.VPN {
	vpns := e.vpns[:0]
	for vpn := range s.pageRecs {
		vpns = append(vpns, vpn)
	}
	slices.Sort(vpns)
	e.vpns = vpns
	return vpns
}

func (e *pgEngine) onAttach(d *Domain, s *Segment, r addr.Rights) {
	// Representability: r must be the (new) union or the union without
	// write; otherwise the page-group model clamps the odd domain (the
	// model's expressiveness limit, Section 4.1.2).
	union := addr.None
	for _, rr := range s.attached {
		union |= rr
	}
	if r != addr.None && r != union && r != union.WithoutWrite() {
		e.hClamps.Inc()
	}
	e.resyncSegment(s)
}

func (e *pgEngine) onDetach(d *Domain, s *Segment) {
	// Remove the primary group from the domain's set and purge it from
	// the checker: one operation, no scan (Table 1, row 2).
	e.revoke(d, s.group)
	// Pages in derived groups must be re-derived: their desired vectors
	// changed with the detaching domain's authority.
	e.resyncSegment(s)
}

// resyncSegment recomputes the primary group and re-derives every page of
// the segment currently parked in a derived group, so group memberships
// track the current attachments and overrides.
func (e *pgEngine) resyncSegment(s *Segment) {
	e.recomputePrimary(s)
	for _, vpn := range e.segPages(s) {
		p := s.pageRecs[vpn]
		if p.group != s.group {
			if err := e.regroup(vpn, p); err != nil {
				// Unrepresentable vector (or a group namespace drained to
				// empty) during a void-returning resync: clamp by leaving
				// the page where it is and counting.
				e.hClamps.Inc()
			}
		}
	}
}

// desiredVector computes, for every domain attached to the page's
// segment (ascending ID), the rights the kernel wants it to have on the
// page. The slice is engine scratch, valid until the next call.
func (e *pgEngine) desiredVector(p *page, vpn addr.VPN) []pgWant {
	want := e.want[:0]
	for did, r := range p.seg.attached {
		want = append(want, pgWant{id: did, attach: r})
	}
	slices.SortFunc(want, func(a, b pgWant) int { return cmp.Compare(a.id, b.id) })
	for i := range want {
		w := &want[i]
		if d := e.k.doms.get(w.id); d != nil {
			w.want = w.attach
			if or, ok := d.overrides.Get(vpn); ok {
				w.want = or
			}
		}
	}
	e.want = want
	return want
}

// regroup moves the page into a group realizing the desired rights
// vector: group membership = domains with access; rights field = union;
// write-disable for members that may not write (Section 4.1.2).
func (e *pgEngine) regroup(vpn addr.VPN, p *page) error {
	want := e.desiredVector(p, vpn)
	union := addr.None
	for _, w := range want {
		union |= w.want
	}

	// No domain may access the page: park it in a fresh memberless group.
	if union == addr.None {
		g, err := e.newGroup()
		if err != nil {
			return err
		}
		r := &e.groups[g]
		*r = pgGroup{derived: true, seg: p.seg.ID, members: r.members[:0]}
		e.movePage(vpn, p, g, addr.None)
		return nil
	}

	// Representability check: every desired value must be the union or
	// the union minus write.
	members := e.members[:0]
	for _, w := range want {
		switch w.want {
		case addr.None:
		case union:
			members = append(members, groupMember{id: w.id})
		case union.WithoutWrite():
			members = append(members, groupMember{id: w.id, wd: true})
		default:
			return fmt.Errorf("%w: page %#x domain %d wants %v, union %v",
				ErrUnrepresentable, uint64(vpn), w.id, w.want, union)
		}
	}
	e.members = members

	// If the desired vector is exactly the primary group's, return home.
	if e.matchesPrimary(p.seg, want) {
		e.movePage(vpn, p, p.seg.group, p.seg.groupRights)
		return nil
	}

	sig := signature(p.seg.ID, members)
	if g, ok := e.sigIndex[sig]; ok && e.membersMatch(g, p.seg.ID, members) {
		e.movePage(vpn, p, g, union)
		return nil
	}
	// Create a derived group and grant it to the members (ascending ID
	// order so the GroupLoad shootdowns enqueue deterministically).
	g, err := e.newGroup()
	if err != nil {
		return err
	}
	for _, m := range members {
		e.grant(e.k.doms.get(m.id), g, m.wd)
	}
	r := &e.groups[g]
	*r = pgGroup{derived: true, indexed: true, seg: p.seg.ID, sig: sig,
		members: append(r.members[:0], members...)}
	e.sigIndex[sig] = g
	e.movePage(vpn, p, g, union)
	return nil
}

// primaryEffective returns the rights a domain attached with r actually
// holds through the primary group's encoding (rights field plus
// write-disable bit).
func (e *pgEngine) primaryEffective(s *Segment, r addr.Rights) addr.Rights {
	field := s.groupRights
	if r == field {
		return field
	}
	if field&addr.Write != 0 && r&addr.Write == 0 {
		return field.WithoutWrite()
	}
	return field
}

// matchesPrimary reports whether the desired vector equals what the
// primary group grants its members: exactly the domains attached with
// some rights get access, each at its primary-group effective rights.
func (e *pgEngine) matchesPrimary(s *Segment, want []pgWant) bool {
	for _, w := range want {
		if w.attach == addr.None {
			if w.want != addr.None {
				return false
			}
		} else if w.want == addr.None || w.want != e.primaryEffective(s, w.attach) {
			return false
		}
	}
	return true
}

// membersMatch reports whether g is a live derived group of segment seg
// with exactly the given membership — the check behind every signature
// index hit.
func (e *pgEngine) membersMatch(g addr.GroupID, seg addr.SegmentID, members []groupMember) bool {
	r := e.derivedRec(g)
	return r != nil && r.seg == seg && slices.Equal(r.members, members)
}

// signature hashes a derived group's defining vector — its segment and
// its (member, write-disable) pairs in ascending member order — with
// word-wise FNV-1a.
func signature(seg addr.SegmentID, members []groupMember) uint64 {
	const prime = 1099511628211
	h := (14695981039346656037 ^ uint64(seg)) * prime
	for _, m := range members {
		x := uint64(m.id) << 1
		if m.wd {
			x |= 1
		}
		h = (h ^ x) * prime
	}
	return h
}

// movePage updates the kernel's page record and the resident TLB entry.
func (e *pgEngine) movePage(vpn addr.VPN, p *page, g addr.GroupID, rights addr.Rights) {
	if p.group == g && p.groupRights == rights {
		return
	}
	old := p.group
	if old != g {
		e.hMoves.Inc()
		if r := e.derivedRec(g); r != nil {
			r.pages++
		}
	}
	p.group = g
	p.groupRights = rights
	e.k.shootPage(vpn, smp.Request{Kind: smp.GroupUpdate, VPN: vpn, Group: g, Rights: rights})
	// Collect the vacated group after the page is re-homed, so the
	// revocation shootdowns queue behind this page's update.
	if old != g {
		if r := e.derivedRec(old); r != nil {
			if r.pages <= 1 {
				e.freeDerived(old)
			} else {
				r.pages--
			}
		}
	}
}

// freeDerived retires a derived group that no longer holds any page and
// returns its number to the free list. This is the group-number garbage
// collection that keeps a long-lived segment's group population
// proportional to its parked pages, not to its history of sharing
// patterns.
func (e *pgEngine) freeDerived(g addr.GroupID) {
	e.retire(g)
	e.k.freeGroups = append(e.k.freeGroups, g)
	e.hGCed.Inc()
}

// retire un-indexes derived group g and revokes every remaining live
// membership in ascending DomainID order, so the number cannot match in
// any checker once recycled, then clears its record.
func (e *pgEngine) retire(g addr.GroupID) {
	e.unindex(g)
	r := &e.groups[g]
	for _, m := range r.members {
		if d := e.k.doms.get(m.id); d != nil {
			e.revoke(d, g)
		}
	}
	*r = pgGroup{members: r.members[:0]}
}

func (e *pgEngine) setPageRights(d *Domain, vpn addr.VPN, r addr.Rights) error {
	p := e.k.pageRecord(vpn)
	if p == nil {
		return ErrNoAuthority
	}
	return e.regroup(vpn, p)
}

func (e *pgEngine) setSegmentRights(d *Domain, s *Segment, r addr.Rights) error {
	// Pages that moved to derived groups have their own vectors; the
	// segment-wide change alters the domain's contribution to each, so
	// they must be re-derived individually.
	e.resyncSegment(s)
	return nil
}

// onDestroySegment tears down the segment's group world. Derived groups
// may still sit in detached domains' group sets (detach revokes only the
// primary group; derived memberships linger until the page re-derives),
// so every live member is revoked first — a recycled group number must
// never be resolvable through a stale membership. Then the primary and
// derived group numbers (ascending) return to the free list for reuse:
// this is the only point where a group is provably memberless and
// pageless, which makes it the safe recycling point for the
// architectural namespace.
func (e *pgEngine) onDestroySegment(s *Segment) {
	e.k.freeGroups = append(e.k.freeGroups, s.group)
	for i := range e.groups {
		if r := &e.groups[i]; r.derived && r.seg == s.ID {
			e.retire(addr.GroupID(i))
			e.k.freeGroups = append(e.k.freeGroups, addr.GroupID(i))
		}
	}
}

// onDestroyDomain strips the dying domain out of the page-group world:
// every group it holds is revoked in ascending order (local checker
// detach plus GroupRevoke to CPUs and device seats executing on its
// behalf), and derived-group memberships naming it are removed and their
// signatures un-indexed — once the ID is recycled, a membership naming
// the dead incarnation would hand the new domain someone else's
// authority via signature reuse. DestroyDomain empties the group set.
func (e *pgEngine) onDestroyDomain(d *Domain) {
	for _, gr := range d.groups {
		if r := e.derivedRec(gr.id); r != nil {
			if i, ok := find(r.members, d.ID); ok {
				e.unindex(gr.id)
				r.members = slices.Delete(r.members, i, i+1)
			}
		}
		e.withdraw(d, gr.id)
	}
}

// onFork copies the parent's group set to the child — membership is the
// page-group model's protection state, so inheriting the parent's view
// is a per-group bookkeeping copy, not a per-page one. No checker is
// touched: the child executes nowhere yet, and its group set loads on
// its first dispatch exactly like a context switch. Derived memberships
// grow the child with the parent's write-disable bit, un-indexing each
// grown group's creation-time signature.
func (e *pgEngine) onFork(parent, child *Domain) {
	if len(parent.groups) == 0 {
		return
	}
	child.groups = append(child.groups[:0], parent.groups...)
	for _, gr := range parent.groups {
		if r := e.derivedRec(gr.id); r != nil {
			e.unindex(gr.id)
			i, _ := find(r.members, child.ID)
			r.members = slices.Insert(r.members, i, groupMember{id: child.ID, wd: gr.wd})
		}
	}
	e.hForkCopies.Add(uint64(len(parent.groups)))
}
