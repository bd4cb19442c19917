package kernel

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/addr"
	"repro/internal/ptable"
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
	// onAttach syncs hardware after d was attached to s with rights r;
	// renewed reports that d was attached already, with other rights,
	// whose cached entries must go. An error refuses the attachment
	// before the hardware changed, and the kernel puts the previous one
	// back.
	onAttach(d *Domain, s *Segment, r addr.Rights, renewed bool) error
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
// sharply separates the two models, Section 4.1.2). The domain must be
// attached to the page's segment: an override refines an attachment, and
// dies with it (Detach), so it cannot outlive the segment either.
func (k *Kernel) SetPageRights(d *Domain, va addr.VA, r addr.Rights) error {
	if err := k.checkLive(d, "set page rights"); err != nil {
		return err
	}
	vpn := k.geo.PageNumber(va)
	s := k.segmentOf(vpn)
	if s == nil {
		return ErrNoAuthority
	}
	if _, ok := d.Attached(s); !ok {
		return ErrNotAttached
	}
	prev, had := d.overrides.Get(vpn)
	k.overridesRW(d).Set(vpn, r)
	k.hSetPageRights.Inc()
	return k.syncPageRights(d, vpn, r, prev, had)
}

// ClearPageRights removes domain d's per-page override, reverting the page
// to the domain's segment attachment rights.
func (k *Kernel) ClearPageRights(d *Domain, va addr.VA) error {
	if err := k.checkLive(d, "clear page rights"); err != nil {
		return err
	}
	vpn := k.geo.PageNumber(va)
	s := k.segmentOf(vpn)
	if s == nil {
		return ErrNoAuthority
	}
	prev, had := d.overrides.Get(vpn)
	if !had {
		return nil
	}
	k.overridesRW(d).Clear(vpn)
	r, _ := d.Attached(s)
	k.hClearPageRights.Inc()
	return k.syncPageRights(d, vpn, r, prev, had)
}

// syncPageRights runs the engine after d's override for vpn changed,
// giving d rights r there. A change the engine refuses (page-group's
// ErrUnrepresentable or ErrGroupIDsExhausted) leaves the hardware as it
// was, so the previous override, prev if had, is put back.
func (k *Kernel) syncPageRights(d *Domain, vpn addr.VPN, r, prev addr.Rights, had bool) error {
	err := k.engine.setPageRights(d, vpn, r)
	if err != nil {
		if had {
			d.overrides.Set(vpn, prev)
		} else {
			d.overrides.Clear(vpn)
		}
	}
	k.flushIPIs()
	return err
}

// SetSegmentRights changes domain d's rights over every page of segment s
// at once (GC space flips, checkpoint restriction — the segment-wide rows
// of Table 1). Any per-page overrides d held in the segment are cleared.
// A change the engine refuses (page-group's ErrUnrepresentable or
// ErrGroupIDsExhausted, as Attach) leaves the hardware as it was, so the
// previous rights and overrides are put back.
func (k *Kernel) SetSegmentRights(d *Domain, s *Segment, r addr.Rights) error {
	if err := cmp.Or(k.checkLive(d, "set segment rights"), k.checkSegment(s, "set segment rights")); err != nil {
		return err
	}
	i, ok := d.findAttached(s.ID)
	if !ok {
		return ErrNotAttached
	}
	prev := d.attached[i].r
	d.attached[i].r = r
	cut := k.cut[:0]
	if d.overrides.Len() > 0 {
		start, n := k.geo.PageNumber(s.Range.Start), s.NumPages()
		d.overrides.Range(start, n, func(vpn addr.VPN, or addr.Rights) bool {
			cut = append(cut, pageRights{vpn, or})
			return true
		})
		k.overridesRW(d).ClearRange(start, n)
	}
	k.cut = cut
	k.hSetSegmentRights.Inc()
	err := k.engine.setSegmentRights(d, s, r)
	if err != nil {
		d.attached[i].r = prev
		for _, o := range cut {
			d.overrides.Set(o.vpn, o.r)
		}
	}
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

// onAttach does nothing for a new attachment: access rights are faulted
// into the PLB one page at a time as the domain touches them (Table 1,
// row 1). A renewed one purges the entries holding the old rights, as a
// detach does.
func (e *dpEngine) onAttach(d *Domain, s *Segment, _ addr.Rights, renewed bool) error {
	if renewed {
		e.onDetach(d, s)
	}
	return nil
}

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
// covering entry is too coarse to update in place: it is invalidated at
// every size class, and the page (like its siblings) re-faults at base
// granularity while the override stands (see Kernel.ProtShift).
func (e *dpEngine) setPageRights(d *Domain, vpn addr.VPN, r addr.Rights) error {
	if s := e.k.segmentOf(vpn); s != nil && s.protShift != 0 {
		e.k.shootDomain(d, smp.Request{Kind: smp.InvalRights, VPN: vpn})
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
	e.k.shootRange(s, smp.Request{Kind: smp.RangePurge, Range: s.Range})
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
// Membership is held once, in each domain's group set (a
// pgroup.Membership bitset walked in ascending ID order), so fork copies
// one set and destroy walks it only when the domain executes somewhere.
type pgEngine struct {
	k      *Kernel
	groups []pgGroup // indexed by GroupID
	// sigIndex maps a signature (segment plus members, hashed) to the
	// last derived group made under it, so pages with identical sharing
	// reuse it. reusable confirms each hit: a miss costs a fresh group.
	sigIndex map[uint64]addr.GroupID
	clock    uint64 // ticks per fork and per indexed group (reusable)
	// Scratch reused across calls (a kernel is single-threaded): a
	// segment's attachment snapshot, and the pages a resync re-derives
	// with their desired vectors.
	attach  []pgWant
	redo    []addr.VPN
	vectors []pgWant

	hRecycled, hCreated, hGrants, hRevokes stats.Handle
	hMoves, hGCed, hForkCopies             stats.Handle
}

// pgGroup is the engine's record of one group number. Only live derived
// groups carry state; primary groups and free numbers are zero records.
type pgGroup struct {
	derived bool
	seg     addr.SegmentID
	// sig is the signature the group was made under, made the clock
	// then, holders the number of domains it was granted to.
	sig, made uint64
	holders   int
	// pages counts the pages parked in the group; at zero the group is
	// freed (freeDerived). Otherwise a long-lived shared segment leaks a
	// group per retired sharing pattern, and every long-lived domain's
	// group set — copied by every fork — grows without bound.
	pages int
}

// pgWant is one attached domain's entry in a page's desired rights
// vector: its attachment rights and the rights it should hold on the
// page (None when it may not access it).
type pgWant struct {
	d            *Domain
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
	if e.freeGroupIDs() == 0 {
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
	if ok, w := d.groups.Get(g); ok && w == wd {
		return
	}
	d.groups.Put(g, wd)
	e.hGrants.Inc()
	e.k.shootExecuting(d, smp.Request{Kind: smp.GroupLoad, Group: g, WD: wd})
}

// revoke removes g from d's group set and purges it from every checker
// holding it on d's behalf.
func (e *pgEngine) revoke(d *Domain, g addr.GroupID) {
	if d.groups.Delete(g) {
		e.hRevokes.Inc()
		e.k.shootExecuting(d, smp.Request{Kind: smp.GroupRevoke, Group: g})
	}
}

// place reports where a domain that wants rights want sits in a group
// whose rights field is field: outside it when it wants nothing, a
// member when it wants the field, a write-disabled member when it wants
// the field without write. One rights field and a write-disable bit per
// member express nothing else (Section 4.1.2): ok is then false.
func place(field, want addr.Rights) (member, wd, ok bool) {
	switch want {
	case addr.None:
		return false, false, true
	case field:
		return true, false, true
	case field.WithoutWrite():
		return true, true, true
	}
	return false, false, false
}

// recomputePrimary places every attached domain in the segment's
// primary group under rights field field, which expresses each of them
// (resyncSegment), and moves the pages still in the group to a changed
// field.
func (e *pgEngine) recomputePrimary(s *Segment, attach []pgWant, field addr.Rights) {
	for _, a := range attach {
		if member, wd, _ := place(field, a.attach); member {
			e.grant(a.d, s.group, wd)
		} else {
			e.revoke(a.d, s.group)
		}
	}
	if field == s.groupRights {
		return
	}
	s.groupRights = field
	for i := range s.pages {
		if p := &s.pages[i]; p.group == s.group && p.groupRights != field {
			p.groupRights = field
			e.k.shootPage(p, smp.Request{Kind: smp.GroupUpdate, VPN: s.PageVPN(uint64(i)), Group: p.group, Rights: field})
		}
	}
}

// attachments snapshots the segment's attachments ascending by domain
// ID, want fields zero: one walk of the segment's domain bitset per
// resync, which recomputePrimary and every regroup after it share.
// Ascending order makes shootdown enqueue order (and with it chaos fault
// injection) deterministic. Every bit names a live domain (destroy clears
// them; stale handles cannot attach). The slice is engine scratch, valid
// until the next call.
func (e *pgEngine) attachments(s *Segment) []pgWant {
	attach := e.attach[:0]
	s.attached.ForEach(func(id int) {
		d := e.k.doms.get(addr.DomainID(id))
		r, _ := d.Attached(s)
		attach = append(attach, pgWant{d: d, attach: r})
	})
	e.attach = attach
	return attach
}

// onAttach resyncs the segment. A renewed attachment needs no purge: the
// resync regrants the segment's groups with the new write-disable bits,
// and re-derives the pages on which the domain's override may no longer
// match them.
func (e *pgEngine) onAttach(d *Domain, s *Segment, _ addr.Rights, renewed bool) error {
	var changed *Domain
	if renewed {
		changed = d
	}
	return e.resyncSegment(s, changed)
}

// onDetach removes the segment's groups from the domain's set and purges
// them from the checker: the primary group in one operation, no scan
// (Table 1, row 2), and each derived group, so that a page a drained
// group namespace leaves in place grants the domain nothing. The resync
// then re-derives the derived pages, whose vectors lost the domain. A
// detach cannot be refused: every remaining want is still the union or
// the union without write, and a page the namespace cannot re-home
// stays where it is.
func (e *pgEngine) onDetach(d *Domain, s *Segment) {
	e.revoke(d, s.group)
	d.groups.ForEach(func(g addr.GroupID, _ bool) {
		if r := e.derivedRec(g); r != nil && r.seg == s.ID {
			e.revoke(d, g)
		}
	})
	field, _ := e.planResync(s, nil) // a detach carries out even a refused plan
	e.applyResync(s, field)
}

// resyncSegment re-derives the segment's group state from its
// attachments and overrides: it places every attached domain in the
// primary group and re-derives every page parked in a derived group,
// plus every primary-group page on which changed, when not nil, holds an
// override: that domain's attachment rights changed, so the primary
// group's encoding of them may no longer match the override. A change
// planResync refuses is refused before anything changes.
//
// The primary group's rights field is the union of the attachments plus
// the write right it held, and stays as it is while no domain holds
// rights. Write is sticky so that revoking one domain's write access is
// a pure write-disable-bit flip (Table 1 "Restrict Access": "mark the
// page-group read-only to the application") that never touches the
// per-page TLB entries. No other right is sticky, so no domain gains
// one it was not granted.
func (e *pgEngine) resyncSegment(s *Segment, changed *Domain) error {
	field, err := e.planResync(s, changed)
	if err == nil {
		e.applyResync(s, field)
	}
	return err
}

// planResync is a resync's check pass. It snapshots the segment's
// attachments (attachments), returns the primary group's new rights
// field, and lists the pages to re-derive in e.redo with their desired
// vectors in e.vectors (wants). It refuses with ErrUnrepresentable a
// vector the encoding cannot express, naming the first such page and
// its first such domain, and with ErrGroupIDsExhausted a resync that may
// need more fresh group numbers than are free. That count is an upper
// bound, one for every re-derived page not bound for the primary group
// though regroup may reuse a group for it, so no regroup of an accepted
// plan fails. Nothing has changed when either refusal comes, and the
// plan is complete, for a detach to carry out.
func (e *pgEngine) planResync(s *Segment, changed *Domain) (addr.Rights, error) {
	attach, union := e.attachments(s), addr.None
	for _, a := range attach {
		union |= a.attach
	}
	field := s.groupRights
	if union != addr.None {
		field = union | field&addr.Write
	}
	for _, a := range attach {
		if _, _, ok := place(field, a.attach); !ok {
			return field, fmt.Errorf("%w: segment %d domain %d attached %v, primary rights field %v",
				ErrUnrepresentable, s.ID, a.d.ID, a.attach, field)
		}
	}
	var over *ptable.ProtTable // nil reads as empty
	if changed != nil {
		over = changed.overrides
	}
	start, redo := s.PageVPN(0), e.redo[:0]
	for i := range s.pages {
		vpn := start + addr.VPN(i)
		if _, ok := over.Get(vpn); ok || s.pages[i].group != s.group {
			redo = append(redo, vpn)
		}
	}
	e.redo = redo
	vectors, away := e.wants(s, attach), uint64(0)
	for j, vpn := range redo {
		_, home, err := checkVector(vpn, vectors[j*len(attach):(j+1)*len(attach)])
		if err != nil {
			return field, err
		}
		if !home {
			away++
		}
	}
	if free := e.freeGroupIDs(); away > free {
		return field, fmt.Errorf("%w: segment %d re-derives %d pages outside its primary group, %d group numbers free",
			ErrGroupIDsExhausted, s.ID, away, free)
	}
	return field, nil
}

// wants fills e.vectors with the desired rights vector of every page of
// s listed in e.redo, one after another, each with attach's entries in
// attach's order, and returns it. It reads each attached domain's
// overrides in the segment with one Range, merged with e.redo (both
// ascend), instead of probing every listed page's override in every
// domain's table: most of those probes miss.
func (e *pgEngine) wants(s *Segment, attach []pgWant) []pgWant {
	redo, n := e.redo, len(attach)
	vectors := slices.Grow(e.vectors[:0], len(redo)*n)[:len(redo)*n]
	e.vectors = vectors
	if len(redo) == 0 {
		return vectors
	}
	for i := range attach {
		attach[i].want = attach[i].attach
	}
	for j := range redo {
		copy(vectors[j*n:(j+1)*n], attach)
	}
	start, npages := s.PageVPN(0), uint64(len(s.pages))
	for i, a := range attach {
		j := 0
		a.d.overrides.Range(start, npages, func(vpn addr.VPN, r addr.Rights) bool {
			for j < len(redo) && redo[j] < vpn {
				j++
			}
			if j == len(redo) {
				return false
			}
			if redo[j] == vpn {
				vectors[j*n+i].want = r
			}
			return true
		})
	}
	return vectors
}

// applyResync carries out the plan planResync left: the primary group
// under rights field field, then every listed page regrouped in page
// order. Only a drained group namespace fails a regroup here, which a
// detach's plan lets through: the page stays where it is.
func (e *pgEngine) applyResync(s *Segment, field addr.Rights) {
	attach := e.attach
	e.recomputePrimary(s, attach, field)
	for j, vpn := range e.redo {
		_ = e.regroup(s, vpn, e.vectors[j*len(attach):(j+1)*len(attach)])
	}
}

// freeGroupIDs returns how many group numbers newGroup can still hand
// out: the recycled ones, plus those the counter has not reached below
// its limit (SetIDLimits, else the GroupID type's bound).
func (e *pgEngine) freeGroupIDs() uint64 {
	free := uint64(len(e.k.freeGroups))
	next, limit := uint64(e.k.nextGroup), uint64(^addr.GroupID(0))
	if e.k.maxGroup != 0 {
		limit = uint64(e.k.maxGroup)
	}
	if next != 0 && next <= limit {
		free += limit - next + 1
	}
	return free
}

// desiredVector fills in, for every entry of the page's segment's
// attachment snapshot, the rights the kernel wants that domain to have
// on the page, and returns the snapshot: the one-page form of wants,
// for setPageRights.
func (e *pgEngine) desiredVector(vpn addr.VPN, attach []pgWant) []pgWant {
	for i := range attach {
		w := &attach[i]
		w.want = w.attach
		if or, ok := w.d.overrides.Get(vpn); ok {
			w.want = or
		}
	}
	return attach
}

// checkVector returns the union of page vpn's desired rights vector
// (desiredVector), the rights field of a group holding the page, and
// whether the page goes home to the primary group: some domain wants
// access and every domain wants its attachment rights, which the primary
// group encodes (resyncSegment). A vector that one rights field and a
// write-disable bit per member cannot express is refused with
// ErrUnrepresentable: the field expresses a domain's want only when it
// is None, the union or the union without write (place), so it
// expresses the vector exactly when the intersection of the wants other
// than None is one of the last two.
func checkVector(vpn addr.VPN, want []pgWant) (union addr.Rights, home bool, err error) {
	common := addr.RWX
	home = true
	for _, w := range want {
		union |= w.want
		if w.want != addr.None {
			common &= w.want
		}
		home = home && w.want == w.attach
	}
	if union != addr.None && common != union && common != union.WithoutWrite() {
		for _, w := range want {
			if _, _, ok := place(union, w.want); !ok {
				return union, false, fmt.Errorf("%w: page %#x domain %d wants %v, union %v",
					ErrUnrepresentable, uint64(vpn), w.d.ID, w.want, union)
			}
		}
	}
	return union, home && union != addr.None, nil
}

// regroup moves page vpn of segment s into a group realizing its desired
// rights vector want: group membership = domains with access; rights
// field = union; write-disable for members that may not write
// (Section 4.1.2). A vector the encoding cannot express is refused
// before anything changes (checkVector). The members are placed straight
// from want, which lists domains in ascending ID order, as a membership
// set would walk them.
func (e *pgEngine) regroup(s *Segment, vpn addr.VPN, want []pgWant) error {
	union, home, err := checkVector(vpn, want)
	if err != nil {
		return err
	}
	p := s.record(vpn)

	// No domain may access the page: park it in a fresh memberless group.
	if union == addr.None {
		g, err := e.newGroup()
		if err != nil {
			return err
		}
		e.groups[g] = pgGroup{derived: true, seg: s.ID}
		e.movePage(vpn, p, g, addr.None)
		return nil
	}

	// If every domain wants its attachment rights, return home: every
	// attachment sits in the primary group (resyncSegment).
	if home {
		e.movePage(vpn, p, s.group, s.groupRights)
		return nil
	}

	sig, n := sigSeed(s.ID), 0
	for _, w := range want {
		if member, wd, _ := place(union, w.want); member {
			sig = sigStep(sig, w.d.ID, wd)
			n++
		}
	}
	if g, ok := e.sigIndex[sig]; ok && e.reusable(g, s.ID, union, want, n) {
		e.movePage(vpn, p, g, union)
		return nil
	}
	// Create a derived group and grant it to the members (ascending ID
	// order so the GroupLoad shootdowns enqueue deterministically).
	g, err := e.newGroup()
	if err != nil {
		return err
	}
	for _, w := range want {
		if member, wd, _ := place(union, w.want); member {
			e.grant(w.d, g, wd)
		}
	}
	e.clock++
	e.groups[g] = pgGroup{derived: true, seg: s.ID, sig: sig, made: e.clock, holders: n}
	e.sigIndex[sig] = g
	e.movePage(vpn, p, g, union)
	return nil
}

// reusable reports whether g, a signature index hit, is a live derived
// group of segment seg held by exactly the n members of vector want
// under rights field union, write-disable bits included. Holders change
// only by fork (the child joins) and destroy, so they are still the
// creation members exactly when as many domains as were granted g hold
// it and none has forked since g was made.
func (e *pgEngine) reusable(g addr.GroupID, seg addr.SegmentID, union addr.Rights, want []pgWant, n int) bool {
	r := e.derivedRec(g)
	if r == nil || r.seg != seg || r.holders != n {
		return false
	}
	for _, w := range want {
		member, wd, _ := place(union, w.want)
		if !member {
			continue
		}
		if held, hw := w.d.groups.Get(g); !held || hw != wd || w.d.forkedAt >= r.made {
			return false
		}
	}
	return true
}

// A derived group's signature hashes its defining vector — its segment,
// then its (member, write-disable) pairs in ascending member order — with
// word-wise FNV-1a: sigSeed starts the hash and sigStep folds in a pair.
const sigPrime = 1099511628211

func sigSeed(seg addr.SegmentID) uint64 { return (14695981039346656037 ^ uint64(seg)) * sigPrime }

func sigStep(h uint64, id addr.DomainID, wd bool) uint64 {
	x := uint64(id) << 1
	if wd {
		x |= 1
	}
	return (h ^ x) * sigPrime
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
	e.k.shootPage(p, smp.Request{Kind: smp.GroupUpdate, VPN: vpn, Group: g, Rights: rights})
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

// retire drops derived group g's index entry and revokes it from every
// live domain holding it, in ascending DomainID order, so the number
// cannot match in any checker once recycled, then clears its record. A
// memberless group has no holder: forks only copy held groups.
func (e *pgEngine) retire(g addr.GroupID) {
	r := &e.groups[g]
	if r.holders > 0 {
		if e.sigIndex[r.sig] == g {
			delete(e.sigIndex, r.sig)
		}
		e.k.doms.forEach(func(d *Domain) { e.revoke(d, g) })
	}
	*r = pgGroup{}
}

func (e *pgEngine) setPageRights(d *Domain, vpn addr.VPN, r addr.Rights) error {
	s := e.k.segmentOf(vpn)
	if s == nil {
		return ErrNoAuthority
	}
	return e.regroup(s, vpn, e.desiredVector(vpn, e.attachments(s)))
}

// setSegmentRights resyncs the segment: pages that moved to derived
// groups have their own vectors, and the segment-wide change alters the
// domain's contribution to each.
func (e *pgEngine) setSegmentRights(_ *Domain, s *Segment, _ addr.Rights) error {
	return e.resyncSegment(s, nil)
}

// onDestroySegment tears down the segment's group world. The segment is
// fully detached, and detach revokes the primary group and every derived
// one, so no live domain holds any of its groups; retire still revokes
// any holder, so a recycled group number is never resolvable through a
// stale membership. Then the primary and derived group numbers
// (ascending) return to the free list for reuse: this is the only point
// where a group is provably memberless and pageless, which makes it the
// safe recycling point for the architectural namespace.
func (e *pgEngine) onDestroySegment(s *Segment) {
	e.k.freeGroups = append(e.k.freeGroups, s.group)
	for i := range e.groups {
		if r := &e.groups[i]; r.derived && r.seg == s.ID {
			e.retire(addr.GroupID(i))
			e.k.freeGroups = append(e.k.freeGroups, addr.GroupID(i))
		}
	}
}

// onDestroyDomain revokes every group the dying domain holds. Only a
// seat executing it holds its groups in a checker, so just then is each
// withdrawn, in ascending order (local checker detach plus GroupRevoke to
// CPUs and device seats executing on its behalf). DestroyDomain empties
// the group set, the only record naming the domain.
func (e *pgEngine) onDestroyDomain(d *Domain) {
	e.hRevokes.Add(uint64(d.groups.Count()))
	if !e.k.executes(d) {
		return
	}
	d.groups.ForEach(func(g addr.GroupID, _ bool) {
		e.k.shootExecuting(d, smp.Request{Kind: smp.GroupRevoke, Group: g})
	})
}

// onFork copies the parent's group set to the child — membership is the
// page-group model's protection state, so inheriting the parent's view
// is one set copy, not a per-page one. No checker is touched: the child
// executes nowhere yet, and its group set loads on its first dispatch
// exactly like a context switch. The fork stamp bars the groups that
// just gained a holder from reuse (reusable).
func (e *pgEngine) onFork(parent, child *Domain) {
	n := parent.groups.Count()
	if n == 0 {
		return
	}
	child.groups.Copy(&parent.groups)
	e.clock++
	parent.forkedAt, child.forkedAt = e.clock, e.clock
	e.hForkCopies.Add(uint64(n))
}
