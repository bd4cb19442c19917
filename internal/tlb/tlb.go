// Package tlb implements the translation lookaside buffers the paper
// contrasts. They differ only in what an entry is keyed by and what it
// holds, so one set-associative TLB serves all three, built by a
// constructor that picks the key, the entry and the index:
//
//   - NewTrans: a translation-only TLB holding one entry per virtual page
//     with no protection information. In the PLB machine (Figure 1) it
//     sits at the second level, off the critical path, consulted only on
//     data cache misses and writebacks. Domain switches never purge it.
//
//   - NewASID: a conventional combined TLB tagged with an address space
//     identifier, as on MIPS or Alpha (Section 3.1). Shared pages consume
//     one entry per domain even though the translation is identical —
//     the duplication the paper criticizes.
//
//   - NewPG: a PA-RISC style TLB whose entries carry the physical
//     translation, the page's access identifier (AID, its page-group
//     number) and a rights field shared by all domains (Figure 2). It is
//     on-chip and consulted on every reference.
package tlb

import (
	"repro/internal/addr"
	"repro/internal/assoc"
	"repro/internal/stats"
)

// TLB is a set-associative TLB mapping keys K to entries E. Every
// counter it bumps is named prefix+"."+event; the counts a TLB's users
// never trigger (an update on the translation-only TLB, say) never
// appear in output.
type TLB[K comparable, E any] struct {
	c *assoc.Cache[K, E]

	nHit, nMiss, nInstall, nUpdate stats.Handle
	nInvalidated, nPurged          stats.Handle
	nInspected, nCorrupted         stats.Handle

	corrupt func(k K, e E) (E, bool)
}

// newTLB wraps c, counting under prefix. Counter names resolve to
// handles once here, keeping the per-access path free of name hashing.
func newTLB[K comparable, E any](c *assoc.Cache[K, E], ctrs *stats.Counters, prefix string) *TLB[K, E] {
	return &TLB[K, E]{
		c:            c,
		nHit:         ctrs.Handle(prefix + ".hit"),
		nMiss:        ctrs.Handle(prefix + ".miss"),
		nInstall:     ctrs.Handle(prefix + ".install"),
		nUpdate:      ctrs.Handle(prefix + ".update"),
		nInvalidated: ctrs.Handle(prefix + ".invalidated"),
		nPurged:      ctrs.Handle(prefix + ".purged"),
		nInspected:   ctrs.Handle(prefix + ".inspected"),
		nCorrupted:   ctrs.Handle(prefix + ".corrupted"),
	}
}

func vpnIndex(v addr.VPN) uint64 { return uint64(v) }

// TransEntry is a translation-only TLB entry: VPN → PFN. The dirty bit
// stays with the kernel's translation (Section 3.2.1 footnote 6).
type TransEntry struct {
	PFN addr.PFN
}

// NewTrans creates the translation-only TLB of the PLB machine.
func NewTrans(cfg assoc.Config, ctrs *stats.Counters, prefix string) *TLB[addr.VPN, TransEntry] {
	return newTLB(assoc.New[addr.VPN, TransEntry](cfg, vpnIndex), ctrs, prefix)
}

// ASIDKey tags a combined-TLB entry with its address space.
type ASIDKey struct {
	AS  addr.ASID
	VPN addr.VPN
}

// ASIDEntry is a conventional combined TLB entry: translation + rights.
type ASIDEntry struct {
	PFN    addr.PFN
	Rights addr.Rights
}

// NewASID creates the conventional, address-space-tagged combined TLB.
// Each entry's owner is its address space, so PurgeOwner and HasOwner
// take an addr.ASID as a uint32.
func NewASID(cfg assoc.Config, ctrs *stats.Counters, prefix string) *TLB[ASIDKey, ASIDEntry] {
	return newTLB(assoc.NewOwned[ASIDKey, ASIDEntry](cfg, func(k ASIDKey) uint64 {
		return uint64(k.VPN) ^ uint64(k.AS)<<17
	}, func(k ASIDKey) uint32 { return uint32(k.AS) }), ctrs, prefix)
}

// ResidentFor counts resident entries for vpn across all address spaces —
// the duplication measure of experiment E5.
func ResidentFor(t *TLB[ASIDKey, ASIDEntry], vpn addr.VPN) int {
	n := 0
	t.c.ForEach(func(k ASIDKey, _ ASIDEntry) bool {
		if k.VPN == vpn {
			n++
		}
		return true
	})
	return n
}

// PGEntry is a PA-RISC style TLB entry: translation plus the page's
// access identifier and the rights shared by every domain with access to
// the page's group (Figure 2).
type PGEntry struct {
	PFN    addr.PFN
	AID    addr.GroupID
	Rights addr.Rights
}

// NewPG creates the page-group TLB. One entry per page serves all
// domains.
func NewPG(cfg assoc.Config, ctrs *stats.Counters, prefix string) *TLB[addr.VPN, PGEntry] {
	return newTLB(assoc.New[addr.VPN, PGEntry](cfg, vpnIndex), ctrs, prefix)
}

// SetCorruptor installs (or, with nil, removes) a chaos-testing hook
// consulted on every Insert; returning a replacement entry with true
// corrupts the installed entry in place (a stale or flipped PFN, AID or
// rights). Corrupted installs are counted under prefix+".corrupted".
func (t *TLB[K, E]) SetCorruptor(fn func(k K, e E) (E, bool)) { t.corrupt = fn }

// Lookup probes for k.
func (t *TLB[K, E]) Lookup(k K) (E, bool) {
	e, ok := t.c.Lookup(k)
	if ok {
		t.nHit.Inc()
	} else {
		t.nMiss.Inc()
	}
	return e, ok
}

// Insert installs an entry for k.
func (t *TLB[K, E]) Insert(k K, e E) {
	t.c.Insert(k, e)
	t.nInstall.Inc()
	if t.corrupt != nil {
		if bad, ok := t.corrupt(k, e); ok {
			t.c.Update(k, bad)
			t.nCorrupted.Inc()
		}
	}
}

// Update rewrites the resident entry for k (changing its rights or
// moving it to another page-group) without disturbing replacement state,
// reporting whether it was resident. This is the "single TLB entry"
// update of Section 4.1.2.
func (t *TLB[K, E]) Update(k K, e E) bool {
	p := t.Rewrite(k)
	if p != nil {
		*p = e
	}
	return p != nil
}

// Rewrite returns k's resident entry for the caller to rewrite in place,
// counting an update, or nil when k is not resident. Replacement state
// is not disturbed, and the pointer is valid until the next Insert,
// Invalidate or purge.
func (t *TLB[K, E]) Rewrite(k K) *E {
	p := t.c.Ref(k)
	if p != nil {
		t.nUpdate.Inc()
	}
	return p
}

// Invalidate removes the entry for k.
func (t *TLB[K, E]) Invalidate(k K) bool {
	ok := t.c.Invalidate(k)
	if ok {
		t.nInvalidated.Inc()
	}
	return ok
}

// PurgeIf removes every entry pred selects, inspecting every resident
// one: on a conventional architecture a mapping change for a shared page
// must find and purge each address space's duplicate, the scan the paper
// warns about.
func (t *TLB[K, E]) PurgeIf(pred func(K, E) bool) int {
	removed, inspected := t.c.PurgeIf(pred)
	t.nPurged.Add(uint64(removed))
	t.nInspected.Add(uint64(inspected))
	return removed
}

// PurgeOwner removes all entries of owner o (an address space). It is
// priced as a scan of every entry, but the host visits only the owner's
// own.
func (t *TLB[K, E]) PurgeOwner(o uint32) int {
	removed, inspected := t.c.PurgeOwner(o, nil)
	t.nPurged.Add(uint64(removed))
	t.nInspected.Add(uint64(inspected))
	return removed
}

// PurgeAll empties the TLB, returning how many entries were resident.
// It bumps no counter: a machine that reports its whole-TLB purges
// counts them itself (the conventional machine, under tlb.purged).
func (t *TLB[K, E]) PurgeAll() int { return t.c.PurgeAll() }

// Len returns the number of resident entries.
func (t *TLB[K, E]) Len() int { return t.c.Len() }

// Capacity returns the entry capacity.
func (t *TLB[K, E]) Capacity() int { return t.c.Capacity() }

// HasOwner reports whether any entry of owner o is resident.
func (t *TLB[K, E]) HasOwner(o uint32) bool { return t.c.HasOwner(o) }

// ForEach visits all resident entries until fn returns false.
func (t *TLB[K, E]) ForEach(fn func(K, E) bool) { t.c.ForEach(fn) }

// EntryBits returns the architectural width in bits of a combined
// (translation + protection) TLB entry for the equal-silicon comparison
// of Section 4: VPN tag + PFN + AID/rights or ASID as given.
func EntryBits(vaBits, pageShift, paBits, extraBits int) int {
	return (vaBits - pageShift) + (paBits - pageShift) + extraBits
}
