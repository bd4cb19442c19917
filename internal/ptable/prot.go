package ptable

import (
	"slices"

	"repro/internal/addr"
)

// ProtTable is the sparse per-domain protection table of a single address
// space kernel: the authoritative record of one protection domain's access
// rights to individual virtual pages. Together with segment-level default
// rights (kept by the kernel), it is the software structure the PLB and
// page-group caches are refilled from.
//
// Entries are explicit per-(domain,page) overrides; pages with no entry
// fall back to the domain's segment attachment rights.
//
// The overrides live in one slice sorted by page. Get is a binary search;
// Range walks a page range's overrides in page order, so a caller
// re-deriving a whole segment reads each domain's overrides there in one
// pass instead of probing every page; ClearRange deletes a range's run in
// one move; Clone copies one slice.
//
// The zero table is empty and usable: the slice materializes on the
// first Set, and every read-side method accepts a nil receiver — a
// freshly created (or forked) domain carries no table at all until it
// takes its first override, so domain churn allocates nothing here.
type ProtTable struct {
	overrides []override // ascending by vpn
	// refs counts the domains referencing this table through
	// copy-on-write fork sharing; 0 and 1 both mean a sole owner, who
	// may mutate in place. The count is what keeps the last sharer
	// from paying for a copy nobody else can observe.
	refs int
}

// override is one page's explicit rights.
type override struct {
	vpn addr.VPN
	r   addr.Rights
}

// Share records one more copy-on-write referent (a fork).
func (p *ProtTable) Share() {
	if p.refs == 0 {
		p.refs = 2
		return
	}
	p.refs++
}

// Release drops one referent — a sharer broke off with a private copy,
// or died.
func (p *ProtTable) Release() {
	if p != nil && p.refs > 0 {
		p.refs--
	}
}

// Shared reports whether more than one domain references the table, so
// a mutation must clone first.
func (p *ProtTable) Shared() bool { return p != nil && p.refs > 1 }

// NewProtTable creates an empty protection table.
func NewProtTable() *ProtTable {
	return &ProtTable{}
}

// search returns the index of the first override at or after vpn, and
// whether it is vpn's own.
func (p *ProtTable) search(vpn addr.VPN) (int, bool) {
	lo, hi := 0, len(p.overrides)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.overrides[m].vpn < vpn {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(p.overrides) && p.overrides[lo].vpn == vpn
}

// Set records an explicit per-page rights override.
func (p *ProtTable) Set(vpn addr.VPN, r addr.Rights) {
	i, ok := p.search(vpn)
	if ok {
		p.overrides[i].r = r
		return
	}
	p.overrides = slices.Insert(p.overrides, i, override{vpn, r})
}

// Get returns the override for vpn and whether one exists.
func (p *ProtTable) Get(vpn addr.VPN) (addr.Rights, bool) {
	if p == nil {
		return addr.None, false
	}
	if i, ok := p.search(vpn); ok {
		return p.overrides[i].r, true
	}
	return addr.None, false
}

// Clear removes the override for vpn (the page reverts to its segment
// default), reporting whether one existed.
func (p *ProtTable) Clear(vpn addr.VPN) bool {
	if p == nil {
		return false
	}
	i, ok := p.search(vpn)
	if ok {
		p.overrides = slices.Delete(p.overrides, i, i+1)
	}
	return ok
}

// ClearRange removes all overrides for pages in [start, start+npages),
// returning how many were removed.
func (p *ProtTable) ClearRange(start addr.VPN, npages uint64) int {
	if p == nil {
		return 0
	}
	lo, _ := p.search(start)
	hi := lo
	for hi < len(p.overrides) && uint64(p.overrides[hi].vpn-start) < npages {
		hi++
	}
	p.overrides = slices.Delete(p.overrides, lo, hi)
	return hi - lo
}

// Range calls fn on the override of every page in [start, start+npages)
// that has one, in ascending page order, until fn returns false.
func (p *ProtTable) Range(start addr.VPN, npages uint64, fn func(addr.VPN, addr.Rights) bool) {
	if p == nil {
		return
	}
	i, _ := p.search(start)
	for ; i < len(p.overrides); i++ {
		o := p.overrides[i]
		if uint64(o.vpn-start) >= npages || !fn(o.vpn, o.r) {
			return
		}
	}
}

// Len returns the number of overrides.
func (p *ProtTable) Len() int {
	if p == nil {
		return 0
	}
	return len(p.overrides)
}

// Clone returns an independent copy — the copy-on-write break a forked
// domain performs before its first divergent override.
func (p *ProtTable) Clone() *ProtTable {
	if p == nil {
		return &ProtTable{}
	}
	return &ProtTable{overrides: slices.Clone(p.overrides)}
}
