package ptable

import "repro/internal/addr"

// ProtTable is the sparse per-domain protection table of a single address
// space kernel: the authoritative record of one protection domain's access
// rights to individual virtual pages. Together with segment-level default
// rights (kept by the kernel), it is the software structure the PLB and
// page-group caches are refilled from.
//
// Entries are explicit per-(domain,page) overrides; pages with no entry
// fall back to the domain's segment attachment rights.
//
// The zero table is empty and usable: the inner map materializes on the
// first Set, and every read-side method accepts a nil receiver — a
// freshly created (or forked) domain carries no table at all until it
// takes its first override, so domain churn allocates nothing here.
type ProtTable struct {
	overrides map[addr.VPN]addr.Rights
	// refs counts the domains referencing this table through
	// copy-on-write fork sharing; 0 and 1 both mean a sole owner, who
	// may mutate in place. The count is what keeps the last sharer
	// from paying for a copy nobody else can observe.
	refs int
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

// Set records an explicit per-page rights override.
func (p *ProtTable) Set(vpn addr.VPN, r addr.Rights) {
	if p.overrides == nil {
		p.overrides = make(map[addr.VPN]addr.Rights)
	}
	p.overrides[vpn] = r
}

// Get returns the override for vpn and whether one exists.
func (p *ProtTable) Get(vpn addr.VPN) (addr.Rights, bool) {
	if p == nil {
		return addr.None, false
	}
	r, ok := p.overrides[vpn]
	return r, ok
}

// Clear removes the override for vpn (the page reverts to its segment
// default), reporting whether one existed.
func (p *ProtTable) Clear(vpn addr.VPN) bool {
	if p == nil {
		return false
	}
	if _, ok := p.overrides[vpn]; !ok {
		return false
	}
	delete(p.overrides, vpn)
	return true
}

// ClearRange removes all overrides for pages in [start, start+npages),
// returning how many were removed. When the range is wider than the
// table it walks the entries instead of the pages, so clearing a huge
// segment off a near-empty table costs O(overrides), not O(pages).
func (p *ProtTable) ClearRange(start addr.VPN, npages uint64) int {
	if p == nil || len(p.overrides) == 0 {
		return 0
	}
	n := 0
	if npages > uint64(len(p.overrides)) {
		for vpn := range p.overrides {
			if uint64(vpn) >= uint64(start) && uint64(vpn) < uint64(start)+npages {
				delete(p.overrides, vpn)
				n++
			}
		}
		return n
	}
	for vpn := start; uint64(vpn) < uint64(start)+npages; vpn++ {
		if p.Clear(vpn) {
			n++
		}
	}
	return n
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
	c := &ProtTable{}
	if p == nil || len(p.overrides) == 0 {
		return c
	}
	c.overrides = make(map[addr.VPN]addr.Rights, len(p.overrides))
	for vpn, r := range p.overrides {
		c.overrides[vpn] = r
	}
	return c
}
