package kernel

import (
	"repro/internal/addr"
	"repro/internal/smp"
)

// domainTable is the domain index. Domain lookup is on the access path
// (ResolveRights runs it per protection fault), so it is one slice
// index: byID is indexed by DomainID and grown to the highest ID
// minted. It holds that high-water mark, bounded by the ID type — the
// architectural width of the domain/ASID field — so production scale
// comes from recycling destroyed IDs (lifecycle.go), exactly as the
// paper's Section 4 prescribes for the page-group model's group
// numbers. The live bitset gives ascending-ID iteration that visits no
// empty slot. The zero value is ready to use.
type domainTable struct {
	byID []*Domain
	live smp.CPUSet // bit id set while id is live
}

// get returns the live domain with the given ID, or nil.
func (t *domainTable) get(id addr.DomainID) *Domain {
	if int(id) < len(t.byID) {
		return t.byID[id]
	}
	return nil
}

// put registers d under its ID, growing the slice to cover it.
func (t *domainTable) put(d *Domain) {
	if n := int(d.ID) + 1; n > len(t.byID) {
		t.byID = append(t.byID, make([]*Domain, n-len(t.byID))...)
	}
	t.byID[d.ID] = d
	t.live.Add(int(d.ID))
}

// remove drops the domain with the given ID, if present.
func (t *domainTable) remove(id addr.DomainID) {
	if t.live.Has(int(id)) {
		t.byID[id] = nil
		t.live.Remove(int(id))
	}
}

// len returns the number of live domains.
func (t *domainTable) len() int { return t.live.Count() }

// forEach visits every live domain in ascending ID order.
func (t *domainTable) forEach(fn func(*Domain)) {
	t.live.ForEach(func(id int) { fn(t.byID[id]) })
}
