package kernel

import (
	"repro/internal/addr"
	"repro/internal/smp"
)

// The sharded, lazily-initialized domain index. The original flat
// map[DomainID]*Domain worked for experiments with a handful of
// long-lived domains, but the multi-tenant target — millions of
// short-lived sessions churning through the ID space — wants two
// different properties:
//
//   - Domain lookup is on the access path (ResolveRights runs it per
//     protection fault), so it should be an array index, not a hash
//     probe.
//   - An idle kernel, or one whose sessions all departed, should hold
//     memory proportional to what is live, not to the high-water mark
//     of one big hash table.
//
// domainTable shards the full DomainID space (uint16, so 256 shards of
// 256 slots cover every possible ID) into lazily-allocated fixed-size
// shards: lookup is two array indexes, insertion allocates at most one
// 2 KB shard, and iteration walks a live-ID bitset in ascending ID order
// without sorting or visiting empty slots. Live-domain capacity is
// bounded by the ID type itself — the architectural width of the
// domain/ASID field — so production scale comes from recycling destroyed
// IDs (lifecycle.go), exactly as the paper's Section 4 prescribes for
// the page-group model's group numbers.

const (
	domainShardBits = 8
	domainShards    = 1 << domainShardBits
	domainShardSize = 1 << (16 - domainShardBits) // DomainID is uint16
	domainSlotMask  = domainShardSize - 1
)

type domainShard [domainShardSize]*Domain

// domainTable is the sharded domain index. The zero value is ready to
// use.
type domainTable struct {
	shards [domainShards]*domainShard
	live   smp.CPUSet // bit id set while id is live
}

// get returns the live domain with the given ID, or nil.
func (t *domainTable) get(id addr.DomainID) *Domain {
	s := t.shards[id>>domainShardBits]
	if s == nil {
		return nil
	}
	return s[id&domainSlotMask]
}

// put registers d under its ID, allocating the covering shard on first
// use.
func (t *domainTable) put(d *Domain) {
	hi := d.ID >> domainShardBits
	s := t.shards[hi]
	if s == nil {
		s = new(domainShard)
		t.shards[hi] = s
	}
	s[d.ID&domainSlotMask] = d
	t.live.Add(int(d.ID))
}

// remove drops the domain with the given ID, if present.
func (t *domainTable) remove(id addr.DomainID) {
	if t.live.Has(int(id)) {
		t.shards[id>>domainShardBits][id&domainSlotMask] = nil
		t.live.Remove(int(id))
	}
}

// len returns the number of live domains.
func (t *domainTable) len() int { return t.live.Count() }

// forEach visits every live domain in ascending ID order.
func (t *domainTable) forEach(fn func(*Domain)) {
	t.live.ForEach(func(id int) { fn(t.get(addr.DomainID(id))) })
}
