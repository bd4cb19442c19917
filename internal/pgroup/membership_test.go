package pgroup

import (
	"slices"
	"testing"

	"repro/internal/addr"
)

// wdEntry is one element of an ID vector kept sorted by id, carrying a
// write-disable bit: the representation Membership replaced, kept as the
// reference FuzzMembershipMatchesReference holds it to.
type wdEntry[K addr.GroupID | addr.DomainID] struct {
	id K
	wd bool
}

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

// refMembership is a membership set as a sorted vector: every put and
// delete binary-searches it and shifts the tail.
type refMembership[K addr.GroupID | addr.DomainID] struct {
	v []wdEntry[K]
}

func (r *refMembership[K]) Get(id K) (ok, wd bool) {
	i, ok := find(r.v, id)
	return ok, ok && r.v[i].wd
}

func (r *refMembership[K]) Put(id K, wd bool) {
	if i, ok := find(r.v, id); ok {
		r.v[i].wd = wd
	} else {
		r.v = slices.Insert(r.v, i, wdEntry[K]{id: id, wd: wd})
	}
}

func (r *refMembership[K]) Delete(id K) bool {
	i, ok := find(r.v, id)
	if ok {
		r.v = slices.Delete(r.v, i, i+1)
	}
	return ok
}

func (r *refMembership[K]) Copy(o *refMembership[K]) { r.v = append(r.v[:0], o.v...) }

// walk lists a Membership's members in visiting order.
func walk[K addr.GroupID | addr.DomainID](m *Membership[K]) []wdEntry[K] {
	var out []wdEntry[K]
	m.ForEach(func(id K, wd bool) { out = append(out, wdEntry[K]{id: id, wd: wd}) })
	return out
}

// fuzzIDs are the IDs an op may name besides 0-255: both sides of the
// 64-bit word edges and the top of the DomainID range.
var fuzzIDs = []addr.DomainID{0, 63, 64, 127, 128, 65535}

// FuzzMembershipMatchesReference decodes its input into a script of
// operations on two sets and applies each to a Membership and to the
// sorted vector it replaced, requiring equal results and equal walks.
// Each op is two bytes: the low three bits of the first pick the
// operation (put, delete, get, count, copy, clear, walk, walk), the
// next bit the set, the next the write-disable bit, and the next whether
// the second byte is an ID or an index into fuzzIDs.
func FuzzMembershipMatchesReference(f *testing.F) {
	f.Add([]byte{0, 5, 16, 5, 0, 200, 6, 0, 2, 5, 1, 5, 3, 0, 6, 0})
	f.Add([]byte{32, 1, 48, 2, 32, 3, 32, 4, 48, 5, 6, 0, 12, 0, 15, 0, 14, 0, 1, 0})
	f.Add([]byte{32, 5, 41, 5, 0, 63, 0, 64, 7, 0, 4, 0, 7, 0, 13, 0, 5, 0, 3, 0, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got [2]Membership[addr.DomainID]
		var ref [2]refMembership[addr.DomainID]
		for step := 0; len(data) >= 2; step++ {
			op, arg := data[0], data[1]
			data = data[2:]
			s, wd := int(op>>3&1), op>>4&1 == 1
			id := addr.DomainID(arg)
			if op>>5&1 == 1 {
				id = fuzzIDs[int(arg)%len(fuzzIDs)]
			}
			m, r := &got[s], &ref[s]
			switch op & 7 {
			case 0:
				m.Put(id, wd)
				r.Put(id, wd)
			case 1:
				if g, w := m.Delete(id), r.Delete(id); g != w {
					t.Fatalf("step %d: Delete(%d) = %v, reference %v", step, id, g, w)
				}
			case 2:
				ok, w := m.Get(id)
				rok, rw := r.Get(id)
				if ok != rok || w != rw {
					t.Fatalf("step %d: Get(%d) = %v,%v, reference %v,%v", step, id, ok, w, rok, rw)
				}
			case 3:
				if m.Count() != len(r.v) {
					t.Fatalf("step %d: Count %d, reference holds %d", step, m.Count(), len(r.v))
				}
			case 4:
				m.Copy(&got[1-s])
				r.Copy(&ref[1-s])
			case 5:
				m.Clear()
				r.v = r.v[:0]
			case 6, 7:
				if w := walk(m); !slices.Equal(w, r.v) {
					t.Fatalf("step %d: walk %v, reference %v", step, w, r.v)
				}
			}
		}
		for s := range got {
			if w := walk(&got[s]); !slices.Equal(w, ref[s].v) {
				t.Fatalf("set %d: final walk %v, reference %v", s, w, ref[s].v)
			}
		}
	})
}
