package pgroup

import (
	"repro/internal/addr"
	"repro/internal/smp"
)

// Membership is one side of the page-group membership relation
// (§4.1.2): a set of small dense IDs, each carrying a write-disable bit.
// A domain's or a device's group set is a Membership[addr.GroupID], and
// the membership the page-group engine wants for a page a
// Membership[addr.DomainID].
//
// It is two bitsets, the members and the write-disable bits of members,
// so Put, Delete and Get are one bit operation each and a walk visits IDs
// in ascending order. Group numbers and domain IDs are recycled from free
// lists, so a set stays as long as the peak number of live IDs.
//
// The zero value is empty and ready to use. Clear and Copy keep the
// backing words, so a pooled holder reuses them from one life to the
// next.
type Membership[K addr.GroupID | addr.DomainID] struct {
	ids, wd smp.CPUSet
}

// Get reports whether id is a member and, if so, its write-disable bit.
func (m *Membership[K]) Get(id K) (ok, wd bool) {
	return m.ids.Has(int(id)), m.wd.Has(int(id))
}

// Put makes id a member with write-disable bit wd.
func (m *Membership[K]) Put(id K, wd bool) {
	m.ids.Add(int(id))
	if wd {
		m.wd.Add(int(id))
	} else {
		m.wd.Remove(int(id))
	}
}

// Delete removes id, reporting whether it was a member.
func (m *Membership[K]) Delete(id K) bool {
	if !m.ids.Has(int(id)) {
		return false
	}
	m.ids.Remove(int(id))
	m.wd.Remove(int(id))
	return true
}

// Count returns the number of members.
func (m *Membership[K]) Count() int { return m.ids.Count() }

// Clear removes every member, keeping the backing words.
func (m *Membership[K]) Clear() {
	m.ids.Clear()
	m.wd.Clear()
}

// Copy makes m hold exactly o's members and bits.
func (m *Membership[K]) Copy(o *Membership[K]) {
	m.Clear()
	m.ids.Union(&o.ids)
	m.wd.Union(&o.wd)
}

// ForEach calls fn for every member in ascending ID order, the order
// shootdowns are enqueued and entries listed in.
func (m *Membership[K]) ForEach(fn func(id K, wd bool)) {
	m.ids.ForEach(func(i int) { fn(K(i), m.wd.Has(i)) })
}
