// Package pgroup implements the processor-side page-group check of the
// PA-RISC protection architecture (Figure 2): the structure holding the
// set of page-groups the currently executing protection domain may access.
//
// One structure, GroupCache, serves both variants the paper discusses,
// told apart by replacement policy:
//
//   - the paper's assumed variant (after Wilkes & Sears), an LRU cache of
//     permitted page-groups;
//
//   - the real PA-RISC's four PID registers. The hardware gives the OS no
//     replacement information, so the OS reloads them round-robin on
//     misses: a fully associative FIFO cache of one way per register,
//     which evicts the oldest load just as the round-robin pointer does
//     until a Remove frees a register.
//
// Both honour the write-disable bit attached to a domain's access to a
// group, and both treat AID 0 (the global group) as always accessible. A
// GroupCache holds state for the currently executing domain only; domain
// switches purge it (Section 4.1.4).
//
// Membership is the set type behind the membership relation those
// structures cache: the kernel's domain group sets and derived-group
// member sets, and a device agent's membership cache.
package pgroup

import (
	"repro/internal/addr"
	"repro/internal/assoc"
	"repro/internal/stats"
)

// Corruptor is GroupCache's chaos-testing hook; see
// GroupCache.SetCorruptor.
type Corruptor func(g addr.GroupID, writeDisabled bool) (addr.GroupID, bool, bool)

// GroupCache is an associative cache of the page-groups the executing
// domain may access, keyed by group with the write-disable bit as value:
// LRU for the Wilkes-Sears variant, FIFO for PID registers.
type GroupCache struct {
	c *assoc.Cache[addr.GroupID, bool] // value: write-disable bit

	nHit, nMiss, nLoad stats.Handle
	nPurged, nRemoved  stats.Handle
	nCorrupted         stats.Handle

	corrupt Corruptor
}

// NewGroupCache creates a group cache with the given geometry, counting
// under prefix. It panics on an invalid geometry, as assoc.New does.
func NewGroupCache(cfg assoc.Config, ctrs *stats.Counters, prefix string) *GroupCache {
	g := &GroupCache{}
	g.c = assoc.New[addr.GroupID, bool](cfg, func(k addr.GroupID) uint64 { return uint64(k) })
	g.nHit = ctrs.Handle(prefix + ".hit")
	g.nMiss = ctrs.Handle(prefix + ".miss")
	g.nLoad = ctrs.Handle(prefix + ".load")
	g.nPurged = ctrs.Handle(prefix + ".purged")
	g.nRemoved = ctrs.Handle(prefix + ".removed")
	g.nCorrupted = ctrs.Handle(prefix + ".corrupted")
	return g
}

// SetCorruptor installs (or, with nil, removes) a chaos-testing hook
// consulted on every Load; returning a replacement (group,
// write-disable) with true corrupts the loaded entry in place — modeling
// a stale PID register or a flipped AID bit, which grants the current
// domain access to the wrong page-group. Corrupted loads are counted
// under prefix+".corrupted".
func (g *GroupCache) SetCorruptor(fn Corruptor) { g.corrupt = fn }

// Check reports whether the current domain may access group gid, and
// whether writes to the group are disabled. Check(GlobalGroup) is always
// (true, false).
func (g *GroupCache) Check(gid addr.GroupID) (bool, bool) {
	if gid == addr.GlobalGroup {
		g.nHit.Inc()
		return true, false
	}
	wd, ok := g.c.Lookup(gid)
	if ok {
		g.nHit.Inc()
		return true, wd
	}
	g.nMiss.Inc()
	return false, false
}

// Load installs group gid (after the kernel validates access on a miss
// trap). Reloading a resident group rewrites its write-disable bit; under
// FIFO it keeps its age, as a reloaded PID register keeps its place in
// the round-robin order.
func (g *GroupCache) Load(gid addr.GroupID, writeDisabled bool) {
	if g.corrupt != nil {
		if gid2, wd2, ok := g.corrupt(gid, writeDisabled); ok {
			gid, writeDisabled = gid2, wd2
			g.nCorrupted.Inc()
		}
	}
	g.c.Insert(gid, writeDisabled)
	g.nLoad.Inc()
}

// Remove drops group gid, reporting whether it was resident. Removals
// are the group-revocation traffic of Section 4.1.1 and are counted
// under prefix+".removed".
func (g *GroupCache) Remove(gid addr.GroupID) bool {
	ok := g.c.Invalidate(gid)
	if ok {
		g.nRemoved.Inc()
	}
	return ok
}

// PurgeAll empties the structure (domain switch), returning how many
// entries were resident.
func (g *GroupCache) PurgeAll() int {
	n := g.c.PurgeAll()
	g.nPurged.Add(uint64(n))
	return n
}

// Capacity returns the maximum number of resident groups.
func (g *GroupCache) Capacity() int { return g.c.Capacity() }

// ForEach visits all resident groups until fn returns false.
func (g *GroupCache) ForEach(fn func(addr.GroupID, bool) bool) { g.c.ForEach(fn) }
