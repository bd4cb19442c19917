package kernel

import (
	"repro/internal/addr"
	"repro/internal/smp"
)

// Shootdown integration: the kernel is the smp.Handler — it maps
// delivered requests onto the target CPU's machine — and the protection
// engines are the producers. Targeting comes from the sharer directory
// (directory.go), which tracks live installs rather than lifetime
// history:
//
//   - Domain-keyed state (PLB entries, ASID-tagged TLB entries) goes to
//     the domain's residency set — CPUs where hardware installed an
//     entry naming the domain since their last bulk invalidation, with
//     membership withdrawn when a removal shootdown provably drops the
//     domain's last entry on a CPU.
//   - Checker state (PID registers / group cache) is purged on every
//     domain switch, so group loads/revocations only matter on seats
//     currently executing the domain: the executing-seat set Switch and
//     ProgramDevice keep per domain ID.
//   - Translation and page-group TLB state is domain-agnostic but
//     page-keyed: unmaps and regroups go to the page's sharer set
//     (shootPage/shootRange), not to every CPU that ever ran anything.
//
// Each protection change is one smp.Request: the shoot* helpers apply
// it to the current CPU's machine and enqueue the same request for the
// remote sharers, so local and remote maintenance cannot drift apart.
// A helper enqueues in one smp.Shootdown.EnqueueSet pass over its target
// set, which skips the current CPU and owns the fenced-skip rule: a
// fenced (quarantined or degraded) seat is marked stale instead of
// queued, and the bulk invalidation of its rejoin subsumes the request.
// Every kernel-level protection operation then flushes once, so all
// requests raised by one operation share one IPI per target CPU
// (batching), with identical requests coalesced. Delivery applies a
// request to seat t through the kernel's one seat table (CPUs, then
// devices), whatever the seat's kind.

// shootDomain applies r locally and enqueues it for every remote CPU
// that may cache domain d's protection entries.
func (k *Kernel) shootDomain(d *Domain, r smp.Request) {
	r.Domain = d.ID
	k.mach.Apply(r)
	k.queueDomain(d, r)
}

// queueDomain enqueues r for every remote seat in d's residency set.
func (k *Kernel) queueDomain(d *Domain, r smp.Request) {
	if k.shoot != nil {
		k.shoot.EnqueueSet(&d.cpus, k.cur, &r)
	}
}

// purgeDomain drops every protection entry naming the dying domain d:
// one DomainPurge on the current CPU, when the directory lists it as a
// sharer, and one per remote sharer seat.
func (k *Kernel) purgeDomain(d *Domain) {
	r := smp.Request{Kind: smp.DomainPurge, Domain: d.ID}
	if d.cpus.Has(k.cur) {
		k.mach.Apply(r)
		d.cpus.Remove(k.cur)
	}
	k.queueDomain(d, r)
}

// shootExecuting applies r locally when the current CPU executes domain
// d, and enqueues it for every other seat executing d, CPUs then devices
// in seat order. Checker state is rebuilt on switch, so only a CPU with
// d switched in holds it, and a machine ignores a group load or
// revocation for a domain it does not execute; a device programmed on
// d's behalf holds the analogous membership cache.
func (k *Kernel) shootExecuting(d *Domain, r smp.Request) {
	r.Domain = d.ID
	if k.mach.Domain() == d.ID {
		k.mach.Apply(r)
	}
	if k.shoot != nil && int(d.ID) < len(k.executing) {
		k.shoot.EnqueueSet(&k.executing[d.ID], k.cur, &r)
	}
}

// executes reports whether some seat shootExecuting reaches runs d: the
// local machine, or a seat in d's executing-seat set.
func (k *Kernel) executes(d *Domain) bool {
	if k.mach.Domain() == d.ID {
		return true
	}
	return k.shoot != nil && int(d.ID) < len(k.executing) && !k.executing[d.ID].Empty()
}

// moveExecuting records that seat t switched from executing domain from
// to executing domain to (Switch on a CPU, ProgramDevice on a device).
// NilDomain, the state every seat starts in, has no set. Callers skip it
// on kernels without a shootdown subsystem, which keep no sets; a kernel
// with devices always has one.
func (k *Kernel) moveExecuting(t int, from, to addr.DomainID) {
	if from != addr.NilDomain {
		k.executing[from].Remove(t)
	}
	if to != addr.NilDomain {
		if n := int(to) + 1; n > len(k.executing) {
			k.executing = append(k.executing, make([]smp.CPUSet, n-len(k.executing))...)
		}
		k.executing[to].Add(t)
	}
}

// flushIPIs delivers all pending shootdown batches: one IPI per target
// CPU. Called at the end of every kernel operation that enqueued
// remote maintenance; a no-op while shootdowns are deferred.
func (k *Kernel) flushIPIs() {
	if k.shoot != nil && k.deferDepth == 0 {
		k.shoot.Flush()
	}
}

// DeferShootdowns suspends the per-operation IPI flush: subsequent
// protection operations accumulate their remote invalidations in the
// per-CPU queues, where identical same-page requests coalesce — the
// lazy-shootdown optimization of Black et al. The caller owns the
// consistency window: remote CPUs may act on stale entries until
// FlushShootdowns runs, so defer only across operations whose pages no
// remote CPU touches in between (e.g. a page-out burst by one pager).
// Windows nest: each DeferShootdowns must be balanced by a
// FlushShootdowns, and only the outermost one delivers.
func (k *Kernel) DeferShootdowns() { k.deferDepth++ }

// FlushShootdowns closes the innermost DeferShootdowns window; when it
// is the outermost (or no window is open), everything queued is
// delivered, one IPI per target CPU.
func (k *Kernel) FlushShootdowns() {
	if k.deferDepth > 0 {
		k.deferDepth--
	}
	if k.deferDepth == 0 && k.shoot != nil {
		k.shoot.Flush()
	}
}

// EnableShootdownProtocol switches cross-CPU invalidation from
// fire-and-forget to the acknowledged retry/quarantine protocol
// (smp.Shootdown.EnableProtocol). No-op on a uniprocessor, which sends
// no shootdowns at all — the protocol's zero-overhead baseline.
func (k *Kernel) EnableShootdownProtocol(cfg smp.ProtocolConfig) {
	if k.shoot != nil {
		k.shoot.EnableProtocol(cfg)
	}
}

// ShootdownProtocolEnabled reports whether acknowledged delivery is on.
func (k *Kernel) ShootdownProtocolEnabled() bool {
	return k.shoot != nil && k.shoot.ProtocolEnabled()
}

// SeatTrusted reports whether seat t's structures can be believed (a
// CPU's seat is its index): no shootdown was skipped (fenced seat
// marked stale) since its last rejoin purge. The oracle checks only
// trusted seats mid-run — an untrusted CPU cannot execute domains
// (SetCPU rejoins it first) and an untrusted device's DMA is fenced, so
// their stale entries are dormant, not live authority. A degraded seat
// oscillates: fenced from delivery forever, but trusted between a
// rejoin purge and the next skipped shootdown (flush-on-switch).
func (k *Kernel) SeatTrusted(t int) bool {
	return k.shoot == nil || k.shoot.Trusted(t)
}

// SeatHealth returns the shootdown layer's health view of seat t: CPU
// t, or the device seated there (Healthy on a uniprocessor).
func (k *Kernel) SeatHealth(t int) smp.Health {
	if k.shoot == nil {
		return smp.Healthy
	}
	return k.shoot.SeatHealth(t)
}

// SetIPIFault installs (or with nil removes) a chaos hook that drops or
// delays individual IPI-delivered requests. No-op on a uniprocessor.
func (k *Kernel) SetIPIFault(fn smp.FaultHook) {
	if k.shoot != nil {
		k.shoot.SetFault(fn)
	}
}

// IPIFaultArmed reports whether a chaos IPI fault hook is installed;
// always false on a uniprocessor.
func (k *Kernel) IPIFaultArmed() bool {
	return k.shoot != nil && k.shoot.FaultArmed()
}

// ApplyShootdown implements smp.Handler: perform r on seat t (a CPU's
// machine or a device agent) and report how many resident entries were
// touched. Removal kinds that can drop a domain's last entry on the
// seat re-scan it afterwards and withdraw the seat from the domain's
// residency set when nothing is left — the step that keeps residency
// tracking live sharers instead of growing monotonically. GroupRevoke
// is not among them: only the page-group engine raises it, and that
// engine targets no request by residency.
func (k *Kernel) ApplyShootdown(t int, r smp.Request) int {
	n := k.seats[t].Apply(r)
	switch r.Kind {
	case smp.InvalRights, smp.RangeDetach, smp.DomainPurge:
		k.withdrawIfEmpty(t, r.Domain)
	case smp.PurgeAllProt:
		// Flash-clear: no domain has protection entries on t any more.
		k.doms.forEach(func(dom *Domain) { dom.cpus.Remove(t) })
	}
	return n
}

// CPUCycles implements smp.Handler: seat t's clock.
func (k *Kernel) CPUCycles(t int) uint64 { return k.seats[t].Cycles() }
