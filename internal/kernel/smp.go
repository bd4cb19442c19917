package kernel

import "repro/internal/smp"

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
//     domain switch, so group loads/revocations only matter on CPUs
//     currently executing the domain.
//   - Translation and page-group TLB state is domain-agnostic but
//     page-keyed: unmaps and regroups go to the page's sharer set
//     (shootPage/shootRange), not to every CPU that ever ran anything.
//
// Each protection change is one smp.Request: the shoot* helpers apply
// it to the current CPU's machine and enqueue the same request for the
// remote sharers, so local and remote maintenance cannot drift apart.
// Every kernel-level protection operation then flushes once, so all
// requests raised by one operation share one IPI per target CPU
// (batching), with identical requests coalesced.

// shootDomain applies r locally and enqueues it for every remote CPU
// that may cache domain d's protection entries.
func (k *Kernel) shootDomain(d *Domain, r smp.Request) {
	r.Domain = d.ID
	k.mach.Apply(r)
	k.queueDomain(d, r)
}

// queueDomain enqueues r for every remote seat in d's residency set.
func (k *Kernel) queueDomain(d *Domain, r smp.Request) {
	if k.shoot == nil {
		return
	}
	d.cpus.ForEach(func(i int) {
		if i != k.cur {
			k.enqueueShoot(i, r)
		}
	})
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

// enqueueShoot routes one request to CPU i unless i is fenced
// (quarantined or degraded): a fenced CPU cannot be reached by IPI, so
// instead of queueing, the kernel records the skip — the CPU is marked
// stale and the suppressed invalidation is counted
// ("smp.fenced_skips") so overhead accounting stays complete — and the
// CPU will be bulk-invalidated before it executes anything (SetCPU
// rejoin), which subsumes the skipped invalidation. Removal kinds that
// do get applied withdraw the target from the domain's residency set
// when the scan proves its last entry is gone.
func (k *Kernel) enqueueShoot(i int, r smp.Request) {
	if k.shoot.Fenced(i) {
		k.shoot.SkipFenced(i)
		return
	}
	k.shoot.Enqueue(i, r)
}

// shootExecuting applies r locally and enqueues it for every remote CPU
// currently executing domain d (checker state is rebuilt on switch, so
// only executing CPUs hold it).
func (k *Kernel) shootExecuting(d *Domain, r smp.Request) {
	r.Domain = d.ID
	k.mach.Apply(r)
	if k.shoot == nil {
		return
	}
	for i := range k.machs {
		if i != k.cur && k.machs[i].Domain() == d.ID {
			k.enqueueShoot(i, r)
		}
	}
	// Device agents programmed on the domain's behalf hold the analogous
	// group state (their membership cache) and count as executing it.
	for i, dev := range k.devs {
		if dev.OnBehalf() == d.ID {
			k.enqueueShoot(k.DeviceSeat(i), r)
		}
	}
}

// markInstalled records that domain d's rights were installed on the
// current CPU outside a switch (eager installs), so future shootdowns
// reach this CPU too.
func (k *Kernel) markInstalled(d *Domain) { d.cpus.Add(k.cur) }

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

// CPUTrusted reports whether CPU i's private structures can be
// believed: no shootdown was skipped (fenced CPU marked stale) since
// its last rejoin purge. The oracle checks only trusted CPUs mid-run —
// an untrusted CPU cannot execute domains (SetCPU rejoins it first),
// so its stale entries are dormant, not live authority. A degraded CPU
// oscillates: fenced from delivery forever, but trusted between a
// rejoin purge and the next skipped shootdown (flush-on-switch).
func (k *Kernel) CPUTrusted(i int) bool {
	return k.shoot == nil || k.shoot.Trusted(i)
}

// CPUHealth returns the shootdown layer's health view of CPU i
// (Healthy on a uniprocessor).
func (k *Kernel) CPUHealth(i int) smp.Health {
	if k.shoot == nil {
		return smp.Healthy
	}
	return k.shoot.CPUHealth(i)
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

// PendingShootdowns returns the number of requests queued (including
// chaos-delayed ones) for CPU i; zero on a uniprocessor.
func (k *Kernel) PendingShootdowns(i int) int {
	if k.shoot == nil {
		return 0
	}
	return k.shoot.Pending(i)
}

// ApplyShootdown implements smp.Handler: perform r on seat t (a CPU's
// machine or a device agent) and report how many resident entries were
// touched. Removal kinds that can drop a domain's last entry on the
// seat re-scan it afterwards and withdraw the seat from the domain's
// residency set when nothing is left — the step that keeps residency
// tracking live sharers instead of growing monotonically.
func (k *Kernel) ApplyShootdown(t int, r smp.Request) int {
	n := k.seat(t).Apply(r)
	switch r.Kind {
	case smp.InvalRights, smp.RangeDetach, smp.GroupRevoke, smp.DomainPurge:
		k.withdrawIfEmpty(t, r.Domain)
	case smp.PurgeAllProt:
		// Flash-clear: no domain has protection entries on t any more.
		k.doms.forEach(func(dom *Domain) { dom.cpus.Remove(t) })
	}
	return n
}

// CPUCycles implements smp.Handler: seat t's clock.
func (k *Kernel) CPUCycles(t int) uint64 { return k.seat(t).Cycles() }
