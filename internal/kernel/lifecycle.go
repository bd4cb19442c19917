package kernel

import (
	"errors"
	"fmt"

	"repro/internal/addr"
)

// Protection-domain lifecycle: checked creation with typed exhaustion
// errors, copy-on-write fork, full destruction, and ID recycling.
//
// Domains are the paper's unit of distrust, and a multi-tenant single
// address space system treats them as cheap, transient objects (Opal's
// sessions, μFork-style spawning): millions of create/destroy cycles
// must neither exhaust the narrow hardware ID spaces — DomainID doubles
// as the conventional machine's ASID, GroupID as the PA-RISC AID — nor
// leave one byte of residual authority behind. Destroyed IDs go onto
// free lists and are recycled LIFO; the Domain struct itself is pooled
// so a recycled ID reuses its emptied attachment vector and group set.

// Typed lifecycle errors.
var (
	// ErrDomainIDsExhausted: every DomainID is live; CreateDomainChecked
	// cannot mint a fresh one until a domain is destroyed.
	ErrDomainIDsExhausted = errors.New("kernel: domain IDs exhausted")
	// ErrGroupIDsExhausted: the page-group engine ran out of group
	// numbers (the §4.1.4 exhaustion the paper's recycling addresses).
	ErrGroupIDsExhausted = errors.New("kernel: page-group IDs exhausted")
	// ErrDomainDestroyed: the operation named a destroyed domain through a
	// kept handle (after recycling, the pooled struct is live again).
	ErrDomainDestroyed = errors.New("kernel: domain destroyed")
)

// LiveDomains returns the number of live protection domains.
func (k *Kernel) LiveDomains() int { return k.doms.len() }

// DomainLive reports whether id names a live domain.
func (k *Kernel) DomainLive(id addr.DomainID) bool { return k.doms.get(id) != nil }

// CreateDomainChecked creates a new, empty protection domain, recycling
// a destroyed ID when one is free and returning ErrDomainIDsExhausted
// (wrapped) when the ID space — bounded by the hardware's domain/ASID
// field width, or by SetIDLimits — is fully live. An empty domain is a
// near-zero-allocation object: its attachment, override and group
// structures materialize on first use. A device still programmed for a
// recycled ID is reset to no domain, so the new tenant starts with no
// device acting for it.
func (k *Kernel) CreateDomainChecked() (*Domain, error) {
	var d *Domain
	if n := len(k.freeDomains); n > 0 {
		d = k.freeDomains[n-1]
		k.freeDomains[n-1] = nil
		k.freeDomains = k.freeDomains[:n-1]
		k.hDomainsRecycled.Inc()
		for i, dev := range k.devs {
			if dev.OnBehalf() == d.ID {
				k.moveExecuting(k.DeviceSeat(i), d.ID, addr.NilDomain)
				dev.SetOnBehalf(addr.NilDomain)
			}
		}
	} else {
		if k.nextDomain == 0 || (k.maxDomain != 0 && k.nextDomain > k.maxDomain) {
			return nil, fmt.Errorf("%w: %d live, none free",
				ErrDomainIDsExhausted, k.doms.len())
		}
		d = &Domain{ID: k.nextDomain}
		k.nextDomain++
	}
	k.doms.put(d)
	k.hDomainsCreated.Inc()
	return d, nil
}

// CreateDomain creates a new, empty protection domain. It panics when
// the domain ID space is exhausted; CreateDomainChecked returns the
// typed error instead — session-churn code must prefer it.
func (k *Kernel) CreateDomain() *Domain {
	d, err := k.CreateDomainChecked()
	if err != nil {
		panic(err)
	}
	return d
}

// ForkDomain creates a child domain that starts with exactly the
// parent's authority: every segment attachment is inherited at the
// parent's rights, and the parent's per-page protection overrides are
// shared copy-on-write — the child (or parent) pays for a private copy
// only when one of them next changes an override. The whole operation
// is charged like refilling protection entries (one Install per
// inherited attachment, the PLB-fill currency of Table 1), not like
// copying a page table: under a single address space there are no
// address mappings to duplicate, which is what makes fork-style session
// spawning cheap here.
func (k *Kernel) ForkDomain(parent *Domain) (*Domain, error) {
	if err := k.checkLive(parent, "fork"); err != nil {
		return nil, err
	}
	child, err := k.CreateDomainChecked()
	if err != nil {
		return nil, err
	}
	child.attached = append(child.attached, parent.attached...)
	for _, a := range parent.attached {
		a.seg.attached.Add(int(child.ID))
	}
	k.cycles.Add(uint64(len(parent.attached)) * k.cost.Install)
	if parent.overrides.Len() > 0 {
		child.overrides = parent.overrides
		parent.overrides.Share()
	}
	k.engine.onFork(parent, child)
	k.hDomainsForked.Inc()
	k.flushIPIs()
	return child, nil
}

// DestroyDomain ends a protection domain: every attachment is severed,
// page-group memberships are revoked, the domain's hardware entries are
// purged locally and withdrawn from every remote CPU and device seat the
// sharer directory lists (one targeted DomainPurge scan per seat —
// traffic scales with actual sharers, not machine size), and its ID goes
// onto the free list for recycling. Afterwards no hardware structure,
// directory set or kernel table holds any authority for the ID (the
// oracle's destroy sweep verifies exactly this). Returns
// ErrDomainDestroyed (wrapped) on a stale handle.
func (k *Kernel) DestroyDomain(d *Domain) error {
	if err := k.checkLive(d, "destroy"); err != nil {
		return err
	}
	// Engine teardown: purge + shoot domain-keyed hardware state, revoke
	// group memberships. Runs before the bookkeeping detach below so
	// the engines still see the attachment set.
	k.engine.onDestroyDomain(d)
	for _, a := range d.attached {
		a.seg.attached.Remove(int(d.ID))
	}
	clear(d.attached) // drop the segment pointers the pooled vector holds
	d.attached = d.attached[:0]
	d.groups.Clear()
	d.overrides.Release()
	d.overrides = nil
	d.execSite = 0
	k.flushIPIs()
	k.doms.remove(d.ID)
	d.cpus.Clear()
	// Pool the struct: the ID rides along, so the next incarnation
	// reuses the emptied attachment vector and group set.
	k.freeDomains = append(k.freeDomains, d)
	k.hDomainsDestroyed.Inc()
	return nil
}
