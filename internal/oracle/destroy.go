package oracle

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/kernel"
	"repro/internal/machine"
)

// Destroy sweep: after DestroyDomain returns, no structure in the whole
// machine may hold one byte of authority for the dead ID — the property
// that makes ID recycling sound. The sweep checks the kernel tables
// (the domain must not be live, and no segment may still list it as
// attached) and then runs the seat audit's loop filtered to entries
// naming the ID: domain-page entries keyed by it (PLB, ASID-tagged TLB,
// IOTLB) and memberships held for it (the checker of a CPU still
// executing it, the group set of a device still programmed on its
// behalf — a destroyed domain's group set is empty, so anything
// resident is stale authority). Untrusted seats are exempt exactly as
// in Violations.

// DestroyViolations sweeps kernel and hardware state for residual
// authority of the destroyed domain id (nil when clean).
func DestroyViolations(k *kernel.Kernel, id addr.DomainID) []Violation {
	a := newAudit(k)
	if k.DomainLive(id) {
		a.out = append(a.out, Violation{
			Where: "destroy", Domain: id,
			Detail: "domain still live in the kernel's domain table",
		})
	}
	for _, s := range k.Segments() {
		if s.HasAttached(id) {
			a.out = append(a.out, Violation{
				Where: "destroy", Domain: id,
				Detail: fmt.Sprintf("segment %q still lists the domain as attached", s.Name),
			})
		}
	}
	a.seats(func(s machine.Seat) {
		s.Entries(func(e machine.Entry) bool {
			switch {
			case e.Domain != id:
			case e.Kind == machine.DomainPage:
				a.note("destroy", id, a.vpn(e), "%s entry (shift %d) still holds %v", e.Where, e.Shift, e.Rights)
			case e.Kind == machine.Membership && e.Group != addr.GlobalGroup:
				a.note("destroy", id, 0, "%s still holds group %d (writeDisable=%v)", e.Where, e.Group, e.WriteDisable)
			}
			return true
		})
	})
	return a.out
}

// VerifyDestroyed runs DestroyViolations and wraps any findings in an
// error — the in-run gate the session-churn experiment calls after
// (sampled) destroys.
func VerifyDestroyed(k *kernel.Kernel, id addr.DomainID) error {
	return report(DestroyViolations(k, id), "oracle: domain %d: %d residual-authority violation(s):", id)
}
