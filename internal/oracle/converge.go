package oracle

import (
	"fmt"

	"repro/internal/kernel"
)

// Convergence records one protection-maintenance convergence episode:
// what the kernel promised (Bound, computed before converging), what it
// spent (Cycles), and what the differential check found afterwards.
type Convergence struct {
	Cycles     uint64
	Bound      uint64
	Violations []Violation
}

// CheckConvergence verifies the robustness contract of the
// acknowledged shootdown protocol: driving protection maintenance to
// completion (kernel.ConvergeProtection) must finish within the cycle
// bound computed immediately beforehand, must leave every seat (CPU or
// device) trusted — convergence rejoins quarantined, degraded and stale
// seats, so no structure is exempt from checking afterwards — and the
// differential sweep over all hardware state must report zero
// violations.
//
// Fault hooks may (and in the chaos campaign do) stay armed across the
// call: converging in the continued presence of drops, losses and slow
// responders is exactly what the protocol guarantees. On a
// uniprocessor the check passes trivially at zero cost.
func CheckConvergence(k *kernel.Kernel) (Convergence, error) {
	bound := k.ConvergenceBound()
	cycles := k.ConvergeProtection()
	c := Convergence{Cycles: cycles, Bound: bound}
	if cycles > bound {
		return c, fmt.Errorf("oracle: convergence took %d cycles, exceeding its bound of %d", cycles, bound)
	}
	for t := range k.NumSeats() {
		if !k.SeatTrusted(t) {
			return c, fmt.Errorf("oracle: %s still untrusted (health %v) after convergence", k.SeatName(t), k.SeatHealth(t))
		}
	}
	c.Violations = Violations(k)
	if n := len(c.Violations); n > 0 {
		return c, fmt.Errorf("oracle: %d violation(s) after convergence, first: %s", n, c.Violations[0])
	}
	return c, nil
}
