package kernel

import (
	"repro/internal/addr"
	"repro/internal/stats"
)

// FaultInjector forces failures at the kernel's decision points, making
// the ad-hoc degradation scenarios of failure_test.go a first-class,
// reusable mechanism: robustness workloads install one with
// SetFaultInjector and the kernel consults it at each hook. A nil hook
// costs nothing. Every fired injection is counted
// (kernel.injected_*) so experiments can correlate injected faults with
// the recovery work they triggered.
type FaultInjector struct {
	// FrameAlloc is consulted before every physical frame allocation; a
	// non-nil error makes the allocation fail with it (simulating memory
	// exhaustion or a faulty frame pool) before the allocator runs.
	FrameAlloc func(vpn addr.VPN) error
	// HandlerError is consulted before a segment fault handler runs; a
	// non-nil error replaces the handler's verdict (simulating a buggy
	// or crashed user-level handler). The fault is then surfaced as a
	// protection error exactly as a real handler failure would be.
	HandlerError func(f Fault) error
	// SpuriousTrap is consulted before each access; returning true
	// raises a protection trap even though the domain's rights are fine
	// (simulating glitching protection hardware). The trap is charged
	// and delivered to the segment's handler like any real fault, so
	// handlers must be idempotent to survive it.
	SpuriousTrap func(d addr.DomainID, va addr.VA, kind addr.AccessKind) bool
	// PageOut is consulted before a page-out writes to the backing
	// store; a non-nil error fails the page-out with it (simulating a
	// backing-store write error) before any kernel state changes, so the
	// page stays resident and consistent.
	PageOut func(vpn addr.VPN) error
	// PageIn is consulted before a page-in reads from the backing
	// store; a non-nil error fails the page-in with it (simulating a
	// backing-store read error) before a frame is allocated, so the page
	// stays on disk and consistent.
	PageIn func(vpn addr.VPN) error
}

// SetFaultInjector installs a copy of inj as the kernel's fault injector
// (nil removes it) at runtime, so tests can scope injection to one phase
// of a workload.
func (k *Kernel) SetFaultInjector(inj *FaultInjector) {
	k.hooks = FaultInjector{}
	if inj != nil {
		k.hooks = *inj
	}
}

// inject runs the injector's hook on x, if the hook is set, counting a
// fired injection on fired.
func inject[T any](hook func(T) error, x T, fired stats.Handle) error {
	if hook == nil {
		return nil
	}
	err := hook(x)
	if err != nil {
		fired.Inc()
	}
	return err
}
