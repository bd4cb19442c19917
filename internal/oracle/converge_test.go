package oracle

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/kernel"
	"repro/internal/smp"
)

// smpSetup builds a 2-CPU domain-page kernel with a PLB entry resident
// on CPU 1 (a shootdown target) and execution back on CPU 0.
func smpSetup(t *testing.T) (*kernel.Kernel, *kernel.Domain, *kernel.Segment) {
	t.Helper()
	cfg := kernel.DefaultConfig(kernel.ModelDomainPage)
	cfg.CPUs = 2
	k := kernel.New(cfg)
	d := k.CreateDomain()
	s := k.CreateSegment(4, kernel.SegmentOptions{Name: "shared"})
	k.Attach(d, s, addr.RW)
	k.SetCPU(1)
	if err := k.Touch(d, s.Base(), addr.Load); err != nil {
		t.Fatalf("priming load on CPU 1: %v", err)
	}
	k.SetCPU(0)
	if err := Verify(k); err != nil {
		t.Fatalf("clean kernel fails verification: %v", err)
	}
	return k, d, s
}

// TestFireAndForgetDropIsDetected pins down the baseline the protocol
// exists to fix: without acknowledgements a dropped shootdown leaves a
// live stale entry on a CPU the oracle still trusts, and the
// differential check must report it.
func TestFireAndForgetDropIsDetected(t *testing.T) {
	k, d, s := smpSetup(t)
	k.SetIPIFault(func(int, smp.Request) smp.Fault { return smp.FaultDrop })
	if err := k.SetPageRights(d, s.Base(), addr.Read); err != nil {
		t.Fatalf("SetPageRights: %v", err)
	}
	if !k.SeatTrusted(1) {
		t.Fatal("fire-and-forget mode must not fence CPUs")
	}
	if len(Violations(k)) == 0 {
		t.Fatal("oracle missed the stale entry a dropped IPI left behind")
	}
}

// TestConvergenceUnderDropStorm: with the acknowledged protocol on and
// the drop fault still armed, CheckConvergence must pass — the dead
// CPU is quarantined and rejoined, leaving zero violations within the
// bound.
func TestConvergenceUnderDropStorm(t *testing.T) {
	k, d, s := smpSetup(t)
	k.EnableShootdownProtocol(smp.ProtocolConfig{
		AckTimeout: 50, MaxRetries: 2, BackoffLimit: 100,
	})
	k.SetIPIFault(func(target int, _ smp.Request) smp.Fault {
		if target == 1 {
			return smp.FaultDrop
		}
		return smp.FaultNone
	})
	if err := k.SetPageRights(d, s.Base(), addr.Read); err != nil {
		t.Fatalf("SetPageRights: %v", err)
	}
	// Mid-run: CPU 1 is fenced, so its (dormant) stale entry is exempt.
	if k.SeatTrusted(1) {
		t.Fatal("dead CPU not quarantined")
	}
	if err := Verify(k); err != nil {
		t.Fatalf("fenced CPU's dormant state counted as live authority: %v", err)
	}
	// Convergence with the fault still armed must reach zero violations.
	conv, err := CheckConvergence(k)
	if err != nil {
		t.Fatalf("CheckConvergence: %v", err)
	}
	if conv.Cycles == 0 || conv.Cycles > conv.Bound {
		t.Fatalf("convergence cycles %d (bound %d)", conv.Cycles, conv.Bound)
	}
	if len(conv.Violations) != 0 {
		t.Fatalf("violations after convergence: %v", conv.Violations)
	}
}

// TestConvergenceFaultFree: on a healthy multiprocessor convergence is
// cheap (no pending work: just the precautionary rejoin budget is
// unused) and clean.
func TestConvergenceFaultFree(t *testing.T) {
	k, _, _ := smpSetup(t)
	k.EnableShootdownProtocol(smp.DefaultProtocolConfig())
	conv, err := CheckConvergence(k)
	if err != nil {
		t.Fatalf("CheckConvergence on a healthy kernel: %v", err)
	}
	if conv.Cycles != 0 {
		t.Fatalf("healthy kernel paid %d cycles to converge, want 0", conv.Cycles)
	}
}
