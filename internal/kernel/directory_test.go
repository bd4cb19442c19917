package kernel

import (
	"errors"
	"testing"

	"repro/internal/addr"
	"repro/internal/smp"
)

// TestPurgedCPUReceivesNoFurtherIPIs is the regression test for the
// monotonic-residency bug: a CPU that once cached a domain's entries
// and has since been bulk-invalidated (RecoverCPU) must be withdrawn
// from the domain's residency set and receive zero further IPIs for
// that domain — under the old grow-only mask it stayed a target
// forever.
func TestPurgedCPUReceivesNoFurtherIPIs(t *testing.T) {
	k, d, s := newSMPKernel(t, 4, 1, 2)
	kc := k.Counters()

	// Both warm CPUs are live sharers: one request each.
	before := kc.Get("smp.requests")
	if err := k.SetPageRights(d, s.Base(), addr.Read); err != nil {
		t.Fatalf("SetPageRights: %v", err)
	}
	if got := kc.Get("smp.requests") - before; got != 2 {
		t.Fatalf("requests to warm CPUs = %d, want 2 (CPUs 1 and 2)", got)
	}

	// Bulk-invalidate CPU 2: it provably holds nothing any more.
	if k.recoverCPU(2) == 0 {
		t.Fatal("RecoverCPU(2) purged no entries; CPU 2 was not warm")
	}

	// Every further shootdown for the domain must skip CPU 2.
	before = kc.Get("smp.requests")
	ipisBefore := kc.Get("smp.ipis")
	if err := k.SetPageRights(d, s.Base(), addr.RW); err != nil {
		t.Fatalf("SetPageRights: %v", err)
	}
	if got := kc.Get("smp.requests") - before; got != 1 {
		t.Fatalf("requests after purge = %d, want 1 (CPU 1 only)", got)
	}
	if got := kc.Get("smp.ipis") - ipisBefore; got != 1 {
		t.Fatalf("ipis after purge = %d, want 1 (CPU 1 only)", got)
	}
	// A page-out is page-keyed: CPU 2's sharer-set membership is gone
	// too, so only CPU 1 is targeted.
	before = kc.Get("smp.requests")
	if err := k.PageOut(s.PageVPN(0)); err != nil {
		t.Fatalf("PageOut: %v", err)
	}
	if got := kc.Get("smp.requests") - before; got != 1 {
		t.Fatalf("page-out requests after purge = %d, want 1 (CPU 1 only)", got)
	}
}

// TestSwitchAwayRestoresTargeting: residency is not permanent — once
// the purged CPU faults entries back in, it becomes a target again.
func TestPurgedCPURejoinsAfterReinstall(t *testing.T) {
	k, d, s := newSMPKernel(t, 2, 1)
	kc := k.Counters()
	k.recoverCPU(1)

	before := kc.Get("smp.requests")
	if err := k.SetPageRights(d, s.Base(), addr.Read); err != nil {
		t.Fatalf("SetPageRights: %v", err)
	}
	if got := kc.Get("smp.requests") - before; got != 0 {
		t.Fatalf("requests to purged CPU = %d, want 0", got)
	}

	k.SetCPU(1)
	if err := k.Touch(d, s.Base(), addr.Load); err != nil {
		t.Fatalf("re-warm touch: %v", err)
	}
	k.SetCPU(0)
	before = kc.Get("smp.requests")
	if err := k.SetPageRights(d, s.Base(), addr.RW); err != nil {
		t.Fatalf("SetPageRights: %v", err)
	}
	if got := kc.Get("smp.requests") - before; got != 1 {
		t.Fatalf("requests after re-install = %d, want 1", got)
	}
}

// TestNewCheckedCPUBounds: the CPU count is validated against the
// bitset ceiling (MaxCPUs), not the old 64-bit mask width — 65 CPUs
// (the old overflow value) must construct, and counts past MaxCPUs
// must surface as a typed *ConfigError wrapping ErrConfig.
func TestNewCheckedCPUBounds(t *testing.T) {
	cfg := DefaultConfig(ModelDomainPage)
	cfg.CPUs = 65 // one past the old uint64 residency mask
	k, err := NewChecked(cfg)
	if err != nil {
		t.Fatalf("NewChecked rejected 65 CPUs: %v", err)
	}
	if k.NumCPUs() != 65 {
		t.Fatalf("NumCPUs = %d, want 65", k.NumCPUs())
	}

	cfg.CPUs = MaxCPUs + 1
	k, err = NewChecked(cfg)
	if err == nil || k != nil {
		t.Fatalf("NewChecked accepted %d CPUs (k=%v)", MaxCPUs+1, k)
	}
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("error %v does not wrap ErrConfig", err)
	}
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "CPUs" || ce.Value != MaxCPUs+1 {
		t.Fatalf("error %v is not a *ConfigError on CPUs", err)
	}
}

// TestNewCheckedTopologySeats: a mesh whose clusters seat fewer CPUs
// than the configuration asks for is a typed configuration error.
func TestNewCheckedTopologySeats(t *testing.T) {
	cfg := DefaultConfig(ModelDomainPage)
	cfg.CPUs = 4
	cfg.Topology = smp.Topology{MeshWidth: 1, MeshHeight: 1, ClusterCPUs: 2}
	k, err := NewChecked(cfg)
	if err == nil || k != nil {
		t.Fatal("NewChecked accepted a topology with too few seats")
	}
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "Topology" {
		t.Fatalf("error %v is not a *ConfigError on Topology", err)
	}
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("error %v does not wrap ErrConfig", err)
	}
}

// TestFencedSkipCounterParity: a shootdown suppressed because its
// target is fenced (quarantined) must still be accounted — the
// "smp.fenced_skips" counter keeps the invalidation ledger complete
// so overhead comparisons do not undercount skipped work.
func TestFencedSkipCounterParity(t *testing.T) {
	k, d, s := newSMPKernel(t, 2, 1)
	k.EnableShootdownProtocol(testKernelProto())
	k.SetIPIFault(func(target int, _ smp.Request) smp.Fault {
		if target == 1 {
			return smp.FaultDrop
		}
		return smp.FaultNone
	})
	kc := k.Counters()
	if err := k.SetPageRights(d, s.Base(), addr.Read); err != nil {
		t.Fatalf("SetPageRights: %v", err)
	}
	if k.SeatHealth(1) != smp.Quarantined {
		t.Fatalf("health = %v, want quarantined", k.SeatHealth(1))
	}
	if got := kc.Get("smp.fenced_skips"); got != 0 {
		t.Fatalf("fenced_skips before any fenced op = %d, want 0", got)
	}

	// One more protection change: its single suppressed invalidation
	// must appear in the skip counter, with no queue growth and no new
	// request/IPI accounting.
	reqBefore, ipiBefore := kc.Get("smp.requests"), kc.Get("smp.ipis")
	if err := k.SetPageRights(d, s.Base(), addr.RW); err != nil {
		t.Fatalf("SetPageRights: %v", err)
	}
	if got := kc.Get("smp.fenced_skips"); got != 1 {
		t.Fatalf("fenced_skips = %d, want 1", got)
	}
	if kc.Get("smp.requests") != reqBefore || kc.Get("smp.ipis") != ipiBefore {
		t.Fatal("fenced skip leaked into request/IPI counters")
	}
	if k.PendingShootdowns(1) != 0 {
		t.Fatal("fenced CPU accumulated queued work")
	}
	if k.SeatTrusted(1) {
		t.Fatal("fenced CPU with a skipped invalidation still trusted")
	}
}
