package kernel

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/iommu"
	"repro/internal/machine"
	"repro/internal/plb"
	"repro/internal/smp"
)

// TestNewCheckedRejectsBadConfig: invalid hardware configuration
// surfaces as the structure's typed error instead of a panic, and New
// keeps the panicking contract for static configs.
func TestNewCheckedRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig(ModelDomainPage)
	cfg.PLB.PLB.Shifts = []uint{3} // below addr.MinProtShift
	k, err := NewChecked(cfg)
	if err == nil {
		t.Fatal("NewChecked accepted an invalid PLB shift")
	}
	if k != nil {
		t.Fatal("NewChecked returned a kernel alongside the error")
	}
	if !errors.Is(err, plb.ErrConfig) {
		t.Fatalf("error %v does not wrap plb.ErrConfig", err)
	}
	var ce *plb.ConfigError
	if !errors.As(err, &ce) || ce.Field != "Shifts" {
		t.Fatalf("error %v is not a *plb.ConfigError on Shifts", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("New did not panic on the invalid config")
		}
	}()
	New(cfg)
}

// newSMPKernel builds a multiprocessor domain-page kernel with one
// domain attached RW to a small segment and a PLB entry resident on
// every CPU in warm (so every CPU is a shootdown target).
func newSMPKernel(t *testing.T, ncpu int, warm ...int) (*Kernel, *Domain, *Segment) {
	t.Helper()
	cfg := DefaultConfig(ModelDomainPage)
	cfg.CPUs = ncpu
	k := New(cfg)
	d := k.CreateDomain()
	s := k.CreateSegment(4, SegmentOptions{Name: "shared"})
	k.Attach(d, s, addr.RW)
	for _, c := range warm {
		k.SetCPU(c)
		if err := k.Touch(d, s.Base(), addr.Load); err != nil {
			t.Fatalf("warm touch on CPU %d: %v", c, err)
		}
	}
	k.SetCPU(0)
	return k, d, s
}

// testKernelProto is a fast-converging protocol tuning for kernel tests.
func testKernelProto() smp.ProtocolConfig {
	return smp.ProtocolConfig{
		AckTimeout:   50,
		MaxRetries:   2,
		BackoffLimit: 100,
		SuspectAfter: 2,
		DegradeAfter: 3,
	}
}

func TestNestedDeferWindows(t *testing.T) {
	k, d, s := newSMPKernel(t, 2, 1)
	k.DeferShootdowns()
	k.DeferShootdowns() // nested inner window
	if err := k.SetPageRights(d, s.Base(), addr.Read); err != nil {
		t.Fatalf("SetPageRights: %v", err)
	}
	if k.PendingShootdowns(1) == 0 {
		t.Fatal("operation inside a deferred window flushed immediately")
	}
	ipisBefore := k.Counters().Get("smp.ipis")
	k.FlushShootdowns() // closes the inner window only
	if k.PendingShootdowns(1) == 0 {
		t.Fatal("inner FlushShootdowns delivered; only the outermost may")
	}
	if got := k.Counters().Get("smp.ipis"); got != ipisBefore {
		t.Fatalf("inner flush sent IPIs: %d -> %d", ipisBefore, got)
	}
	k.FlushShootdowns() // outermost: delivers
	if k.PendingShootdowns(1) != 0 {
		t.Fatal("outermost FlushShootdowns did not deliver")
	}
	if got := k.Counters().Get("smp.ipis"); got != ipisBefore+1 {
		t.Fatalf("ipis = %d, want %d (one batch, one IPI)", got, ipisBefore+1)
	}
	// Balanced again: later operations flush per-op as usual.
	if err := k.SetPageRights(d, s.Base(), addr.RW); err != nil {
		t.Fatalf("SetPageRights: %v", err)
	}
	if k.PendingShootdowns(1) != 0 {
		t.Fatal("per-op flushing not restored after balanced windows")
	}
}

func TestFlushShootdownsWithoutWindowStillDelivers(t *testing.T) {
	k, d, s := newSMPKernel(t, 2, 1)
	// No window open: FlushShootdowns is a plain flush and must not
	// underflow the depth such that a later Defer is ignored.
	k.FlushShootdowns()
	k.DeferShootdowns()
	if err := k.SetPageRights(d, s.Base(), addr.Read); err != nil {
		t.Fatalf("SetPageRights: %v", err)
	}
	if k.PendingShootdowns(1) == 0 {
		t.Fatal("DeferShootdowns after an unbalanced flush did not defer")
	}
	k.FlushShootdowns()
	if k.PendingShootdowns(1) != 0 {
		t.Fatal("window did not close")
	}
}

func TestRecoverHardwareDuringDeferWindow(t *testing.T) {
	k, d, s := newSMPKernel(t, 2, 1)
	k.DeferShootdowns()
	k.DeferShootdowns()
	if err := k.SetPageRights(d, s.Base(), addr.Read); err != nil {
		t.Fatalf("SetPageRights: %v", err)
	}
	if k.PendingShootdowns(1) == 0 {
		t.Fatal("nothing deferred")
	}
	k.RecoverHardware()
	// Recovery discards in-flight work (the state it would have
	// invalidated is gone) and cancels the whole window stack.
	if k.PendingShootdowns(1) != 0 {
		t.Fatal("pending shootdowns survived RecoverHardware")
	}
	// The bulk invalidation also withdrew every CPU from the sharer
	// directory: an op right after recovery has no remote holders to
	// invalidate, so it must send nothing.
	ipisBefore := k.Counters().Get("smp.ipis")
	if err := k.SetPageRights(d, s.Base(), addr.RW); err != nil {
		t.Fatalf("SetPageRights: %v", err)
	}
	if k.PendingShootdowns(1) != 0 {
		t.Fatal("RecoverHardware left the deferred window open")
	}
	if got := k.Counters().Get("smp.ipis"); got != ipisBefore {
		t.Fatalf("post-recovery op targeted withdrawn CPUs: ipis %d -> %d", ipisBefore, got)
	}
	// Once CPU 1 faults an entry back in, per-op flushing resumes.
	k.SetCPU(1)
	if err := k.Touch(d, s.Base(), addr.Load); err != nil {
		t.Fatalf("re-warm touch: %v", err)
	}
	k.SetCPU(0)
	if err := k.SetPageRights(d, s.Base(), addr.Read); err != nil {
		t.Fatalf("SetPageRights: %v", err)
	}
	if k.PendingShootdowns(1) != 0 {
		t.Fatal("post-recovery op did not flush per-op")
	}
	if got := k.Counters().Get("smp.ipis"); got != ipisBefore+1 {
		t.Fatalf("post-recovery op did not flush per-op: ipis %d -> %d", ipisBefore, got)
	}
}

// TestQuarantineFencesAndSetCPURejoins exercises the kernel policy
// around the acknowledged protocol: a dead CPU is quarantined, fenced
// out of shootdown targeting (marked stale instead), and rejoined with
// a bulk invalidation the moment execution moves onto it.
func TestQuarantineFencesAndSetCPURejoins(t *testing.T) {
	k, d, s := newSMPKernel(t, 2, 1)
	k.EnableShootdownProtocol(testKernelProto())
	k.SetIPIFault(func(target int, _ smp.Request) smp.Fault {
		if target == 1 {
			return smp.FaultDrop // CPU 1 is dead
		}
		return smp.FaultNone
	})
	if err := k.SetPageRights(d, s.Base(), addr.Read); err != nil {
		t.Fatalf("SetPageRights: %v", err)
	}
	if k.SeatHealth(1) != smp.Quarantined || k.SeatTrusted(1) {
		t.Fatalf("health = %v trusted=%v, want quarantined/untrusted", k.SeatHealth(1), k.SeatTrusted(1))
	}
	if k.Counters().Get("smp.quarantines") != 1 {
		t.Fatalf("quarantines = %d", k.Counters().Get("smp.quarantines"))
	}
	// Fenced: further protection changes skip CPU 1 entirely (no
	// queue growth, no retry storm) and keep it marked stale.
	if err := k.SetPageRights(d, s.Base(), addr.RW); err != nil {
		t.Fatalf("SetPageRights: %v", err)
	}
	if k.PendingShootdowns(1) != 0 {
		t.Fatal("fenced CPU still being targeted")
	}
	// Executing on the fenced CPU triggers rejoin: epoch recovery plus
	// readmission. The interconnect is healed first.
	k.SetIPIFault(nil)
	k.SetCPU(1)
	if !k.SeatTrusted(1) || k.SeatHealth(1) != smp.Healthy {
		t.Fatalf("after rejoin: health=%v trusted=%v", k.SeatHealth(1), k.SeatTrusted(1))
	}
	if got := k.Counters().Get("kernel.cpu_rejoins"); got != 1 {
		t.Fatalf("cpu_rejoins = %d, want 1", got)
	}
	if n := k.MachineAt(1).(*machine.PLBMachine).PLB().Len(); n != 0 {
		t.Fatalf("rejoined CPU still holds %d PLB entries", n)
	}
	// The stale authority is really gone: the access faults back in
	// through the kernel tables and sees the post-change rights.
	if err := k.Touch(d, s.Base(), addr.Store); err != nil {
		t.Fatalf("Touch after rejoin: %v", err)
	}
}

// TestConvergeProtectionWithinBound drives a queued, partially dead
// system through ConvergeProtection and checks the cycle bound and the
// all-trusted postcondition.
func TestConvergeProtectionWithinBound(t *testing.T) {
	k, d, s := newSMPKernel(t, 4, 1, 2, 3)
	k.EnableShootdownProtocol(testKernelProto())
	k.SetIPIFault(func(target int, _ smp.Request) smp.Fault {
		if target == 2 {
			return smp.FaultDrop // CPU 2 is dead
		}
		return smp.FaultNone
	})
	// Build up a deferred queue across all targets.
	k.DeferShootdowns()
	for i := uint64(0); i < 4; i++ {
		if err := k.SetPageRights(d, s.PageVA(i), addr.Read); err != nil {
			t.Fatalf("SetPageRights: %v", err)
		}
	}
	bound := k.ConvergenceBound()
	if bound == 0 {
		t.Fatal("multiprocessor convergence bound must be positive")
	}
	cycles := k.ConvergeProtection()
	if cycles > bound {
		t.Fatalf("convergence took %d cycles, bound %d", cycles, bound)
	}
	for i := 0; i < k.NumCPUs(); i++ {
		if !k.SeatTrusted(i) {
			t.Fatalf("CPU %d untrusted after convergence (health %v)", i, k.SeatHealth(i))
		}
		if k.PendingShootdowns(i) != 0 {
			t.Fatalf("CPU %d still has pending shootdowns", i)
		}
	}
}

// dirtyCacheKernel builds a 2-CPU kernel of the given organization with
// the acknowledged protocol on and one domain attached read-write to a
// segment as large as the data cache, then stores to every cache line
// of it on CPU 1 — every line of CPU 1's cache ends up dirty — and
// returns to CPU 0.
func dirtyCacheKernel(t *testing.T, model Model) (*Kernel, *Domain, *Segment) {
	t.Helper()
	cfg := DefaultConfig(model)
	cfg.CPUs = 2
	k := New(cfg)
	k.EnableShootdownProtocol(testKernelProto())
	d := k.CreateDomain()
	// Every organization's default data cache has this geometry.
	cc := cache.DefaultConfig()
	lines := uint64(cc.Assoc.Capacity())
	lineSize := uint64(1) << cc.LineShift
	s := k.CreateSegment(lines*lineSize/k.Geometry().PageSize(), SegmentOptions{Name: "dirty"})
	k.Attach(d, s, addr.RW)
	k.SetCPU(1)
	for off := uint64(0); off < s.Range.Length; off += lineSize {
		if err := k.Touch(d, s.Base()+addr.VA(off), addr.Store); err != nil {
			t.Fatalf("store at %#x: %v", off, err)
		}
	}
	k.SetCPU(0)
	return k, d, s
}

// TestConvergenceBoundCoversDirtyCaches: the bound must cover the data
// cache's dirty writebacks in both places convergence pays them — the
// whole-cache flush of a rejoin's bulk purge, and the per-page flush of
// each queued Unmap — on every organization.
func TestConvergenceBoundCoversDirtyCaches(t *testing.T) {
	for _, model := range []Model{ModelDomainPage, ModelPageGroup, ModelConventional, ModelFlush} {
		t.Run(model.String()+"/rejoin", func(t *testing.T) {
			k, d, s := dirtyCacheKernel(t, model)
			k.SetIPIFault(func(target int, _ smp.Request) smp.Fault {
				if target == 1 {
					return smp.FaultDrop
				}
				return smp.FaultNone
			})
			if err := k.SetPageRights(d, s.Base(), addr.Read); err != nil {
				t.Fatalf("SetPageRights: %v", err)
			}
			if k.SeatTrusted(1) {
				t.Fatal("CPU 1 not quarantined by the dropped shootdowns")
			}
			bound := k.ConvergenceBound()
			if cycles := k.ConvergeProtection(); cycles > bound {
				t.Fatalf("converging a dirty-cache rejoin took %d cycles, bound %d", cycles, bound)
			}
		})
		t.Run(model.String()+"/deferred-unmaps", func(t *testing.T) {
			k, _, s := dirtyCacheKernel(t, model)
			k.DeferShootdowns()
			for i := uint64(0); i < s.NumPages(); i++ {
				if err := k.PageOut(s.PageVPN(i)); err != nil {
					t.Fatalf("PageOut: %v", err)
				}
			}
			if k.PendingShootdowns(1) == 0 {
				t.Fatal("no unmap queued for CPU 1")
			}
			bound := k.ConvergenceBound()
			if cycles := k.ConvergeProtection(); cycles > bound {
				t.Fatalf("converging %d deferred unmaps of dirty pages took %d cycles, bound %d",
					s.NumPages(), cycles, bound)
			}
		})
	}
}

// TestUniprocessorZeroProtocolOverhead: with one CPU there are no
// shootdowns, so enabling the protocol must cost nothing and count
// nothing.
func TestUniprocessorZeroProtocolOverhead(t *testing.T) {
	cfg := DefaultConfig(ModelDomainPage)
	cfg.CPUs = 1
	k := New(cfg)
	k.EnableShootdownProtocol(smp.DefaultProtocolConfig())
	if k.ShootdownProtocolEnabled() {
		t.Fatal("uniprocessor reports an active shootdown protocol")
	}
	d := k.CreateDomain()
	s := k.CreateSegment(4, SegmentOptions{})
	k.Attach(d, s, addr.RW)
	if err := k.Touch(d, s.Base(), addr.Store); err != nil {
		t.Fatalf("Touch: %v", err)
	}
	if err := k.SetPageRights(d, s.Base(), addr.Read); err != nil {
		t.Fatalf("SetPageRights: %v", err)
	}
	if got := k.ConvergeProtection(); got != 0 {
		t.Fatalf("uniprocessor convergence cost %d cycles, want 0", got)
	}
	if k.ConvergenceBound() != 0 {
		t.Fatal("uniprocessor convergence bound nonzero")
	}
	for _, c := range []string{"smp.ipis", "smp.acks", "smp.retransmits", "smp.timeouts", "smp.requests"} {
		if got := k.Counters().Get(c); got != 0 {
			t.Fatalf("%s = %d on a uniprocessor, want 0", c, got)
		}
	}
}

// TestExecutingSeatsMatchScan holds the executing-seat sets to the scan
// they replaced. After every step of a seeded mix of CPU moves,
// switches, device programming, destroys of switched-in domains,
// creates that recycle their IDs, and CPU, device and whole-machine
// recoveries, every domain ID's set must list exactly the CPUs whose
// machine has that ID switched in and the devices programmed on its
// behalf, CPUs first.
func TestExecutingSeatsMatchScan(t *testing.T) {
	for _, model := range []Model{ModelDomainPage, ModelPageGroup, ModelConventional, ModelFlush} {
		t.Run(model.String(), func(t *testing.T) {
			cfg := DefaultConfig(model)
			cfg.CPUs = 4
			cfg.Devices = []DeviceConfig{{Kind: iommu.NIC}, {Kind: iommu.DMAEngine}}
			k := New(cfg)
			seg := k.CreateSegment(4, SegmentOptions{Name: "shared"})
			doms := make([]*Domain, 6)
			for i := range doms {
				doms[i] = k.CreateDomain()
				k.Attach(doms[i], seg, addr.RW)
			}
			rng := rand.New(rand.NewSource(1))
			recycled := 0
			for step := 0; step < 3000; step++ {
				d := doms[rng.Intn(len(doms))]
				switch rng.Intn(10) {
				case 0, 1:
					k.SetCPU(rng.Intn(k.NumCPUs()))
				case 2, 3, 4:
					k.Switch(d)
				case 5:
					k.ProgramDevice(rng.Intn(k.NumDevices()), d)
				case 6:
					// Destroy the domain the current CPU runs, then create
					// one: the free list is LIFO, so it takes the same ID
					// while the dead incarnation is still switched in.
					for i, x := range doms {
						if x.ID != k.Machine().Domain() {
							continue
						}
						if err := k.DestroyDomain(x); err != nil {
							t.Fatal(err)
						}
						doms[i] = k.CreateDomain()
						if doms[i].ID == x.ID {
							recycled++
						}
						k.Attach(doms[i], seg, addr.Read)
					}
				case 7:
					k.recoverCPU(rng.Intn(k.NumCPUs()))
				case 8:
					k.RejoinDevice(rng.Intn(k.NumDevices()))
				case 9:
					k.RecoverHardware()
				}
				for id := addr.DomainID(1); id <= 8; id++ {
					var scan []int
					for i := 0; i < k.NumCPUs(); i++ {
						if k.MachineAt(i).Domain() == id {
							scan = append(scan, i)
						}
					}
					for j := 0; j < k.NumDevices(); j++ {
						if k.Device(j).OnBehalf() == id {
							scan = append(scan, k.DeviceSeat(j))
						}
					}
					if got := k.ExecutingSeats(id); !slices.Equal(got, scan) {
						t.Fatalf("step %d: domain %d executing seats %v, scan finds %v", step, id, got, scan)
					}
				}
			}
			if recycled == 0 {
				t.Fatal("no switched-in domain's ID was recycled")
			}
		})
	}
}
