package oracle

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/plb"
	"repro/internal/smp"
	"repro/internal/tlb"
)

// readOnlySetup builds a kernel of the given model with one domain
// attached read-only to one 4-page segment, and primes page 0 with a
// load so hardware state is resident.
func readOnlySetup(t *testing.T, model kernel.Model) (*kernel.Kernel, *kernel.Domain, *kernel.Segment) {
	t.Helper()
	k := kernel.New(kernel.DefaultConfig(model))
	d := k.CreateDomain()
	s := k.CreateSegment(4, kernel.SegmentOptions{Name: "ro"})
	k.Attach(d, s, addr.Read)
	k.Switch(d)
	if err := k.Touch(d, s.Base(), addr.Load); err != nil {
		t.Fatalf("priming load: %v", err)
	}
	if err := Verify(k); err != nil {
		t.Fatalf("clean kernel fails verification: %v", err)
	}
	return k, d, s
}

// requireDetectAndRecover asserts that the kernel currently fails
// verification with exactly one violation, in structure where on the
// named seat, and that RecoverHardware restores a verifiable state.
func requireDetectAndRecover(t *testing.T, k *kernel.Kernel, where, seat string) {
	t.Helper()
	if vs := Violations(k); len(vs) != 1 || !hasViolation(vs, where, seat) {
		t.Fatalf("want one %q violation on %s, got %d: %v", where, seat, len(vs), vs)
	}
	if k.RecoverHardware() == 0 {
		t.Fatal("recovery dropped no entries")
	}
	if err := Verify(k); err != nil {
		t.Fatalf("oracle still dirty after recovery: %v", err)
	}
}

// hasViolation reports whether vs holds a finding in structure where
// on the named seat.
func hasViolation(vs []Violation, where, seat string) bool {
	for _, v := range vs {
		if v.Where == where && v.Seat == seat {
			return true
		}
	}
	return false
}

// TestOracleDetectsCorruption corrupts one install in each CPU
// structure of each organization and requires the oracle to name the
// structure and the seat; recovery must then clear the finding and the
// corrupted grant alike.
func TestOracleDetectsCorruption(t *testing.T) {
	rows := []struct {
		model kernel.Model
		where string
		// arm installs a corruptor on m and returns its disarm.
		arm func(m machine.Machine) func()
	}{
		{kernel.ModelDomainPage, "plb", func(m machine.Machine) func() {
			// Every install latches RW regardless of granted rights — a
			// stale/flipped-rights entry, the classic security-hole
			// direction.
			p := m.(*machine.PLBMachine).PLB()
			p.SetCorruptor(func(plb.Key, addr.Rights) (addr.Rights, bool) { return addr.RW, true })
			return func() { p.SetCorruptor(nil) }
		}},
		{kernel.ModelDomainPage, "trans-tlb", func(m machine.Machine) func() {
			tb := m.(*machine.PLBMachine).TLB()
			tb.SetCorruptor(func(_ addr.VPN, e tlb.TransEntry) (tlb.TransEntry, bool) {
				return tlb.TransEntry{PFN: e.PFN + 1}, true
			})
			return func() { tb.SetCorruptor(nil) }
		}},
		{kernel.ModelPageGroup, "pg-tlb", func(m machine.Machine) func() {
			tb := m.(*machine.PGMachine).TLB()
			tb.SetCorruptor(func(_ addr.VPN, e tlb.PGEntry) (tlb.PGEntry, bool) {
				e.Rights = addr.RW
				return e, true
			})
			return func() { tb.SetCorruptor(nil) }
		}},
		{kernel.ModelPageGroup, "checker", func(m machine.Machine) func() {
			// Loads latch membership of a group the domain was never
			// granted; the purge forces the next access to reload.
			c := m.(*machine.PGMachine).Checker()
			c.SetCorruptor(func(g addr.GroupID, wd bool) (addr.GroupID, bool, bool) { return g + 1000, wd, true })
			c.PurgeAll()
			return func() { c.SetCorruptor(nil) }
		}},
		{kernel.ModelConventional, "asid-tlb", asidCorruptor},
		{kernel.ModelFlush, "asid-tlb", asidCorruptor},
	}
	for _, row := range rows {
		t.Run(row.model.String()+"/"+row.where, func(t *testing.T) {
			k, d, s := readOnlySetup(t, row.model)
			disarm := row.arm(k.Machine())
			k.Touch(d, s.PageVA(1), addr.Load)
			disarm()
			requireDetectAndRecover(t, k, row.where, "cpu 0")
			if err := k.Touch(d, s.PageVA(1), addr.Store); err == nil {
				t.Fatal("store through read-only attachment allowed after recovery")
			}
		})
	}
}

// asidCorruptor makes ASID-tagged TLB installs latch RW.
func asidCorruptor(m machine.Machine) func() {
	tb := m.(*machine.ConventionalMachine).TLB()
	tb.SetCorruptor(func(_ tlb.ASIDKey, e tlb.ASIDEntry) (tlb.ASIDEntry, bool) {
		e.Rights = addr.RW
		return e, true
	})
	return func() { tb.SetCorruptor(nil) }
}

// churn drives k through seeded random protection operations — attach,
// detach, segment and page rights changes, CPU moves and switches, loads
// and stores among three domains and two segments — and holds the oracle
// to the kernel after each: Verify must pass (ResolveRights against
// Rights, every cached entry against authority), and every access must
// be allowed exactly when Rights allows it. A last SweepVerdicts covers
// every page. The kernel's lockstep checker (FuzzLockstep) holds the
// kernel to an independent model; this holds the oracle's reconstruction
// to the kernel, so a false alarm or a missed grant in the oracle shows.
func churn(t *testing.T, k *kernel.Kernel, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	doms := []*kernel.Domain{k.CreateDomain(), k.CreateDomain(), k.CreateDomain()}
	segs := []*kernel.Segment{k.CreateSegment(6, kernel.SegmentOptions{}), k.CreateSegment(6, kernel.SegmentOptions{})}
	rights := []addr.Rights{addr.None, addr.Read, addr.RW}
	for i := range ops {
		d, s := doms[rng.Intn(len(doms))], segs[rng.Intn(len(segs))]
		va, r := s.PageVA(uint64(rng.Intn(6))), rights[rng.Intn(len(rights))]
		// A refused call (ErrNotAttached, page-group's ErrUnrepresentable)
		// is a legal outcome: the oracle must agree with whatever stands.
		switch rng.Intn(8) {
		case 0:
			k.Attach(d, s, r)
		case 1:
			_ = k.Detach(d, s)
		case 2:
			_ = k.SetSegmentRights(d, s, r)
		case 3:
			_ = k.SetPageRights(d, va, r)
		case 4:
			_ = k.ClearPageRights(d, va)
		case 5:
			k.SetCPU(rng.Intn(k.NumCPUs()))
			k.Switch(d)
		default:
			kind := []addr.AccessKind{addr.Load, addr.Store}[rng.Intn(2)]
			want, _ := Rights(k, d, k.Geometry().PageNumber(va))
			err := k.Touch(d, va, kind)
			if want.Allows(kind) != (err == nil) || err != nil && !errors.Is(err, kernel.ErrProtection) {
				t.Fatalf("seed %d op %d: %v by domain %d at %#x: %v, oracle authority %v",
					seed, i, kind, d.ID, uint64(va), err, want)
			}
		}
		if err := Verify(k); err != nil {
			t.Fatalf("seed %d op %d: %v", seed, i, err)
		}
	}
	if vs := SweepVerdicts(k); len(vs) > 0 {
		t.Fatalf("seed %d sweep: %s (and %d more)", seed, vs[0], len(vs)-1)
	}
}

// TestRightsMatchesResolveRights cross-checks the oracle's independent
// authority reconstruction against the kernel's ResolveRights and the
// machine's verdicts under churn, on uniprocessors of the three machine
// families.
func TestRightsMatchesResolveRights(t *testing.T) {
	models := []kernel.Model{kernel.ModelDomainPage, kernel.ModelPageGroup, kernel.ModelConventional}
	for _, model := range models {
		t.Run(model.String(), func(t *testing.T) {
			for seed := int64(100); seed < 104; seed++ {
				churn(t, kernel.New(kernel.DefaultConfig(model)), seed, 150)
			}
		})
	}
}

// TestAuthorityFuzzMultiCPU runs the churn on 4-CPU kernels of every
// organization: the stream migrates between CPUs, shootdowns keep each
// CPU's private structures in sync, and Verify audits every CPU's
// resident entries.
func TestAuthorityFuzzMultiCPU(t *testing.T) {
	models := []kernel.Model{kernel.ModelDomainPage, kernel.ModelPageGroup,
		kernel.ModelConventional, kernel.ModelFlush}
	for _, model := range models {
		t.Run(model.String(), func(t *testing.T) {
			for seed := int64(200); seed < 204; seed++ {
				cfg := kernel.DefaultConfig(model)
				cfg.CPUs = 4
				churn(t, kernel.New(cfg), seed, 150)
			}
		})
	}
}

// TestOracleDetectsRemoteCPUCorruption corrupts a structure on a CPU
// that is NOT current and confirms the oracle's per-CPU sweep still
// finds it (and names the CPU), and that RecoverHardware — which walks
// every CPU — clears it.
func TestOracleDetectsRemoteCPUCorruption(t *testing.T) {
	cfg := kernel.DefaultConfig(kernel.ModelDomainPage)
	cfg.CPUs = 2
	k := kernel.New(cfg)
	d := k.CreateDomain()
	s := k.CreateSegment(4, kernel.SegmentOptions{Name: "ro"})
	k.Attach(d, s, addr.Read)

	// Prime CPU 1 with a corrupt RW entry, then return to CPU 0.
	k.SetCPU(1)
	m := k.MachineAt(1).(*machine.PLBMachine)
	m.PLB().SetCorruptor(func(plb.Key, addr.Rights) (addr.Rights, bool) { return addr.RW, true })
	if err := k.Touch(d, s.PageVA(1), addr.Load); err != nil {
		t.Fatalf("priming load: %v", err)
	}
	m.PLB().SetCorruptor(nil)
	k.SetCPU(0)
	requireDetectAndRecover(t, k, "plb", "cpu 1")
}

// TestOracleDetectsDroppedShootdown arms an IPI fault that drops every
// delivery, revokes rights while the victim domain's entries are
// resident on another CPU, and confirms the stale remote grant surfaces
// as a violation on that CPU.
func TestOracleDetectsDroppedShootdown(t *testing.T) {
	cfg := kernel.DefaultConfig(kernel.ModelDomainPage)
	cfg.CPUs = 2
	k := kernel.New(cfg)
	d := k.CreateDomain()
	s := k.CreateSegment(4, kernel.SegmentOptions{Name: "shared"})
	k.Attach(d, s, addr.RW)

	// Make d's rights resident on CPU 1, then operate from CPU 0 with
	// shootdown delivery broken.
	k.SetCPU(1)
	if err := k.Touch(d, s.PageVA(1), addr.Store); err != nil {
		t.Fatalf("priming store: %v", err)
	}
	k.SetCPU(0)
	k.SetIPIFault(func(int, smp.Request) smp.Fault { return smp.FaultDrop })
	if err := k.SetPageRights(d, s.PageVA(1), addr.Read); err != nil {
		t.Fatalf("SetPageRights: %v", err)
	}
	k.SetIPIFault(nil)
	if k.Counters().Get("smp.ipi_dropped") == 0 {
		t.Fatal("fault hook never fired")
	}

	requireDetectAndRecover(t, k, "plb", "cpu 1")
}

// TestSweepVerdictsCleanKernel asserts the differential access sweep
// reports nothing on an uncorrupted kernel with mixed rights.
func TestSweepVerdictsCleanKernel(t *testing.T) {
	for _, model := range []kernel.Model{kernel.ModelDomainPage, kernel.ModelPageGroup, kernel.ModelConventional} {
		t.Run(model.String(), func(t *testing.T) {
			k := kernel.New(kernel.DefaultConfig(model))
			d1, d2 := k.CreateDomain(), k.CreateDomain()
			s := k.CreateSegment(4, kernel.SegmentOptions{})
			k.Attach(d1, s, addr.RW)
			k.Attach(d2, s, addr.Read)
			k.Switch(d1)
			k.Touch(d1, s.Base(), addr.Store)
			if vs := SweepVerdicts(k); len(vs) > 0 {
				t.Fatalf("clean kernel has verdict violations: %s", vs[0])
			}
		})
	}
}

// TestSweepVerdictsCatchesStaleGrant plants a corrupt resident PLB
// entry and confirms the differential sweep sees the machine allow an
// access authority forbids.
func TestSweepVerdictsCatchesStaleGrant(t *testing.T) {
	k, d, s := readOnlySetup(t, kernel.ModelDomainPage)
	m := k.Machine().(*machine.PLBMachine)
	m.PLB().SetCorruptor(func(plb.Key, addr.Rights) (addr.Rights, bool) { return addr.RW, true })
	k.Touch(d, s.PageVA(1), addr.Load)
	m.PLB().SetCorruptor(nil)
	vs := SweepVerdicts(k)
	found := false
	for _, v := range vs {
		if v.Where == "verdict" {
			found = true
		}
	}
	if !found {
		t.Fatal("sweep missed machine allowing a store through a corrupt RW entry")
	}
}

// FuzzVerdictAgreement is the native fuzz target for the churn: for any
// seed, the oracle must agree with all four organizations on every
// verdict and every resident entry.
func FuzzVerdictAgreement(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	models := []kernel.Model{kernel.ModelDomainPage, kernel.ModelPageGroup,
		kernel.ModelConventional, kernel.ModelFlush}
	f.Fuzz(func(t *testing.T, seed int64) {
		for _, model := range models {
			churn(t, kernel.New(kernel.DefaultConfig(model)), seed, 120)
		}
	})
}
