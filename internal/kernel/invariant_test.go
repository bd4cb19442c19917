// The soundness invariants of the simulator — hardware state always
// agreeing with kernel authority — are owned by internal/oracle, which
// rebuilds authority from the kernel's primitive records and checks
// every resident hardware entry mid-run. The tests here are thin
// wrappers binding the oracle's engine to each kernel configuration;
// they live in an external test package because oracle imports kernel.
package kernel_test

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/iommu"
	"repro/internal/kernel"
	"repro/internal/oracle"
)

func defaultKernel(model kernel.Model) func() *kernel.Kernel {
	return func() *kernel.Kernel { return kernel.New(kernel.DefaultConfig(model)) }
}

// TestHardwareMatchesAuthority is the central soundness property of the
// whole simulator: after ANY sequence of protection operations, on BOTH
// single-address-space models, the outcome of every access (allowed or
// denied) must equal what the kernel's authoritative tables say —
// regardless of what is or is not resident in the PLB, TLB, page-group
// cache or data cache, and regardless of switch history.
//
// A violation in the "allowed but should be denied" direction is a
// security hole (stale hardware state granting revoked rights); the
// other direction is a lost-rights bug.
func TestHardwareMatchesAuthority(t *testing.T) {
	for _, model := range []kernel.Model{kernel.ModelDomainPage, kernel.ModelPageGroup} {
		t.Run(model.String(), func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				oracle.AuthorityFuzz(t, seed, defaultKernel(model), oracle.FuzzOptions{})
			}
		})
	}
}

// The authority fuzz must hold on the conventional model too.
func TestHardwareMatchesAuthorityConventional(t *testing.T) {
	for seed := int64(40); seed < 46; seed++ {
		oracle.AuthorityFuzz(t, seed, defaultKernel(kernel.ModelConventional), oracle.FuzzOptions{})
	}
}

// The authority fuzz must hold with super-page segments in the mix.
func TestHardwareMatchesAuthoritySuperPage(t *testing.T) {
	mk := func() *kernel.Kernel {
		cfg := kernel.DefaultConfig(kernel.ModelDomainPage)
		cfg.PLB.PLB.Shifts = []uint{addr.BasePageShift, 16}
		return kernel.New(cfg)
	}
	for seed := int64(20); seed < 24; seed++ {
		oracle.AuthorityFuzz(t, seed, mk, oracle.FuzzOptions{
			SegOpts: kernel.SegmentOptions{ProtShift: 16},
		})
	}
}

// TestPLBSubsetOfAuthority churns per-page rights and checks the
// domain-page hardware invariant directly through the oracle: every
// resident PLB entry's rights equal what the kernel would currently
// resolve for that (domain, page).
func TestPLBSubsetOfAuthority(t *testing.T) {
	runChurn(t, kernel.ModelDomainPage, 99, 500)
}

// TestPGTLBMatchesKernelPages is the page-group counterpart: every
// resident page-group TLB entry's AID and rights field match the
// kernel's page records after arbitrary protection churn.
func TestPGTLBMatchesKernelPages(t *testing.T) {
	runChurn(t, kernel.ModelPageGroup, 7, 400)
}

// runChurn drives random per-page rights changes and accesses, checking
// the full oracle after every operation.
func runChurn(t *testing.T, model kernel.Model, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	k := kernel.New(kernel.DefaultConfig(model))
	doms := []*kernel.Domain{k.CreateDomain(), k.CreateDomain(), k.CreateDomain()}
	seg := k.CreateSegment(8, kernel.SegmentOptions{})
	for _, d := range doms {
		k.Attach(d, seg, addr.RW)
	}
	rightsChoices := []addr.Rights{addr.None, addr.Read, addr.RW}
	for i := 0; i < ops; i++ {
		d := doms[rng.Intn(len(doms))]
		va := seg.PageVA(uint64(rng.Intn(8)))
		switch rng.Intn(4) {
		case 0:
			k.SetPageRights(d, va, rightsChoices[rng.Intn(3)])
		case 1:
			k.ClearPageRights(d, va)
		default:
			k.Touch(d, va, addr.Load)
			k.Touch(d, va, addr.Store)
		}
		if vs := oracle.Violations(k); len(vs) > 0 {
			t.Fatalf("op %d: %s (and %d more)", i, vs[0], len(vs)-1)
		}
	}
}

// TestDirectoryAuditNamesSeat: a seat missing from the sharer set of a
// page it caches would be skipped by that page's shootdowns, and the
// oracle's directory audit must name it — a remote CPU's PLB,
// translation-TLB and cache state, and a device's IOTLB alike.
func TestDirectoryAuditNamesSeat(t *testing.T) {
	for _, seat := range []string{"cpu 1", "nic0"} {
		t.Run(seat, func(t *testing.T) {
			cfg := kernel.DefaultConfig(kernel.ModelDomainPage)
			cfg.CPUs = 2
			cfg.Devices = []kernel.DeviceConfig{{Name: "nic0", Kind: iommu.NIC}}
			k := kernel.New(cfg)
			d := k.CreateDomain()
			s := k.CreateSegment(4, kernel.SegmentOptions{Name: "shared"})
			k.Attach(d, s, addr.RW)
			vpn := k.Geometry().PageNumber(s.Base())
			target := k.DeviceSeat(0)
			if seat == "cpu 1" {
				target = 1
				k.SetCPU(1)
				k.Switch(d)
				if err := k.Touch(d, s.Base(), addr.Load); err != nil {
					t.Fatalf("warming CPU 1: %v", err)
				}
				k.SetCPU(0)
			} else {
				k.ProgramDevice(0, d)
				if _, err := k.DeviceReadPage(0, s.Base()); err != nil {
					t.Fatalf("warming the device: %v", err)
				}
			}
			if err := oracle.Verify(k); err != nil {
				t.Fatalf("clean kernel fails verification: %v", err)
			}
			k.DropPageSharer(vpn, target)
			vs := oracle.Violations(k)
			if len(vs) == 0 {
				t.Fatal("directory audit missed the uncovered seat")
			}
			for _, v := range vs {
				if v.Where != "directory" || v.Seat != seat || v.VPN != vpn {
					t.Fatalf("want only directory findings on %s page %#x, got %v", seat, uint64(vpn), vs)
				}
			}
		})
	}
}
