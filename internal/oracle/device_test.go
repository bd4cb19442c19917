package oracle

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/iommu"
	"repro/internal/kernel"
	"repro/internal/smp"
)

func deviceKernel(t *testing.T, model kernel.Model) *kernel.Kernel {
	t.Helper()
	cfg := kernel.DefaultConfig(model)
	cfg.CPUs = 2
	cfg.Devices = []kernel.DeviceConfig{{Name: "nic0", Kind: iommu.NIC}}
	k, err := kernel.NewChecked(cfg)
	if err != nil {
		t.Fatalf("NewChecked: %v", err)
	}
	return k
}

// primeDevice creates a domain with a segment, programs the device on
// its behalf, and runs one DMA write so the IOTLB holds a live entry.
func primeDevice(t *testing.T, k *kernel.Kernel) (*kernel.Domain, *kernel.Segment) {
	t.Helper()
	d := k.CreateDomain()
	seg := k.CreateSegment(4, kernel.SegmentOptions{Name: "dma-buf"})
	k.Attach(d, seg, addr.RW)
	k.ProgramDevice(0, d)
	buf := make([]byte, k.Geometry().PageSize())
	if err := k.DeviceWritePage(0, seg.Base(), buf); err != nil {
		t.Fatalf("prime DMA write: %v", err)
	}
	return d, seg
}

// TestDeviceAuditClean: a healthy interconnect leaves the device's
// IOTLB consistent through a revocation, so the audit stays clean.
func TestDeviceAuditClean(t *testing.T) {
	for _, model := range []kernel.Model{kernel.ModelDomainPage, kernel.ModelPageGroup} {
		t.Run(model.String(), func(t *testing.T) {
			k := deviceKernel(t, model)
			d, seg := primeDevice(t, k)
			if err := k.SetSegmentRights(d, seg, addr.Read); err != nil {
				t.Fatalf("revoke: %v", err)
			}
			if err := Verify(k); err != nil {
				t.Fatalf("audit after delivered revocation: %v", err)
			}
		})
	}
}

// TestDeviceAuditCatchesDroppedInvalidation: dropping the invalidation
// bound for the device seat (fire-and-forget, so no retransmission)
// leaves stale device authority that the audit must attribute to the
// device — a domain-page IOTLB entry, or under page-group a group-set
// entry the revocation should have rewritten.
func TestDeviceAuditCatchesDroppedInvalidation(t *testing.T) {
	for _, row := range []struct {
		model kernel.Model
		where string
	}{
		{kernel.ModelDomainPage, "iotlb"},
		{kernel.ModelPageGroup, "iotlb-group"},
	} {
		t.Run(row.model.String(), func(t *testing.T) {
			k := deviceKernel(t, row.model)
			d, seg := primeDevice(t, k)
			k.SetIPIFault(func(target int, r smp.Request) smp.Fault {
				if target >= k.NumCPUs() {
					return smp.FaultDrop
				}
				return smp.FaultNone
			})
			if err := k.SetSegmentRights(d, seg, addr.Read); err != nil {
				t.Fatalf("revoke: %v", err)
			}
			k.SetIPIFault(nil)
			requireDetectAndRecover(t, k, row.where, "nic0")
		})
	}
}

// TestDestroySweepNamesSeats: a destroy whose shootdowns are all
// dropped leaves the dead domain's authority cached on the remote CPU
// it ran on and on the device programmed for it, and the destroy sweep
// must name each seat once, on every organization.
func TestDestroySweepNamesSeats(t *testing.T) {
	for _, model := range []kernel.Model{kernel.ModelDomainPage, kernel.ModelPageGroup,
		kernel.ModelConventional, kernel.ModelFlush} {
		t.Run(model.String(), func(t *testing.T) {
			k := deviceKernel(t, model)
			k.SetCPU(1)
			d, seg := primeDevice(t, k)
			k.Switch(d)
			if err := k.Touch(d, seg.Base(), addr.Store); err != nil {
				t.Fatalf("warming CPU 1: %v", err)
			}
			k.SetCPU(0)
			k.SetIPIFault(func(int, smp.Request) smp.Fault { return smp.FaultDrop })
			if err := k.DestroyDomain(d); err != nil {
				t.Fatalf("DestroyDomain: %v", err)
			}
			k.SetIPIFault(nil)
			vs := DestroyViolations(k, d.ID)
			if len(vs) != 2 || !hasViolation(vs, "destroy", "cpu 1") || !hasViolation(vs, "destroy", "nic0") {
				t.Fatalf("want one destroy finding on each of cpu 1 and nic0, got %d: %v", len(vs), vs)
			}
		})
	}
}

// TestDeviceConvergence: under the acknowledged protocol a dead device
// (every volley dropped) is quarantined and fenced; convergence rejoins
// it within the bound and the audit comes back clean.
func TestDeviceConvergence(t *testing.T) {
	k := deviceKernel(t, kernel.ModelDomainPage)
	k.EnableShootdownProtocol(smp.ProtocolConfig{})
	d, seg := primeDevice(t, k)
	dead := true
	k.SetIPIFault(func(target int, r smp.Request) smp.Fault {
		if dead && target >= k.NumCPUs() {
			return smp.FaultDrop
		}
		return smp.FaultNone
	})
	if err := k.SetSegmentRights(d, seg, addr.Read); err != nil {
		t.Fatalf("revoke: %v", err)
	}
	if k.SeatHealth(k.DeviceSeat(0)) == smp.Healthy {
		t.Fatalf("dead device still healthy after revocation volleys")
	}
	if !k.DeviceFenced(0) && !k.SeatTrusted(k.DeviceSeat(0)) {
		// Either outcome (fenced, or merely stale pre-quarantine) is
		// acceptable mid-run; convergence must fix both.
		t.Logf("device health mid-run: %v", k.SeatHealth(k.DeviceSeat(0)))
	}
	dead = false // the device comes back before convergence
	if _, err := CheckConvergence(k); err != nil {
		t.Fatalf("convergence with device seat: %v", err)
	}
	if !k.SeatTrusted(k.DeviceSeat(0)) {
		t.Fatalf("device untrusted after convergence")
	}
}
