// The oracle's directory audit: the sharer directory must cover every
// seat that caches an entry. It lives in an external test package
// because oracle imports kernel.
package kernel_test

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/iommu"
	"repro/internal/kernel"
	"repro/internal/oracle"
)

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
