package kernel_test

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/iommu"
	"repro/internal/kernel"
	"repro/internal/smp"
)

// BenchmarkPGResync measures a page-group resync at revoke-dma's shape:
// 8 CPUs and a NIC, a DMA engine and a GC scanner under the acknowledged
// shootdown protocol, 16 worker domains pinned two per CPU and a device
// domain the devices act for, all attached rw- to one 16-page segment.
// Every page is mapped and cached on its workers' CPUs, and worker i
// holds overrides on four pages spread over the segment, i, i+4, i+8
// and i+12 (mod 16), at r-- and --- in turn, about as many as a
// revoke-dma worker holds in a segment between re-attaches; so all 16
// pages sit in derived groups, each overridden by four workers. Each op
// flips the device domain's segment rights between r-- and rw-: the
// resync reads every domain's overrides, re-derives all 16 pages,
// minting a group for each and retiring the one it left, with the group
// loads, updates and revocations that takes delivered to the CPUs and
// devices.
func BenchmarkPGResync(b *testing.B) {
	cfg := kernel.DefaultConfig(kernel.ModelPageGroup)
	cfg.CPUs = 8
	cfg.Devices = []kernel.DeviceConfig{{Kind: iommu.NIC}, {Kind: iommu.DMAEngine}, {Kind: iommu.GCScanner}}
	k, err := kernel.NewChecked(cfg)
	if err != nil {
		b.Fatal(err)
	}
	k.EnableShootdownProtocol(smp.DefaultProtocolConfig())
	io := k.CreateDomain()
	s := k.CreateSegment(16, kernel.SegmentOptions{Name: "shared"})
	k.Attach(io, s, addr.RW)
	var workers [16]*kernel.Domain
	for i := range workers {
		workers[i] = k.CreateDomain()
		k.Attach(workers[i], s, addr.RW)
	}
	for i := 0; i < k.NumDevices(); i++ {
		k.ProgramDevice(i, io)
	}
	for i, w := range workers {
		k.SetCPU(i / 2)
		for p := uint64(0); p < s.NumPages(); p++ {
			if err := k.Touch(w, s.PageVA(p), addr.Load); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i, w := range workers {
		for j, r := range []addr.Rights{addr.Read, addr.None, addr.Read, addr.None} {
			if err := k.SetPageRights(w, s.PageVA(uint64(i+4*j)%s.NumPages()), r); err != nil {
				b.Fatal(err)
			}
		}
	}
	flip := [2]addr.Rights{addr.Read, addr.RW}
	for i := 0; i < 8; i++ {
		if err := k.SetSegmentRights(io, s, flip[i%2]); err != nil {
			b.Fatal(err)
		}
	}
	requests := k.Counters().Get("smp.requests")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.SetSegmentRights(io, s, flip[i%2]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(k.Counters().Get("smp.requests")-requests)/float64(b.N), "requests/op")
}
