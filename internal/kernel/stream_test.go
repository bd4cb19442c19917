package kernel_test

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/iommu"
	"repro/internal/kernel"
	"repro/internal/smp"
)

// TestShootdownStreamPinned pins the shootdown requests every seat
// receives, in order, which the suite golden (counts and cycles) does
// not hold. Per organization it runs streamScript, shaped like bench/'s
// revoke-dma, and folds every delivered (seat, request) into an FNV-1a
// digest through a fault hook whose every verdict is FaultNone. The
// digests and delivery counts were recorded before the kernel's shootdown
// helpers moved to one multi-target enqueue pass, so a change to
// targeting, enqueue order, the skip of the current CPU or coalescing
// moves them.
func TestShootdownStreamPinned(t *testing.T) {
	for _, c := range []struct {
		model             kernel.Model
		digest, delivered uint64
	}{
		{kernel.ModelDomainPage, 0xdfc55553ee628645, 2602},
		{kernel.ModelPageGroup, 0x45d838f8160dff7a, 139300},
		{kernel.ModelConventional, 0x3da7ac339a2bbc48, 22557},
		{kernel.ModelFlush, 0x1b590f3afa0207eb, 20799},
	} {
		digest, delivered := streamScript(t, c.model)
		if digest != c.digest || delivered != c.delivered {
			t.Errorf("%v: delivered %d requests with digest %#x, want %d with %#x",
				c.model, delivered, digest, c.delivered, c.digest)
		}
	}
}

// streamScript runs 4096 seeded ops on a kernel of the given model with
// revoke-dma's machine: 8 CPUs, a NIC, a DMA engine and a GC scanner
// under the acknowledged protocol, 16 worker domains pinned two per CPU
// and a device domain, all attached rw- to 4 segments of 16 pages. The
// ops are touches on the worker's CPU (70%), device transfers (10%),
// windows of 1-4 rights changes in distinct segments between
// DeferShootdowns and FlushShootdowns (15%), detach and re-attach (3%)
// and page-outs (2%), each change run from a random CPU. Outcomes are
// not checked: the lockstep holds them. It returns the digest and count
// of the requests delivered.
func streamScript(t *testing.T, model kernel.Model) (digest, delivered uint64) {
	t.Helper()
	const (
		workers  = 16
		segs     = 4
		segPages = 16
	)
	cfg := kernel.DefaultConfig(model)
	cfg.CPUs = 8
	cfg.Devices = []kernel.DeviceConfig{{Kind: iommu.NIC}, {Kind: iommu.DMAEngine}, {Kind: iommu.GCScanner}}
	k, err := kernel.NewChecked(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.EnableShootdownProtocol(smp.DefaultProtocolConfig())
	digest = 14695981039346656037 // FNV-1a offset basis
	k.SetIPIFault(func(seat int, r smp.Request) smp.Fault {
		wd := uint64(0)
		if r.WD {
			wd = 1
		}
		for _, v := range [...]uint64{uint64(seat), uint64(r.Kind), uint64(r.Domain), uint64(r.VPN),
			uint64(r.Range.Start), r.Range.Length, uint64(r.Group), uint64(r.Rights), wd} {
			for i := 0; i < 8; i++ {
				digest = (digest ^ v>>(8*i)&0xff) * 1099511628211
			}
		}
		delivered++
		return smp.FaultNone
	})
	io := k.CreateDomain()
	var ws [workers]*kernel.Domain
	for i := range ws {
		ws[i] = k.CreateDomain()
	}
	var ss [segs]*kernel.Segment
	for i := range ss {
		ss[i] = k.CreateSegment(segPages, kernel.SegmentOptions{Name: "shared"})
		k.Attach(io, ss[i], addr.RW)
		for _, d := range ws {
			k.Attach(d, ss[i], addr.RW)
		}
	}
	for i := 0; i < k.NumDevices(); i++ {
		k.ProgramDevice(i, io)
	}
	va := func(p int) addr.VA { return ss[p/segPages].PageVA(uint64(p % segPages)) }
	rights := func(rng *rand.Rand) addr.Rights {
		return [...]addr.Rights{addr.None, addr.Read, addr.RW}[rng.Intn(3)]
	}
	packet := make([]byte, k.Geometry().PageSize())
	rng := rand.New(rand.NewSource(1))
	for range 4096 {
		w, p := rng.Intn(workers), rng.Intn(segs*segPages)
		switch n := rng.Intn(100); {
		case n < 70:
			k.SetCPU(w / 2)
			kind := addr.Load
			if rng.Intn(10) < 3 {
				kind = addr.Store
			}
			_ = k.Touch(ws[w], va(p), kind)
		case n < 80:
			switch rng.Intn(3) {
			case 0:
				packet[0]++
				_ = k.DeviceWritePage(0, va(p), packet)
			case 1:
				_, _ = k.DeviceReadPage(1, va(p))
			default:
				_ = k.DeviceTouch(2, va(p), addr.Store)
			}
		case n < 95:
			k.SetCPU(rng.Intn(cfg.CPUs))
			k.DeferShootdowns()
			for _, seg := range rng.Perm(segs)[:1+rng.Intn(segs)] {
				w, q := rng.Intn(workers), seg*segPages+rng.Intn(segPages)
				switch rng.Intn(4) {
				case 0:
					_ = k.SetSegmentRights(io, ss[seg], rights(rng))
				case 1:
					_ = k.ClearPageRights(ws[w], va(q))
				default:
					_ = k.SetPageRights(ws[w], va(q), rights(rng))
				}
			}
			k.FlushShootdowns()
		case n < 98:
			k.SetCPU(rng.Intn(cfg.CPUs))
			_ = k.Detach(ws[w], ss[p/segPages])
			_ = k.Attach(ws[w], ss[p/segPages], rights(rng))
		default:
			k.SetCPU(rng.Intn(cfg.CPUs))
			_ = k.PageOut(k.Geometry().PageNumber(va(p)))
		}
	}
	if got := k.Counters().Get("smp.delivered"); got != delivered {
		t.Fatalf("%v: the fault hook saw %d deliveries, smp.delivered reads %d", model, delivered, got)
	}
	return digest, delivered
}
