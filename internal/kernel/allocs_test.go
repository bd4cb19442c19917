package kernel_test

import (
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/iommu"
	"repro/internal/kernel"
	"repro/internal/smp"
)

// Allocation gates for the multi-tenant churn target: once the Domain
// pool and counters are warm, a create/destroy cycle must not allocate —
// empty domains are lazily initialized (attached/overrides/groups all
// materialize on first use) and destroyed structs are pooled with their
// attachment vectors and group sets emptied, not dropped. A regression
// here turns million-session workloads into GC benchmarks.

func measureChurn(t *testing.T, warm, cycle func()) float64 {
	t.Helper()
	for i := 0; i < 16; i++ {
		warm()
	}
	return testing.AllocsPerRun(200, cycle)
}

func TestEmptyDomainChurnAllocs(t *testing.T) {
	k := kernel.New(kernel.DefaultConfig(kernel.ModelDomainPage))
	cycle := func() {
		d, err := k.CreateDomainChecked()
		if err != nil {
			t.Fatal(err)
		}
		if err := k.DestroyDomain(d); err != nil {
			t.Fatal(err)
		}
	}
	if avg := measureChurn(t, cycle, cycle); avg > 0 {
		t.Errorf("empty-domain create/destroy allocates %.1f objects per cycle, want 0", avg)
	}
}

// TestSessionChurnAllocs is the gate for the realistic shape: recycled
// domains attach to long-lived segments, touch nothing, and die. The
// attachment bookkeeping reuses the pooled struct's vector capacity and
// the segment's bitset words.
func TestSessionChurnAllocs(t *testing.T) {
	k := kernel.New(kernel.DefaultConfig(kernel.ModelDomainPage))
	s := k.CreateSegment(4, kernel.SegmentOptions{Name: "shared"})
	cycle := func() {
		d, err := k.CreateDomainChecked()
		if err != nil {
			t.Fatal(err)
		}
		k.Attach(d, s, addr.RW)
		if err := k.DestroyDomain(d); err != nil {
			t.Fatal(err)
		}
	}
	if avg := measureChurn(t, cycle, cycle); avg > 0 {
		t.Errorf("attach churn allocates %.1f objects per cycle, want 0", avg)
	}
}

// TestForkChurnAllocs gates the fork-based session shape under every
// organization: a warm template attached to two shared segments, one of
// whose pages sits in a live derived group (a diverged child restricted
// it), is forked, the child touches a shared page, and dies. Under the
// page-group model each cycle copies the template's group set, joins the
// child to the derived group and removes it again — all on reused
// vectors.
func TestForkChurnAllocs(t *testing.T) {
	for _, model := range []kernel.Model{
		kernel.ModelDomainPage, kernel.ModelPageGroup,
		kernel.ModelConventional, kernel.ModelFlush,
	} {
		t.Run(model.String(), func(t *testing.T) {
			k := kernel.New(kernel.DefaultConfig(model))
			template := k.CreateDomain()
			var segs [2]*kernel.Segment
			for i := range segs {
				segs[i] = k.CreateSegment(8, kernel.SegmentOptions{Name: "shared"})
				k.Attach(template, segs[i], addr.RW)
			}
			diverged, err := k.ForkDomain(template)
			if err != nil {
				t.Fatal(err)
			}
			if err := k.SetPageRights(diverged, segs[0].PageVA(1), addr.Read); err != nil {
				t.Fatal(err)
			}
			cycle := func() {
				d, err := k.ForkDomain(template)
				if err != nil {
					t.Fatal(err)
				}
				if err := k.Touch(d, segs[1].PageVA(2), addr.Store); err != nil {
					t.Fatal(err)
				}
				if err := k.DestroyDomain(d); err != nil {
					t.Fatal(err)
				}
			}
			if avg := measureChurn(t, cycle, cycle); avg > 0 {
				t.Errorf("fork/touch/destroy allocates %.1f objects per cycle, want 0", avg)
			}
		})
	}
}

// TestRegroupChurnAllocs gates the page-group regroup path across seats:
// on a 4-CPU kernel under the acknowledged shootdown protocol, with eight
// domains attached to one segment, four of them executing on the CPUs
// and a fifth programmed into a DMA engine, each cycle restricts one
// domain's page to Read in a deferred window, runs one device transfer,
// and clears the override. That mints a derived group, grants it to the
// other seven, re-homes the page and retires the group again, with group
// loads and revocations delivered to the CPUs and to the device. Once
// the group records, member sets and shootdown buffers are warm, a cycle
// must not allocate.
func TestRegroupChurnAllocs(t *testing.T) {
	cfg := kernel.DefaultConfig(kernel.ModelPageGroup)
	cfg.CPUs = 4
	cfg.Devices = []kernel.DeviceConfig{{Kind: iommu.DMAEngine}}
	k, err := kernel.NewChecked(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k.EnableShootdownProtocol(smp.DefaultProtocolConfig())
	s := k.CreateSegment(8, kernel.SegmentOptions{Name: "shared"})
	var doms [8]*kernel.Domain
	for i := range doms {
		doms[i] = k.CreateDomain()
		k.Attach(doms[i], s, addr.RW)
	}
	for c := 0; c < cfg.CPUs; c++ {
		k.SetCPU(c)
		k.Switch(doms[c])
	}
	k.ProgramDevice(0, doms[cfg.CPUs])
	n := 0
	cycle := func() {
		d, va := doms[n%len(doms)], s.PageVA(uint64(n%8))
		n++
		k.DeferShootdowns()
		if err := k.SetPageRights(d, va, addr.Read); err != nil {
			t.Fatal(err)
		}
		k.FlushShootdowns()
		if err := k.DeviceTouch(0, va, addr.Load); err != nil {
			t.Fatal(err)
		}
		if err := k.ClearPageRights(d, va); err != nil {
			t.Fatal(err)
		}
	}
	if avg := measureChurn(t, cycle, cycle); avg > 0 {
		t.Errorf("regroup churn allocates %.1f objects per cycle, want 0", avg)
	}
	// The gate means something only if the cycle took the path.
	ctrs := k.Counters()
	if ctrs.Get("pg.groups_recycled") == 0 || ctrs.Get("smp.dev_ipis") == 0 {
		t.Fatalf("cycle recycled %d groups and sent %d device IPIs, want both > 0",
			ctrs.Get("pg.groups_recycled"), ctrs.Get("smp.dev_ipis"))
	}
}

// TestDeniedTouchAllocs gates the denial path under every organization:
// a store to a mapped page the domain may only read, in a segment with no
// fault handler, allocates its FaultError and nothing else. The cause's
// text is formatted only when the error is printed.
func TestDeniedTouchAllocs(t *testing.T) {
	for _, model := range []kernel.Model{
		kernel.ModelDomainPage, kernel.ModelPageGroup,
		kernel.ModelConventional, kernel.ModelFlush,
	} {
		t.Run(model.String(), func(t *testing.T) {
			k := kernel.New(kernel.DefaultConfig(model))
			d := k.CreateDomain()
			s := k.CreateSegment(2, kernel.SegmentOptions{Name: "args"})
			k.Attach(d, s, addr.Read)
			if err := k.Touch(d, s.Base(), addr.Load); err != nil {
				t.Fatal(err)
			}
			var err error
			deny := func() {
				err = k.Touch(d, s.Base(), addr.Store)
				if fe, ok := err.(*kernel.FaultError); !ok || fe.Sentinel != kernel.ErrProtection {
					t.Fatalf("denied store returned %v, want a protection FaultError", err)
				}
			}
			if avg := measureChurn(t, deny, deny); avg > 1 {
				t.Errorf("denied store allocates %.1f objects, want at most 1 (its FaultError)", avg)
			}
			if want := `segment "args" has no handler`; !strings.HasSuffix(err.Error(), want) {
				t.Errorf("denial reads %q, want it to end %q", err, want)
			}
		})
	}
}
