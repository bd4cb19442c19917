package kernel_test

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/kernel"
)

// Allocation gates for the multi-tenant churn target: once the Domain
// pool and counters are warm, a create/destroy cycle must not allocate —
// empty domains are lazily initialized (attached/overrides/groups all
// materialize on first use) and destroyed structs are pooled with their
// maps cleared, not dropped. A regression here turns million-session
// workloads into GC benchmarks.

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
// attachment bookkeeping reuses the pooled struct's cleared maps.
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
