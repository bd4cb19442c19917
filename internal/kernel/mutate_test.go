package kernel_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/iommu"
	"repro/internal/kernel"
	"repro/internal/oracle"
)

// The mutation table drives every kernel API that changes protection or
// translation state against a page that is warm on every CPU: its
// translation, protection entries and cache lines are resident. After
// the mutation the page is touched again on each CPU. The outcome — allow,
// or the errors.Is kind of the deny — must be the one the new authority
// dictates, and therefore the same on every organization, and the oracle
// must find no hardware entry that disagrees with the kernel. A mutation
// that left a stale entry resident on any CPU shows up as a wrong
// outcome or an oracle violation.

// mutationCPUs is the CPU count of the table's kernels: the page is warm
// on a CPU other than the one issuing the mutation, so the mutation's
// shootdowns are exercised too.
const mutationCPUs = 2

// primeWarmPage builds a kernel of the given organization with one
// domain attached read-write to a 4-page segment, and stores to the
// segment's first page on every CPU, ending on CPU 0.
func primeWarmPage(t *testing.T, model kernel.Model) (*kernel.Kernel, *kernel.Domain, *kernel.Segment) {
	t.Helper()
	cfg := kernel.DefaultConfig(model)
	cfg.CPUs = mutationCPUs
	k, err := kernel.NewChecked(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := k.CreateDomain()
	s := k.CreateSegment(4, kernel.SegmentOptions{Name: "seg"})
	k.Attach(d, s, addr.RW)
	for cpu := mutationCPUs - 1; cpu >= 0; cpu-- {
		k.SetCPU(cpu)
		if err := k.Touch(d, s.Base(), addr.Store); err != nil {
			t.Fatalf("priming store on CPU %d: %v", cpu, err)
		}
	}
	return k, d, s
}

// denyKinds are the sentinels a refused call is classified by.
var denyKinds = []error{
	kernel.ErrProtection, kernel.ErrNoAuthority, kernel.ErrUnrepresentable,
	kernel.ErrFaultLoop, kernel.ErrDomainDestroyed, kernel.ErrSegmentDestroyed,
	kernel.ErrSegmentBusy, kernel.ErrNotAttached,
	iommu.ErrDenied, iommu.ErrNoAuthority, iommu.ErrFenced,
}

// outcome classifies a call's result: "allow", or the refusal's kind.
func outcome(err error) string {
	if err == nil {
		return "allow"
	}
	for _, kind := range denyKinds {
		if errors.Is(err, kind) {
			return kind.Error()
		}
	}
	return "unclassified: " + err.Error()
}

// execSetup moves d's execution site into a fresh code segment, lowers
// d's attachment to s to read-only, and grants code's executors
// read-write on s — so d may store to s only while it executes in code.
func execSetup(t *testing.T, k *kernel.Kernel, d *kernel.Domain, s *kernel.Segment) *kernel.Segment {
	t.Helper()
	code := k.CreateSegment(1, kernel.SegmentOptions{Name: "code"})
	if err := k.SetExecutionSite(d, code.Base()); err != nil {
		t.Fatal(err)
	}
	if err := k.SetSegmentRights(d, s, addr.Read); err != nil {
		t.Fatal(err)
	}
	if err := k.GrantExecutor(s, code, addr.RW); err != nil {
		t.Fatal(err)
	}
	if err := k.Touch(d, s.Base(), addr.Store); err != nil {
		t.Fatalf("store under executor grant: %v", err)
	}
	return code
}

// mutations is the table: one case per mutating kernel API. mutate runs
// on CPU 0 after the page is primed; kind is the access then made to the
// page on every CPU, and want its outcome (nil means allowed).
var mutations = []struct {
	name string
	// domainPageOnly marks the execution-keyed APIs, which only the
	// domain-page model can express.
	domainPageOnly bool
	kind           addr.AccessKind
	want           error
	mutate         func(t *testing.T, k *kernel.Kernel, d *kernel.Domain, s *kernel.Segment)
}{
	{name: "SetPageRights", kind: addr.Store, want: kernel.ErrProtection,
		mutate: func(t *testing.T, k *kernel.Kernel, d *kernel.Domain, s *kernel.Segment) {
			if err := k.SetPageRights(d, s.Base(), addr.Read); err != nil {
				t.Fatal(err)
			}
		}},
	{name: "ClearPageRights", kind: addr.Store,
		mutate: func(t *testing.T, k *kernel.Kernel, d *kernel.Domain, s *kernel.Segment) {
			if err := k.SetPageRights(d, s.Base(), addr.Read); err != nil {
				t.Fatal(err)
			}
			if err := k.ClearPageRights(d, s.Base()); err != nil {
				t.Fatal(err)
			}
		}},
	{name: "SetSegmentRights", kind: addr.Store, want: kernel.ErrProtection,
		mutate: func(t *testing.T, k *kernel.Kernel, d *kernel.Domain, s *kernel.Segment) {
			if err := k.SetSegmentRights(d, s, addr.Read); err != nil {
				t.Fatal(err)
			}
		}},
	{name: "Attach", kind: addr.Store,
		mutate: func(t *testing.T, k *kernel.Kernel, d *kernel.Domain, s *kernel.Segment) {
			k.Attach(d, k.CreateSegment(2, kernel.SegmentOptions{Name: "s2"}), addr.Read)
		}},
	{name: "re-attach read-only", kind: addr.Store, want: kernel.ErrProtection,
		mutate: func(t *testing.T, k *kernel.Kernel, d *kernel.Domain, s *kernel.Segment) {
			k.Attach(d, s, addr.Read)
		}},
	{name: "Detach", kind: addr.Load, want: kernel.ErrProtection,
		mutate: func(t *testing.T, k *kernel.Kernel, d *kernel.Domain, s *kernel.Segment) {
			if err := k.Detach(d, s); err != nil {
				t.Fatal(err)
			}
		}},
	{name: "Unmap", kind: addr.Load,
		mutate: func(t *testing.T, k *kernel.Kernel, d *kernel.Domain, s *kernel.Segment) {
			if err := k.Unmap(k.Geometry().PageNumber(s.Base())); err != nil {
				t.Fatal(err)
			}
		}},
	{name: "PageOut", kind: addr.Load,
		mutate: func(t *testing.T, k *kernel.Kernel, d *kernel.Domain, s *kernel.Segment) {
			if err := k.PageOut(k.Geometry().PageNumber(s.Base())); err != nil {
				t.Fatal(err)
			}
		}},
	{name: "DestroySegment", kind: addr.Load, want: kernel.ErrNoAuthority,
		mutate: func(t *testing.T, k *kernel.Kernel, d *kernel.Domain, s *kernel.Segment) {
			if err := k.Detach(d, s); err != nil {
				t.Fatal(err)
			}
			if err := k.DestroySegment(s); err != nil {
				t.Fatal(err)
			}
		}},
	{name: "GrantExecutor", domainPageOnly: true, kind: addr.Store,
		mutate: func(t *testing.T, k *kernel.Kernel, d *kernel.Domain, s *kernel.Segment) {
			code := k.CreateSegment(1, kernel.SegmentOptions{Name: "code"})
			if err := k.SetExecutionSite(d, code.Base()); err != nil {
				t.Fatal(err)
			}
			if err := k.SetSegmentRights(d, s, addr.Read); err != nil {
				t.Fatal(err)
			}
			// Warm the read-only entry the grant must displace.
			if err := k.Touch(d, s.Base(), addr.Load); err != nil {
				t.Fatal(err)
			}
			if err := k.GrantExecutor(s, code, addr.RW); err != nil {
				t.Fatal(err)
			}
		}},
	{name: "RevokeExecutor", domainPageOnly: true, kind: addr.Store, want: kernel.ErrProtection,
		mutate: func(t *testing.T, k *kernel.Kernel, d *kernel.Domain, s *kernel.Segment) {
			code := execSetup(t, k, d, s)
			if err := k.RevokeExecutor(s, code); err != nil {
				t.Fatal(err)
			}
		}},
	{name: "SetExecutionSite", domainPageOnly: true, kind: addr.Store, want: kernel.ErrProtection,
		mutate: func(t *testing.T, k *kernel.Kernel, d *kernel.Domain, s *kernel.Segment) {
			execSetup(t, k, d, s)
			// Leave the code segment: the grant no longer applies.
			if err := k.SetExecutionSite(d, s.Base()); err != nil {
				t.Fatal(err)
			}
		}},
}

// TestMutatingAPIsAgreeAcrossOrganizations runs the mutation table on
// every organization that accepts each API.
func TestMutatingAPIsAgreeAcrossOrganizations(t *testing.T) {
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			want := outcome(tc.want)
			got := map[string]string{} // organization -> per-CPU outcomes
			for _, model := range lifecycleModels {
				if tc.domainPageOnly && model != kernel.ModelDomainPage {
					continue
				}
				t.Run(model.String(), func(t *testing.T) {
					k, d, s := primeWarmPage(t, model)
					tc.mutate(t, k, d, s)
					if err := oracle.Verify(k); err != nil {
						t.Errorf("after %s: %v", tc.name, err)
					}
					var per []string
					for cpu := mutationCPUs - 1; cpu >= 0; cpu-- {
						k.SetCPU(cpu)
						o := outcome(k.Touch(d, s.Base(), tc.kind))
						if o != want {
							t.Errorf("CPU %d: %v after %s = %q, want %q", cpu, tc.kind, tc.name, o, want)
						}
						per = append(per, fmt.Sprintf("cpu%d=%s", cpu, o))
					}
					got[model.String()] = strings.Join(per, " ")
					if err := oracle.Verify(k); err != nil {
						t.Errorf("after touching: %v", err)
					}
					if err := k.CheckTranslationBookkeeping(); err != nil {
						t.Errorf("after %s: %v", tc.name, err)
					}
				})
			}
			distinct := map[string]bool{}
			for _, o := range got {
				distinct[o] = true
			}
			if len(distinct) > 1 {
				t.Errorf("organizations disagree after %s: %v", tc.name, got)
			}
		})
	}
}
