package kernel

import (
	"errors"
	"testing"

	"repro/internal/addr"
	"repro/internal/machine"
	"repro/internal/ptable"
	"repro/internal/tlb"
)

func TestConventionalModelBasics(t *testing.T) {
	k := New(DefaultConfig(ModelConventional))
	if k.Machine().Name() != "conventional" {
		t.Fatalf("machine = %s", k.Machine().Name())
	}
	a := k.CreateDomain()
	b := k.CreateDomain()
	s := k.CreateSegment(4, SegmentOptions{Name: "shared"})
	k.Attach(a, s, addr.RW)
	k.Attach(b, s, addr.Read)

	if err := k.Store(a, s.Base(), 99); err != nil {
		t.Fatal(err)
	}
	v, err := k.Load(b, s.Base())
	if err != nil || v != 99 {
		t.Fatalf("load = %d, %v", v, err)
	}
	if err := k.Touch(b, s.Base(), addr.Store); !errors.Is(err, ErrProtection) {
		t.Fatalf("reader store: %v", err)
	}
	// The hallmark of §3.1: the shared page occupies one TLB entry per
	// address space.
	if n := tlb.ResidentFor(k.Machine().(*machine.ConventionalMachine).TLB(), s.PageVPN(0)); n != 2 {
		t.Fatalf("TLB entries for shared page = %d, want 2", n)
	}
}

func TestConventionalUnattachedDenied(t *testing.T) {
	k := New(DefaultConfig(ModelConventional))
	owner := k.CreateDomain()
	spy := k.CreateDomain()
	s := k.CreateSegment(2, SegmentOptions{})
	k.Attach(owner, s, addr.RW)
	k.Store(owner, s.Base(), 1)
	// The spy's per-space view has no entry: the hardware raises a page
	// fault, which the kernel recognizes as a protection matter (the
	// page IS mapped globally).
	if err := k.Touch(spy, s.Base(), addr.Load); !errors.Is(err, ErrProtection) {
		t.Fatalf("spy: %v", err)
	}
	// After attaching, access proceeds with no residue.
	k.Attach(spy, s, addr.Read)
	if v, err := k.Load(spy, s.Base()); err != nil || v != 1 {
		t.Fatalf("after attach: %d, %v", v, err)
	}
}

func TestConventionalSegmentRightsPerPage(t *testing.T) {
	k := New(DefaultConfig(ModelConventional))
	d := k.CreateDomain()
	s := k.CreateSegment(8, SegmentOptions{})
	k.Attach(d, s, addr.RW)
	for p := uint64(0); p < 8; p++ {
		k.Touch(d, s.PageVA(p), addr.Store)
	}
	if err := k.SetSegmentRights(d, s, addr.Read); err != nil {
		t.Fatal(err)
	}
	// The engine had to touch the domain's entry for every page.
	if got := k.Counters().Get("conv.per_page_rights_ops"); got != 8 {
		t.Fatalf("per-page ops = %d, want 8", got)
	}
	if err := k.Touch(d, s.PageVA(3), addr.Store); !errors.Is(err, ErrProtection) {
		t.Fatalf("downgrade not enforced: %v", err)
	}
}

func TestConventionalDetachInvalidates(t *testing.T) {
	k := New(DefaultConfig(ModelConventional))
	d := k.CreateDomain()
	s := k.CreateSegment(4, SegmentOptions{})
	k.Attach(d, s, addr.RW)
	k.Touch(d, s.Base(), addr.Store)
	if err := k.Detach(d, s); err != nil {
		t.Fatal(err)
	}
	if err := k.Touch(d, s.Base(), addr.Load); !errors.Is(err, ErrProtection) {
		t.Fatalf("after detach: %v", err)
	}
	alloc := k.Counters().Get("conv.pte_slots_allocated")
	freed := k.Counters().Get("conv.pte_slots_freed")
	if alloc != 4 || freed != 4 {
		t.Fatalf("slot accounting = %d/%d", alloc, freed)
	}
}

func TestConventionalPaging(t *testing.T) {
	k := New(DefaultConfig(ModelConventional))
	d := k.CreateDomain()
	s := k.CreateSegment(2, SegmentOptions{})
	k.Attach(d, s, addr.RW)
	k.Store(d, s.Base(), 0xabc)
	if err := k.PageOut(s.PageVPN(0)); err != nil {
		t.Fatal(err)
	}
	v, err := k.Load(d, s.Base())
	if err != nil || v != 0xabc {
		t.Fatalf("after page round trip: %#x, %v", v, err)
	}
}

// The conventional-model authority fuzz lives in invariant_test.go
// (package kernel_test), driven by the oracle package.

func TestConventionalFaultHandler(t *testing.T) {
	k := New(DefaultConfig(ModelConventional))
	d := k.CreateDomain()
	faults := 0
	s := k.CreateSegment(2, SegmentOptions{
		Handler: func(f Fault) error {
			faults++
			return f.K.SetPageRights(f.Domain, f.VA, addr.RW)
		},
	})
	k.Attach(d, s, addr.None)
	if err := k.Store(d, s.Base(), 5); err != nil {
		t.Fatal(err)
	}
	if faults != 1 {
		t.Fatalf("faults = %d", faults)
	}
}

// The kernel's translations survive a paging round trip on every
// organization, and load into an inverted page table that agrees with
// Translate on every page.
func TestInvertedTranslationTable(t *testing.T) {
	for _, m := range []Model{ModelDomainPage, ModelPageGroup, ModelConventional} {
		cfg := DefaultConfig(m)
		k := New(cfg)
		d := k.CreateDomain()
		s := k.CreateSegment(16, SegmentOptions{})
		k.Attach(d, s, addr.RW)
		for p := uint64(0); p < 16; p++ {
			if err := k.Store(d, s.PageVA(p), p); err != nil {
				t.Fatalf("%v: %v", m, err)
			}
		}
		for p := uint64(0); p < 16; p++ {
			v, err := k.Load(d, s.PageVA(p))
			if err != nil || v != p {
				t.Fatalf("%v: page %d = %d, %v", m, p, v, err)
			}
		}
		if err := k.PageOut(s.PageVPN(3)); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if v, err := k.Load(d, s.PageVA(3)); err != nil || v != 3 {
			t.Fatalf("%v: after paging: %d, %v", m, v, err)
		}
		ipt, err := ptable.NewInvertedTable(cfg.Frames)
		if err != nil {
			t.Fatal(err)
		}
		for p := uint64(0); p < 16; p++ {
			pfn, ok := k.Translate(s.PageVPN(p))
			if !ok {
				t.Fatalf("%v: page %d unmapped", m, p)
			}
			if err := ipt.Map(s.PageVPN(p), pfn); err != nil {
				t.Fatalf("%v: page %d: %v", m, p, err)
			}
		}
		for p := uint64(0); p < 16; p++ {
			want, _ := k.Translate(s.PageVPN(p))
			if got, ok := ipt.Lookup(s.PageVPN(p)); !ok || got != want {
				t.Fatalf("%v: page %d: inverted lookup = %d, %v; Translate = %d", m, p, got, ok, want)
			}
		}
	}
}
