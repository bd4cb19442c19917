package kernel

import (
	"errors"
	"testing"

	"repro/internal/addr"
	"repro/internal/machine"
)

// superPageConfig returns a domain-page config whose PLB supports 64 KB
// super-page protection entries alongside the 4 KB base.
func superPageConfig() Config {
	cfg := DefaultConfig(ModelDomainPage)
	cfg.PLB.PLB.Shifts = []uint{addr.BasePageShift, 16}
	return cfg
}

func TestSuperPageSingleEntryCoversSegment(t *testing.T) {
	k := New(superPageConfig())
	d := k.CreateDomain()
	// 16 pages = 64 KB: exactly one super-page protection entry.
	seg := k.CreateSegment(16, SegmentOptions{Name: "lib", ProtShift: 16})
	if uint64(seg.Base())%(1<<16) != 0 {
		t.Fatalf("segment not aligned to 64K: %#x", uint64(seg.Base()))
	}
	k.Attach(d, seg, addr.RW)

	before := k.Machine().Counters().Snapshot()
	for p := uint64(0); p < 16; p++ {
		if err := k.Touch(d, seg.PageVA(p), addr.Store); err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
	}
	diff := k.Machine().Counters().Diff(before)
	// One PLB refill covers the whole segment; per-page translation
	// faults still happen.
	if got := diff.Get("trap.plb_refill"); got != 1 {
		t.Fatalf("plb refills = %d, want 1 (one super-page entry)", got)
	}
	if k.Machine().(*machine.PLBMachine).PLB().Len() != 1 {
		t.Fatalf("PLB entries = %d, want 1", k.Machine().(*machine.PLBMachine).PLB().Len())
	}
}

func TestSuperPageRightsStillEnforced(t *testing.T) {
	k := New(superPageConfig())
	d := k.CreateDomain()
	seg := k.CreateSegment(16, SegmentOptions{ProtShift: 16})
	k.Attach(d, seg, addr.Read)
	if err := k.Touch(d, seg.PageVA(3), addr.Load); err != nil {
		t.Fatal(err)
	}
	if err := k.Touch(d, seg.PageVA(3), addr.Store); !errors.Is(err, ErrProtection) {
		t.Fatalf("store through super-page read entry: %v", err)
	}
}

func TestSuperPageOverrideFallsBackToBase(t *testing.T) {
	k := New(superPageConfig())
	a := k.CreateDomain()
	b := k.CreateDomain()
	seg := k.CreateSegment(16, SegmentOptions{ProtShift: 16})
	k.Attach(a, seg, addr.RW)
	k.Attach(b, seg, addr.RW)
	k.Touch(a, seg.PageVA(0), addr.Store) // super entry resident for a

	// Revoke a's access to one page only: the super entry must not keep
	// granting it.
	va := seg.PageVA(5)
	if err := k.SetPageRights(a, va, addr.None); err != nil {
		t.Fatal(err)
	}
	if err := k.Touch(a, va, addr.Load); !errors.Is(err, ErrProtection) {
		t.Fatalf("override ignored under super-page entry: %v", err)
	}
	// Sibling pages remain accessible (re-faulting a fresh super entry).
	if err := k.Touch(a, seg.PageVA(6), addr.Store); err != nil {
		t.Fatalf("sibling page lost: %v", err)
	}
	// The other domain is untouched.
	if err := k.Touch(b, va, addr.Store); err != nil {
		t.Fatalf("domain b affected: %v", err)
	}
	// Restore and confirm.
	if err := k.ClearPageRights(a, va); err != nil {
		t.Fatal(err)
	}
	if err := k.Touch(a, va, addr.Store); err != nil {
		t.Fatalf("after clear: %v", err)
	}
}

func TestSuperPageDetachPurges(t *testing.T) {
	k := New(superPageConfig())
	d := k.CreateDomain()
	seg := k.CreateSegment(16, SegmentOptions{ProtShift: 16})
	k.Attach(d, seg, addr.RW)
	k.Touch(d, seg.Base(), addr.Store)
	if err := k.Detach(d, seg); err != nil {
		t.Fatal(err)
	}
	if err := k.Touch(d, seg.Base(), addr.Load); !errors.Is(err, ErrProtection) {
		t.Fatalf("super entry survived detach: %v", err)
	}
}

func TestSuperPageSegmentRightsChange(t *testing.T) {
	k := New(superPageConfig())
	d := k.CreateDomain()
	seg := k.CreateSegment(16, SegmentOptions{ProtShift: 16})
	k.Attach(d, seg, addr.RW)
	k.Touch(d, seg.Base(), addr.Store)
	if err := k.SetSegmentRights(d, seg, addr.Read); err != nil {
		t.Fatal(err)
	}
	if err := k.Touch(d, seg.PageVA(9), addr.Store); !errors.Is(err, ErrProtection) {
		t.Fatalf("segment-wide downgrade missed the super entry: %v", err)
	}
	if err := k.Touch(d, seg.PageVA(9), addr.Load); err != nil {
		t.Fatal(err)
	}
}

func TestProtShiftUnsupportedFallsBack(t *testing.T) {
	// Default config has no 64K size class: the option is ignored.
	k := New(DefaultConfig(ModelDomainPage))
	d := k.CreateDomain()
	seg := k.CreateSegment(16, SegmentOptions{ProtShift: 16})
	k.Attach(d, seg, addr.RW)
	before := k.Machine().Counters().Snapshot()
	for p := uint64(0); p < 16; p++ {
		if err := k.Touch(d, seg.PageVA(p), addr.Store); err != nil {
			t.Fatal(err)
		}
	}
	if got := k.Machine().Counters().Diff(before).Get("trap.plb_refill"); got != 16 {
		t.Fatalf("plb refills = %d, want 16 (base pages)", got)
	}
	if k.Counters().Get("kernel.protshift_unsupported") != 1 {
		t.Fatal("unsupported shift not counted")
	}
}

func TestProtShiftIgnoredOnPageGroup(t *testing.T) {
	cfg := DefaultConfig(ModelPageGroup)
	k := New(cfg)
	d := k.CreateDomain()
	seg := k.CreateSegment(16, SegmentOptions{ProtShift: 16})
	k.Attach(d, seg, addr.RW)
	if err := k.Touch(d, seg.Base(), addr.Store); err != nil {
		t.Fatal(err)
	}
}

// The super-page authority fuzz lives in invariant_test.go (package
// kernel_test), driven by the oracle package.
