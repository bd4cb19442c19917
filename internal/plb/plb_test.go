package plb

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/assoc"
	"repro/internal/stats"
)

func newTestPLB(t *testing.T, ways int, shifts ...uint) (*PLB, *stats.Counters) {
	t.Helper()
	if len(shifts) == 0 {
		shifts = []uint{addr.BasePageShift}
	}
	ctrs := &stats.Counters{}
	p := MustNew(Config{
		Assoc:  assoc.Config{Sets: 1, Ways: ways, Policy: assoc.LRU},
		Shifts: shifts,
	}, ctrs, "plb")
	return p, ctrs
}

func TestLookupMissThenHit(t *testing.T) {
	p, ctrs := newTestPLB(t, 8)
	if _, ok := p.Lookup(1, 0x1000); ok {
		t.Fatal("hit on empty PLB")
	}
	p.Insert(1, 0x1000, addr.BasePageShift, addr.RW)
	r, ok := p.Lookup(1, 0x1abc) // same page, different offset
	if !ok || r != addr.RW {
		t.Fatalf("Lookup = %v,%v", r, ok)
	}
	if ctrs.Get("plb.hit") != 1 || ctrs.Get("plb.miss") != 1 || ctrs.Get("plb.install") != 1 {
		t.Fatalf("counters: %v", ctrs.Snapshot())
	}
}

func TestPerDomainEntries(t *testing.T) {
	p, _ := newTestPLB(t, 8)
	// Two domains sharing a page hold separate entries with separate
	// rights — the duplication the paper describes.
	p.Insert(1, 0x1000, addr.BasePageShift, addr.RW)
	p.Insert(2, 0x1000, addr.BasePageShift, addr.Read)
	if r, _ := p.Lookup(1, 0x1000); r != addr.RW {
		t.Fatal("domain 1 rights wrong")
	}
	if r, _ := p.Lookup(2, 0x1000); r != addr.Read {
		t.Fatal("domain 2 rights wrong")
	}
	if _, ok := p.Lookup(3, 0x1000); ok {
		t.Fatal("unrelated domain hit")
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestUpdateSingleDomain(t *testing.T) {
	p, ctrs := newTestPLB(t, 8)
	p.Insert(1, 0x1000, addr.BasePageShift, addr.RW)
	p.Insert(2, 0x1000, addr.BasePageShift, addr.RW)
	// Changing one domain's rights must not affect the other (the PLB's
	// key property, Section 4.1.2).
	if !p.Update(1, 0x1000, addr.None) {
		t.Fatal("Update returned false")
	}
	if r, _ := p.Lookup(1, 0x1000); r != addr.None {
		t.Fatal("update lost")
	}
	if r, _ := p.Lookup(2, 0x1000); r != addr.RW {
		t.Fatal("other domain's rights disturbed")
	}
	if p.Update(9, 0x1000, addr.Read) {
		t.Fatal("Update for absent entry returned true")
	}
	if ctrs.Get("plb.update") != 1 {
		t.Fatalf("update counter = %d", ctrs.Get("plb.update"))
	}
}

func TestInvalidate(t *testing.T) {
	p, _ := newTestPLB(t, 8)
	p.Insert(1, 0x1000, addr.BasePageShift, addr.RW)
	if !p.Invalidate(1, 0x1000) {
		t.Fatal("Invalidate returned false")
	}
	if p.Invalidate(1, 0x1000) {
		t.Fatal("double Invalidate returned true")
	}
	if _, ok := p.Lookup(1, 0x1000); ok {
		t.Fatal("entry survives Invalidate")
	}
}

func TestPurgeRangeOnlyTargetDomain(t *testing.T) {
	p, ctrs := newTestPLB(t, 32)
	// Domain 1 attached to pages 0..7; domain 2 to the same pages.
	for vpn := uint64(0); vpn < 8; vpn++ {
		p.Insert(1, addr.VA(vpn<<addr.BasePageShift), addr.BasePageShift, addr.RW)
		p.Insert(2, addr.VA(vpn<<addr.BasePageShift), addr.BasePageShift, addr.Read)
	}
	// Detach pages 2..5 from domain 1.
	removed := p.PurgeRange(1, addr.VA(2<<addr.BasePageShift), 4<<addr.BasePageShift)
	if removed != 4 {
		t.Fatalf("removed = %d", removed)
	}
	if p.Len() != 12 {
		t.Fatalf("Len = %d", p.Len())
	}
	// The scan inspected every resident entry (worst case per §4.1.1).
	if ctrs.Get("plb.inspected") != 16 {
		t.Fatalf("inspected = %d", ctrs.Get("plb.inspected"))
	}
	for vpn := uint64(0); vpn < 8; vpn++ {
		if _, ok := p.Lookup(2, addr.VA(vpn<<addr.BasePageShift)); !ok {
			t.Fatalf("domain 2 entry for page %d purged", vpn)
		}
	}
}

func TestPurgeDomainAndAll(t *testing.T) {
	p, _ := newTestPLB(t, 16)
	for vpn := uint64(0); vpn < 4; vpn++ {
		p.Insert(1, addr.VA(vpn<<12), addr.BasePageShift, addr.RW)
		p.Insert(2, addr.VA(vpn<<12), addr.BasePageShift, addr.RW)
	}
	if n := p.PurgeDomain(1); n != 4 {
		t.Fatalf("PurgeDomain = %d", n)
	}
	if p.Len() != 4 {
		t.Fatalf("Len = %d", p.Len())
	}
	if n := p.PurgeAll(); n != 4 {
		t.Fatalf("PurgeAll = %d", n)
	}
}

func TestPurgePageAllDomains(t *testing.T) {
	p, _ := newTestPLB(t, 16)
	p.Insert(1, 0x1000, addr.BasePageShift, addr.RW)
	p.Insert(2, 0x1000, addr.BasePageShift, addr.Read)
	p.Insert(1, 0x2000, addr.BasePageShift, addr.RW)
	if n := p.PurgePage(0x1000); n != 2 {
		t.Fatalf("PurgePage = %d", n)
	}
	if _, ok := p.Lookup(1, 0x2000); !ok {
		t.Fatal("unrelated page purged")
	}
}

func TestSubPageEntriesShadowSuperPage(t *testing.T) {
	// PLB with 512B sub-pages, 4K pages and 64K super-pages.
	p, _ := newTestPLB(t, 32, 9, addr.BasePageShift, 16)
	// Whole 64K region readable via one super-page entry.
	p.Insert(1, 0x10000, 16, addr.Read)
	if r, ok := p.Lookup(1, 0x1ffff); !ok || r != addr.Read {
		t.Fatalf("super-page lookup = %v,%v", r, ok)
	}
	// A 512B sub-page within it becomes read-write: more specific wins.
	p.Insert(1, 0x10200, 9, addr.RW)
	if r, _ := p.Lookup(1, 0x10201); r != addr.RW {
		t.Fatal("sub-page entry did not shadow super-page")
	}
	if r, _ := p.Lookup(1, 0x10400); r != addr.Read {
		t.Fatal("addresses outside sub-page affected")
	}
}

// TestInvalidateRemovesAllSizeClasses is the §4.1.2 shootdown-safety
// regression test: Invalidate for a (domain, va) must remove the entry
// at every configured size class, including a super-page entry installed
// under ProtShift, even when the caller names a base-page address inside
// it. A survivor would be exactly the stale-authority entry the shadow
// oracle flags after a remote rights revocation.
func TestInvalidateRemovesAllSizeClasses(t *testing.T) {
	p, _ := newTestPLB(t, 8, addr.BasePageShift, 16)
	p.Insert(1, 0x10000, 16, addr.RW)                 // super-page covering [0x10000, 0x20000)
	p.Insert(1, 0x11000, addr.BasePageShift, addr.RW) // base page inside it
	if !p.Invalidate(1, 0x11000) {
		t.Fatal("Invalidate found nothing")
	}
	if r, ok := p.Lookup(1, 0x11000); ok {
		t.Fatalf("stale rights %v survive at the invalidated address", r)
	}
	if r, ok := p.Lookup(1, 0x10000); ok {
		t.Fatalf("stale super-page rights %v survive invalidation of a covered base page", r)
	}
	// A super-page entry alone is also removed when the caller names any
	// base-page address it covers, not just its own base address.
	p.Insert(1, 0x30000, 16, addr.Read)
	if !p.Invalidate(1, 0x3f000) {
		t.Fatal("Invalidate via covered base address found nothing")
	}
	if _, ok := p.Lookup(1, 0x31000); ok {
		t.Fatal("super-page at 0x30000 survived invalidation via a covered address")
	}
}

func TestPurgeRangeRemovesOverlappingSuperPages(t *testing.T) {
	p, _ := newTestPLB(t, 8, addr.BasePageShift, 16)
	p.Insert(1, 0x10000, 16, addr.Read) // covers [0x10000, 0x20000)
	// Purging any sub-range of the super-page must remove it.
	if n := p.PurgeRange(1, 0x11000, 0x1000); n != 1 {
		t.Fatalf("purge = %d", n)
	}
	if _, ok := p.Lookup(1, 0x10000); ok {
		t.Fatal("overlapping super-page survived purge")
	}
}

func TestInsertBadShiftPanics(t *testing.T) {
	p, _ := newTestPLB(t, 8)
	defer func() {
		if recover() == nil {
			t.Error("Insert with unconfigured shift did not panic")
		}
	}()
	p.Insert(1, 0, 16, addr.Read)
}

func TestNewValidation(t *testing.T) {
	ctrs := &stats.Counters{}
	for name, cfg := range map[string]Config{
		"no shifts": {Assoc: assoc.Config{Sets: 1, Ways: 4}},
		"bad shift": {Assoc: assoc.Config{Sets: 1, Ways: 4}, Shifts: []uint{3}},
	} {
		p, err := New(cfg, ctrs, "plb")
		if err == nil {
			t.Errorf("%s: New accepted an invalid config", name)
			continue
		}
		if p != nil {
			t.Errorf("%s: New returned a PLB alongside the error", name)
		}
		if !errors.Is(err, ErrConfig) {
			t.Errorf("%s: error %v does not wrap ErrConfig", name, err)
		}
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != "Shifts" {
			t.Errorf("%s: error %v is not a *ConfigError on Shifts", name, err)
		}
	}
	// MustNew converts the typed error into a panic for known-good
	// call sites.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustNew did not panic on an invalid config")
			}
		}()
		MustNew(Config{}, ctrs, "plb")
	}()
}

func TestEntryBits(t *testing.T) {
	// Figure 1: 52-bit VPN + 16-bit PD-ID + 3-bit rights = 71 bits.
	if got := EntryBits(addr.VABits, addr.BasePageShift, addr.DomainBits, addr.RightsBits); got != 71 {
		t.Fatalf("EntryBits = %d, want 71", got)
	}
}

// Property: after any insert sequence, Lookup(d,va) never returns rights
// that were not the most recent Insert/Update for that (domain, page).
func TestLookupReturnsLatest(t *testing.T) {
	f := func(ops []struct {
		D uint8
		P uint8
		R uint8
	}) bool {
		p, _ := newTestPLB(t, 512)
		want := map[Key]addr.Rights{}
		for _, op := range ops {
			d := addr.DomainID(op.D % 4)
			va := addr.VA(uint64(op.P%16) << addr.BasePageShift)
			r := addr.Rights(op.R % 8)
			p.Insert(d, va, addr.BasePageShift, r)
			want[Key{Domain: d, Page: uint64(va) >> addr.BasePageShift, Shift: addr.BasePageShift}] = r
		}
		ok := true
		p.ForEach(func(k Key, r addr.Rights) bool {
			if want[k] != r {
				ok = false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDefaultConfig(t *testing.T) {
	ctrs := &stats.Counters{}
	p := MustNew(DefaultConfig(), ctrs, "plb")
	if p.Capacity() != 128 {
		t.Fatalf("capacity = %d", p.Capacity())
	}
	if shifts := p.shifts; len(shifts) != 1 || shifts[0] != addr.BasePageShift {
		t.Fatalf("shifts = %v", shifts)
	}
}

func TestUpdateRange(t *testing.T) {
	p, ctrs := newTestPLB(t, 32)
	for vpn := uint64(0); vpn < 8; vpn++ {
		p.Insert(1, addr.VA(vpn<<addr.BasePageShift), addr.BasePageShift, addr.RW)
		p.Insert(2, addr.VA(vpn<<addr.BasePageShift), addr.BasePageShift, addr.RW)
	}
	// Revoke domain 1's access to pages 2..5 (a GC-flip style change).
	n := p.UpdateRange(1, addr.VA(2<<addr.BasePageShift), 4<<addr.BasePageShift, addr.None)
	if n != 4 {
		t.Fatalf("UpdateRange = %d", n)
	}
	for vpn := uint64(0); vpn < 8; vpn++ {
		va := addr.VA(vpn << addr.BasePageShift)
		r1, _ := p.Lookup(1, va)
		r2, _ := p.Lookup(2, va)
		want1 := addr.RW
		if vpn >= 2 && vpn < 6 {
			want1 = addr.None
		}
		if r1 != want1 {
			t.Errorf("domain 1 page %d rights = %v, want %v", vpn, r1, want1)
		}
		if r2 != addr.RW {
			t.Errorf("domain 2 page %d disturbed: %v", vpn, r2)
		}
	}
	if ctrs.Get("plb.inspected") != 16 {
		t.Fatalf("inspected = %d", ctrs.Get("plb.inspected"))
	}
}
