package tlb

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/assoc"
	"repro/internal/stats"
)

func fullCfg(ways int) assoc.Config {
	return assoc.Config{Sets: 1, Ways: ways, Policy: assoc.LRU}
}

func TestTransTLB(t *testing.T) {
	ctrs := &stats.Counters{}
	tt := NewTrans(fullCfg(4), ctrs, "tlb")
	if _, ok := tt.Lookup(1); ok {
		t.Fatal("hit on empty TLB")
	}
	tt.Insert(1, TransEntry{PFN: 42})
	e, ok := tt.Lookup(1)
	if !ok || e.PFN != 42 {
		t.Fatalf("Lookup = %+v,%v", e, ok)
	}
	if !tt.Invalidate(1) || tt.Invalidate(1) {
		t.Fatal("Invalidate semantics wrong")
	}
	if ctrs.Get("tlb.hit") != 1 || ctrs.Get("tlb.miss") != 1 ||
		ctrs.Get("tlb.install") != 1 || ctrs.Get("tlb.invalidated") != 1 {
		t.Fatalf("counters: %v", ctrs.Snapshot())
	}
	if tt.c.Capacity() != 4 {
		t.Fatal("capacity wrong")
	}
}

func TestTransTLBOneEntryPerPage(t *testing.T) {
	ctrs := &stats.Counters{}
	tt := NewTrans(fullCfg(8), ctrs, "tlb")
	// Re-inserting the same page (e.g. after many domains touch it) must
	// not create duplicates: translation is global.
	tt.Insert(7, TransEntry{PFN: 1})
	tt.Insert(7, TransEntry{PFN: 1})
	tt.Insert(7, TransEntry{PFN: 1})
	if tt.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (no duplication)", tt.Len())
	}
}

func TestASIDTLBDuplication(t *testing.T) {
	ctrs := &stats.Counters{}
	at := NewASID(fullCfg(16), ctrs, "tlb")
	// The same shared page mapped by 4 address spaces occupies 4 entries.
	for as := addr.ASID(1); as <= 4; as++ {
		at.Insert(ASIDKey{AS: as, VPN: 0x10}, ASIDEntry{PFN: 5, Rights: addr.Read})
	}
	if at.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (per-AS duplication)", at.Len())
	}
	if n := ResidentFor(at, 0x10); n != 4 {
		t.Fatalf("ResidentFor = %d", n)
	}
	if _, ok := at.Lookup(ASIDKey{AS: 2, VPN: 0x10}); !ok {
		t.Fatal("AS 2 entry missing")
	}
	if _, ok := at.Lookup(ASIDKey{AS: 9, VPN: 0x10}); ok {
		t.Fatal("phantom AS hit")
	}
}

func TestASIDTLBPurgePage(t *testing.T) {
	ctrs := &stats.Counters{}
	at := NewASID(fullCfg(16), ctrs, "tlb")
	for as := addr.ASID(1); as <= 3; as++ {
		at.Insert(ASIDKey{AS: as, VPN: 0x10}, ASIDEntry{PFN: 5})
		at.Insert(ASIDKey{AS: as, VPN: 0x20}, ASIDEntry{PFN: addr.PFN(6 + as)})
	}
	// A mapping change to the shared page must purge all 3 duplicates.
	if n := at.PurgeIf(func(k ASIDKey, _ ASIDEntry) bool { return k.VPN == 0x10 }); n != 3 {
		t.Fatalf("PurgeIf(page) = %d", n)
	}
	if at.Len() != 3 {
		t.Fatalf("Len = %d", at.Len())
	}
	if ctrs.Get("tlb.inspected") != 6 {
		t.Fatalf("inspected = %d (scan should touch all resident entries)", ctrs.Get("tlb.inspected"))
	}
}

func TestASIDTLBPurgeASAndAll(t *testing.T) {
	ctrs := &stats.Counters{}
	at := NewASID(fullCfg(16), ctrs, "tlb")
	at.Insert(ASIDKey{AS: 1, VPN: 1}, ASIDEntry{})
	at.Insert(ASIDKey{AS: 1, VPN: 2}, ASIDEntry{})
	at.Insert(ASIDKey{AS: 2, VPN: 1}, ASIDEntry{})
	if n := at.PurgeOwner(1); n != 2 {
		t.Fatalf("PurgeOwner = %d", n)
	}
	if n := at.PurgeAll(); n != 1 {
		t.Fatalf("PurgeAll = %d", n)
	}
	if !atEmpty(at) {
		t.Fatal("TLB not empty")
	}
	if at.Invalidate(ASIDKey{AS: 2, VPN: 1}) {
		t.Fatal("Invalidate after purge returned true")
	}
}

func atEmpty(at *TLB[ASIDKey, ASIDEntry]) bool { return at.Len() == 0 }

func TestPGTLBSingleEntryServesAllDomains(t *testing.T) {
	ctrs := &stats.Counters{}
	pt := NewPG(fullCfg(8), ctrs, "pgtlb")
	pt.Insert(0x10, PGEntry{PFN: 3, AID: 7, Rights: addr.RW})
	// The TLB is indexed by VPN only; any domain's reference hits the
	// same entry (protection is checked downstream against the PID set).
	e, ok := pt.Lookup(0x10)
	if !ok || e.AID != 7 || e.Rights != addr.RW || e.PFN != 3 {
		t.Fatalf("Lookup = %+v,%v", e, ok)
	}
	if pt.Len() != 1 {
		t.Fatal("Len wrong")
	}
}

func TestPGTLBUpdate(t *testing.T) {
	ctrs := &stats.Counters{}
	pt := NewPG(fullCfg(8), ctrs, "pgtlb")
	pt.Insert(0x10, PGEntry{PFN: 3, AID: 7, Rights: addr.Read})
	// Moving the page to another group rewrites the entry in place.
	if !pt.Update(0x10, PGEntry{PFN: 3, AID: 9, Rights: addr.RW}) {
		t.Fatal("Update returned false")
	}
	e, _ := pt.Lookup(0x10)
	if e.AID != 9 || e.Rights != addr.RW {
		t.Fatalf("after update: %+v", e)
	}
	if pt.Update(0x99, PGEntry{}) {
		t.Fatal("Update of absent entry returned true")
	}
	if ctrs.Get("pgtlb.update") != 1 {
		t.Fatalf("update counter = %d", ctrs.Get("pgtlb.update"))
	}
}

func TestPGTLBInvalidatePurge(t *testing.T) {
	ctrs := &stats.Counters{}
	pt := NewPG(fullCfg(8), ctrs, "pgtlb")
	pt.Insert(1, PGEntry{})
	pt.Insert(2, PGEntry{})
	if !pt.Invalidate(1) || pt.Invalidate(1) {
		t.Fatal("Invalidate semantics wrong")
	}
	if n := pt.PurgeAll(); n != 1 {
		t.Fatalf("PurgeAll = %d", n)
	}
}

// TestInvalidateCounterParity pins the accounting contract shared by all
// three TLB instantiations: a successful Invalidate increments the structure's
// ".invalidated" counter, a failed one does not. The ASID TLB used to
// skip the counter entirely, hiding conventional-machine shootdown
// traffic from E11/E14.
func TestInvalidateCounterParity(t *testing.T) {
	ctrs := &stats.Counters{}
	tt := NewTrans(fullCfg(4), ctrs, "trans")
	at := NewASID(fullCfg(4), ctrs, "asid")
	pt := NewPG(fullCfg(4), ctrs, "pg")
	tt.Insert(1, TransEntry{PFN: 1})
	at.Insert(ASIDKey{AS: 1, VPN: 1}, ASIDEntry{PFN: 1})
	pt.Insert(1, PGEntry{PFN: 1})
	if !tt.Invalidate(1) || !at.Invalidate(ASIDKey{AS: 1, VPN: 1}) || !pt.Invalidate(1) {
		t.Fatal("resident entries must invalidate")
	}
	// Misses must not count.
	tt.Invalidate(1)
	at.Invalidate(ASIDKey{AS: 1, VPN: 1})
	at.Invalidate(ASIDKey{AS: 2, VPN: 9})
	pt.Invalidate(1)
	for _, prefix := range []string{"trans", "asid", "pg"} {
		if got := ctrs.Get(prefix + ".invalidated"); got != 1 {
			t.Errorf("%s.invalidated = %d, want 1", prefix, got)
		}
	}
}

func TestEntryBitsComparison(t *testing.T) {
	// Section 4: PLB entries are ~25% smaller than page-group TLB
	// entries (52-bit VPN + 16-bit PD-ID + 3-bit rights = 71 bits vs
	// 52-bit VPN + 24-bit PFN + AID/rights).
	pgBits := EntryBits(addr.VABits, addr.BasePageShift, addr.PABits, 16+3)
	plbBits := (addr.VABits - addr.BasePageShift) + addr.DomainBits + addr.RightsBits
	if pgBits <= plbBits {
		t.Fatalf("page-group entry (%d bits) should exceed PLB entry (%d bits)", pgBits, plbBits)
	}
	ratio := float64(plbBits) / float64(pgBits)
	if ratio > 0.80 || ratio < 0.70 {
		t.Errorf("PLB/PG entry size ratio = %.2f, want ≈0.75 (25%% smaller)", ratio)
	}
}
