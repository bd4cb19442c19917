package ptable

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

// newTable is NewInvertedTable for frame counts known to be valid.
func newTable(t *testing.T, nframes int) *InvertedTable {
	t.Helper()
	it, err := NewInvertedTable(nframes)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

func TestInvertedMapLookup(t *testing.T) {
	it := newTable(t, 8)
	if err := it.Map(0x100, 3); err != nil {
		t.Fatal(err)
	}
	pfn, ok := it.Lookup(0x100)
	if !ok || pfn != 3 {
		t.Fatalf("Lookup = %d,%v", pfn, ok)
	}
	if _, ok := it.Lookup(0x101); ok {
		t.Fatal("phantom mapping")
	}
}

func TestInvertedRejectsHomonymsAndSynonyms(t *testing.T) {
	it := newTable(t, 8)
	it.Map(1, 0)
	if err := it.Map(1, 1); err == nil {
		t.Fatal("homonym accepted")
	}
	if err := it.Map(2, 0); err == nil {
		t.Fatal("synonym (busy frame) accepted")
	}
	if err := it.Map(2, 99); err == nil {
		t.Fatal("out-of-range frame accepted")
	}
}

func TestInvertedFullTable(t *testing.T) {
	const frames = 64
	it := newTable(t, frames)
	for i := 0; i < frames; i++ {
		// Adversarial VPNs: clustered to force chain collisions.
		if err := it.Map(addr.VPN(i*17), addr.PFN(i)); err != nil {
			t.Fatalf("map %d: %v", i, err)
		}
	}
	for i := 0; i < frames; i++ {
		pfn, ok := it.Lookup(addr.VPN(i * 17))
		if !ok || pfn != addr.PFN(i) {
			t.Fatalf("lookup %d = %d,%v", i, pfn, ok)
		}
	}
	lookups, probes := it.ProbeStats()
	// Map's existence checks probe empty buckets for free, so probes may
	// trail lookups; the verification sweep's 64 hits cost >= 1 probe each.
	if lookups == 0 || probes < frames {
		t.Fatalf("probe stats = %d,%d", lookups, probes)
	}
	// Load factor 0.5 over 128 anchors: average chain stays short.
	if avg := float64(probes) / float64(lookups); avg > 3 {
		t.Errorf("average probes %f too high for 0.5 load", avg)
	}
}

// Property: the inverted table agrees with a plain map across arbitrary
// sequences of maps and lookups.
func TestInvertedMatchesMapTable(t *testing.T) {
	f := func(ops []uint16) bool {
		const frames = 32
		it := newTable(t, frames)
		mt := map[addr.VPN]addr.PFN{}
		frameUsed := map[addr.PFN]bool{}
		for i, op := range ops {
			vpn := addr.VPN(op % 64)
			pfn := addr.PFN(i % frames)
			want, mapped := mt[vpn]
			if op&64 == 0 { // map; refused exactly when vpn or pfn is taken
				err := it.Map(vpn, pfn)
				if (err == nil) != (!mapped && !frameUsed[pfn]) {
					return false
				}
				if err == nil {
					mt[vpn], frameUsed[pfn] = pfn, true
				}
				continue
			}
			got, ok := it.Lookup(vpn)
			if ok != mapped || (ok && got != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestInvertedNewValidation(t *testing.T) {
	it, err := NewInvertedTable(0)
	if err == nil {
		t.Fatal("NewInvertedTable accepted 0 frames")
	}
	if it != nil {
		t.Fatal("NewInvertedTable returned a table alongside the error")
	}
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("error %v does not wrap ErrConfig", err)
	}
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "nframes" {
		t.Fatalf("error %v is not a *ConfigError on nframes", err)
	}
}
