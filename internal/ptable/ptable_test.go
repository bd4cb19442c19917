package ptable

import (
	"testing"

	"repro/internal/addr"
)

func TestProtTable(t *testing.T) {
	pt := NewProtTable()
	if _, ok := pt.Get(1); ok {
		t.Fatal("phantom override")
	}
	pt.Set(1, addr.Read)
	pt.Set(2, addr.RW)
	if r, ok := pt.Get(1); !ok || r != addr.Read {
		t.Fatalf("Get = %v,%v", r, ok)
	}
	if pt.Len() != 2 {
		t.Fatalf("Len = %d", pt.Len())
	}
	if !pt.Clear(1) || pt.Clear(1) {
		t.Fatal("Clear semantics wrong")
	}
	// None is a meaningful override (explicit denial), distinct from absent.
	pt.Set(3, addr.None)
	if r, ok := pt.Get(3); !ok || r != addr.None {
		t.Fatal("explicit None override lost")
	}
}

func TestProtTableClearRange(t *testing.T) {
	pt := NewProtTable()
	for vpn := addr.VPN(10); vpn < 20; vpn++ {
		pt.Set(vpn, addr.RW)
	}
	pt.Set(25, addr.Read)
	if n := pt.ClearRange(12, 4); n != 4 {
		t.Fatalf("ClearRange = %d", n)
	}
	if pt.Len() != 7 {
		t.Fatalf("Len = %d", pt.Len())
	}
	for vpn := addr.VPN(10); vpn < 26; vpn++ {
		_, ok := pt.Get(vpn)
		if want := vpn < 12 || (vpn >= 16 && vpn < 20) || vpn == 25; ok != want {
			t.Fatalf("override of %d present = %v, want %v", vpn, ok, want)
		}
	}
}
