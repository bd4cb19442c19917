package addr

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGeometryBasics(t *testing.T) {
	g := BaseGeometry()
	if g.PageSize() != 4096 {
		t.Fatalf("base page size = %d, want 4096", g.PageSize())
	}
	tests := []struct {
		va     VA
		vpn    VPN
		offset uint64
	}{
		{0, 0, 0},
		{1, 0, 1},
		{4095, 0, 4095},
		{4096, 1, 0},
		{0xdeadbeef000, 0xdeadbeef, 0},
		{math.MaxUint64, math.MaxUint64 >> 12, 4095},
	}
	for _, tt := range tests {
		if got := g.PageNumber(tt.va); got != tt.vpn {
			t.Errorf("PageNumber(%#x) = %#x, want %#x", uint64(tt.va), uint64(got), uint64(tt.vpn))
		}
		if got := g.Offset(tt.va); got != tt.offset {
			t.Errorf("Offset(%#x) = %d, want %d", uint64(tt.va), got, tt.offset)
		}
	}
}

func TestGeometryRoundTrip(t *testing.T) {
	for _, shift := range []uint{MinProtShift, 9, BasePageShift, 16, MaxProtShift} {
		g := NewGeometry(shift)
		f := func(raw uint64) bool {
			va := VA(raw)
			vpn := g.PageNumber(va)
			return uint64(g.Base(vpn))+g.Offset(va) == raw
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("shift %d: %v", shift, err)
		}
	}
}

func TestGeometryPanicsOnBadShift(t *testing.T) {
	for _, shift := range []uint{0, MinProtShift - 1, MaxProtShift + 1, 63} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGeometry(%d) did not panic", shift)
				}
			}()
			NewGeometry(shift)
		}()
	}
}

func TestPagesSpanned(t *testing.T) {
	g := BaseGeometry()
	tests := []struct {
		va     VA
		length uint64
		want   uint64
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 4096, 1},
		{0, 4097, 2},
		{4095, 2, 2},
		{4096, 4096, 1},
		{100, 3 * 4096, 4},
	}
	for _, tt := range tests {
		if got := g.PagesSpanned(tt.va, tt.length); got != tt.want {
			t.Errorf("PagesSpanned(%#x, %d) = %d, want %d", uint64(tt.va), tt.length, got, tt.want)
		}
	}
}

func TestRightsAllows(t *testing.T) {
	tests := []struct {
		r    Rights
		k    AccessKind
		want bool
	}{
		{None, Load, false},
		{None, Store, false},
		{Read, Load, true},
		{Read, Store, false},
		{Write, Store, true},
		{Write, Load, false},
		{RW, Load, true},
		{RW, Store, true},
		{RW, Fetch, false},
		{RX, Fetch, true},
		{RWX, Fetch, true},
	}
	for _, tt := range tests {
		if got := tt.r.Allows(tt.k); got != tt.want {
			t.Errorf("%v.Allows(%v) = %v, want %v", tt.r, tt.k, got, tt.want)
		}
	}
}

func TestRightsIncludesAndWithoutWrite(t *testing.T) {
	if got := RW.WithoutWrite(); got != Read {
		t.Errorf("RW.WithoutWrite() = %v, want %v", got, Read)
	}
	if got := RWX.WithoutWrite(); got != RX {
		t.Errorf("RWX.WithoutWrite() = %v, want %v", got, RX)
	}
	if got := Read.WithoutWrite(); got != Read {
		t.Errorf("Read.WithoutWrite() = %v, want %v", got, Read)
	}
}

// TestRightsStringParseRoundTrip reads each rendered vector back by
// position: 'r', 'w' and 'x' in their places, '-' for an absent right.
func TestRightsStringParseRoundTrip(t *testing.T) {
	for r := Rights(0); r < 8; r++ {
		s := r.String()
		if len(s) != 3 {
			t.Fatalf("%v renders %q, want 3 characters", r, s)
		}
		var back Rights
		for i, c := range "rwx" {
			switch s[i] {
			case byte(c):
				back |= []Rights{Read, Write, Execute}[i]
			case '-':
			default:
				t.Fatalf("%v renders %q: position %d is %q", r, s, i, s[i])
			}
		}
		if back != r {
			t.Errorf("round trip %v -> %q -> %v", r, s, back)
		}
	}
}

func TestAccessKindNeeds(t *testing.T) {
	if Load.Needs() != Read || Store.Needs() != Write || Fetch.Needs() != Execute {
		t.Error("AccessKind.Needs mismatch")
	}
	if Load.String() != "load" || Store.String() != "store" || Fetch.String() != "fetch" {
		t.Error("AccessKind.String mismatch")
	}
}

func TestRangeContainsOverlaps(t *testing.T) {
	r := Range{Start: 0x1000, Length: 0x2000}
	if !r.Contains(0x1000) || !r.Contains(0x2fff) || r.Contains(0x3000) || r.Contains(0xfff) {
		t.Error("Contains wrong")
	}
	if r.End() != 0x3000 {
		t.Errorf("End = %#x, want 0x3000", uint64(r.End()))
	}
	cases := []struct {
		o    Range
		want bool
	}{
		{Range{0, 0x1000}, false},
		{Range{0, 0x1001}, true},
		{Range{0x3000, 0x1000}, false},
		{Range{0x2fff, 1}, true},
		{Range{0x1800, 0x100}, true},
		{Range{0x1000, 0}, false},
	}
	for _, tt := range cases {
		if got := r.Overlaps(tt.o); got != tt.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", r, tt.o, got, tt.want)
		}
	}
}

func TestRangeOverlapsCommutative(t *testing.T) {
	f := func(a, b uint32, la, lb uint16) bool {
		r1 := Range{Start: VA(a), Length: uint64(la)}
		r2 := Range{Start: VA(b), Length: uint64(lb)}
		return r1.Overlaps(r2) == r2.Overlaps(r1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
