package ptable

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/addr"
)

// refProtTable is the map-backed override table ProtTable replaced, kept
// as the reference FuzzProtTableMatchesReference holds it to. Its Range
// collects the range's overrides and sorts them by page.
type refProtTable struct {
	overrides map[addr.VPN]addr.Rights
}

func (p *refProtTable) Set(vpn addr.VPN, r addr.Rights) {
	if p.overrides == nil {
		p.overrides = make(map[addr.VPN]addr.Rights)
	}
	p.overrides[vpn] = r
}

func (p *refProtTable) Get(vpn addr.VPN) (addr.Rights, bool) {
	r, ok := p.overrides[vpn]
	return r, ok
}

func (p *refProtTable) Clear(vpn addr.VPN) bool {
	if _, ok := p.overrides[vpn]; !ok {
		return false
	}
	delete(p.overrides, vpn)
	return true
}

func (p *refProtTable) ClearRange(start addr.VPN, npages uint64) int {
	n := 0
	for vpn := range p.overrides {
		if uint64(vpn) >= uint64(start) && uint64(vpn) < uint64(start)+npages {
			delete(p.overrides, vpn)
			n++
		}
	}
	return n
}

func (p *refProtTable) Range(start addr.VPN, npages uint64) []override {
	var out []override
	for vpn, r := range p.overrides {
		if uint64(vpn) >= uint64(start) && uint64(vpn) < uint64(start)+npages {
			out = append(out, override{vpn, r})
		}
	}
	slices.SortFunc(out, func(a, b override) int { return cmp.Compare(a.vpn, b.vpn) })
	return out
}

func (p *refProtTable) Len() int { return len(p.overrides) }

func (p *refProtTable) Clone() *refProtTable {
	c := &refProtTable{overrides: make(map[addr.VPN]addr.Rights, len(p.overrides))}
	for vpn, r := range p.overrides {
		c.overrides[vpn] = r
	}
	return c
}

// walk lists the overrides Range visits in [start, start+npages), stopping
// after limit of them when limit is positive.
func walk(p *ProtTable, start addr.VPN, npages uint64, limit int) []override {
	var out []override
	p.Range(start, npages, func(vpn addr.VPN, r addr.Rights) bool {
		out = append(out, override{vpn, r})
		return limit <= 0 || len(out) < limit
	})
	return out
}

// The fuzzer draws pages from a window of fuzzWindow pages at fuzzBase,
// so ranges start and end inside runs of overrides, and ranges reach up
// to fuzzMaxRange pages, past the window's end.
const (
	fuzzBase     = 4096
	fuzzWindow   = 24
	fuzzMaxRange = 32
)

// FuzzProtTableMatchesReference decodes its input into a script of
// operations and applies each to a ProtTable and to the map-backed table
// it replaced, requiring equal results, Range visiting the same overrides
// in ascending page order, and equal contents after every op. Each op is
// three bytes: the low three bits of the first pick the operation (set,
// get, clear, clear range, range, range stopped early, len, clone), the
// second picks a page in the window, and the third the rights, the
// range's length or the early stop. The table starts nil, as a new
// domain's does, until the first mutation. A clone is mutated by a set,
// a clear and a clear range before the original is re-read; the next bit
// of the first byte makes the script go on with the clone.
func FuzzProtTableMatchesReference(f *testing.F) {
	f.Add([]byte{0, 3, 1, 0, 4, 3, 0, 5, 0, 4, 2, 5, 3, 4, 1, 1, 3, 0, 2, 4, 0, 6, 0, 0})
	f.Add([]byte{0, 0, 2, 0, 23, 4, 0, 12, 1, 7, 12, 30, 15, 5, 9, 4, 0, 32, 3, 10, 3, 6, 0, 0})
	f.Add([]byte{0, 1, 1, 0, 2, 3, 0, 3, 0, 5, 0, 2, 5, 2, 40, 3, 1, 2, 4, 0, 32, 2, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var got *ProtTable
		ref := &refProtTable{}
		rw := func() *ProtTable {
			if got == nil {
				got = NewProtTable()
			}
			return got
		}
		for step := 0; len(data) >= 3; step++ {
			op, arg, n := data[0], data[1], data[2]
			data = data[3:]
			vpn := addr.VPN(fuzzBase + int(arg)%fuzzWindow)
			npages := uint64(n) % (fuzzMaxRange + 1)
			switch op & 7 {
			case 0:
				r := addr.Rights(n) & addr.RWX
				rw().Set(vpn, r)
				ref.Set(vpn, r)
			case 1:
				r, ok := got.Get(vpn)
				rr, rok := ref.Get(vpn)
				if r != rr || ok != rok {
					t.Fatalf("step %d: Get(%d) = %v,%v, reference %v,%v", step, vpn, r, ok, rr, rok)
				}
			case 2:
				if g, w := got.Clear(vpn), ref.Clear(vpn); g != w {
					t.Fatalf("step %d: Clear(%d) = %v, reference %v", step, vpn, g, w)
				}
			case 3:
				if g, w := got.ClearRange(vpn, npages), ref.ClearRange(vpn, npages); g != w {
					t.Fatalf("step %d: ClearRange(%d, %d) = %d, reference %d", step, vpn, npages, g, w)
				}
			case 4, 5:
				limit, want := 0, ref.Range(vpn, npages)
				if op&7 == 5 {
					limit = 1 + int(n>>4)%4
					want = want[:min(limit, len(want))]
				}
				if g := walk(got, vpn, npages, limit); !slices.Equal(g, want) {
					t.Fatalf("step %d: Range(%d, %d) stopped at %d visited %v, reference %v", step, vpn, npages, limit, g, want)
				}
			case 6:
				if got.Len() != ref.Len() {
					t.Fatalf("step %d: Len %d, reference %d", step, got.Len(), ref.Len())
				}
			case 7:
				c, rc := got.Clone(), ref.Clone()
				other := addr.VPN(fuzzBase + int(n)%fuzzWindow)
				c.Set(vpn, addr.RWX)
				rc.Set(vpn, addr.RWX)
				c.Clear(other)
				rc.Clear(other)
				c.ClearRange(other, npages%8)
				rc.ClearRange(other, npages%8)
				if g, w := walk(got, 0, ^uint64(0), 0), ref.Range(0, ^uint64(0)); !slices.Equal(g, w) {
					t.Fatalf("step %d: original after its clone changed holds %v, reference %v", step, g, w)
				}
				if op>>3&1 == 1 {
					got, ref = c, rc
				}
			}
			if g, w := walk(got, 0, ^uint64(0), 0), ref.Range(0, ^uint64(0)); got.Len() != ref.Len() || !slices.Equal(g, w) {
				t.Fatalf("step %d (op %d): table holds %v (Len %d), reference %v (Len %d)", step, op&7, g, got.Len(), w, ref.Len())
			}
		}
	})
}
