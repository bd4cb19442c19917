package kernel

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

func TestDestroySegmentReusesVA(t *testing.T) {
	for _, m := range []Model{ModelDomainPage, ModelPageGroup} {
		t.Run(m.String(), func(t *testing.T) {
			k := New(DefaultConfig(m))
			d := k.CreateDomain()
			s1 := k.CreateSegment(8, SegmentOptions{Name: "victim"})
			k.Attach(d, s1, addr.RW)
			k.Store(d, s1.Base(), 42)
			base := s1.Range

			// Busy segments cannot be destroyed.
			if err := k.DestroySegment(s1); !errors.Is(err, ErrSegmentBusy) {
				t.Fatalf("destroy while attached: %v", err)
			}
			if err := k.Detach(d, s1); err != nil {
				t.Fatal(err)
			}
			framesBefore := k.Memory().FramesInUse()
			if err := k.DestroySegment(s1); err != nil {
				t.Fatal(err)
			}
			if k.Memory().FramesInUse() >= framesBefore {
				t.Fatal("destroy did not free frames")
			}
			// Double destroy fails.
			if err := k.DestroySegment(s1); err == nil {
				t.Fatal("double destroy succeeded")
			}
			// The range is gone: access is an addressing error.
			if err := k.Touch(d, base.Start, addr.Load); !errors.Is(err, ErrNoAuthority) {
				t.Fatalf("destroyed range still resolves: %v", err)
			}
			// A same-size segment reuses the range; contents demand-zero.
			s2 := k.CreateSegment(8, SegmentOptions{Name: "reuser"})
			if s2.Range != base {
				t.Fatalf("range not reused: %v vs %v", s2.Range, base)
			}
			if k.Counters().Get("kernel.va_reuse") != 1 {
				t.Fatal("reuse not counted")
			}
			k.Attach(d, s2, addr.RW)
			v, err := k.Load(d, s2.Base())
			if err != nil {
				t.Fatal(err)
			}
			if v != 0 {
				t.Fatalf("stale data leaked through reuse: %#x", v)
			}
		})
	}
}

func TestFreeListCoalescing(t *testing.T) {
	k := New(DefaultConfig(ModelDomainPage))
	var segs []*Segment
	for i := 0; i < 3; i++ {
		segs = append(segs, k.CreateSegment(4, SegmentOptions{}))
	}
	// Destroy the outer two, then the middle: all three must coalesce.
	for _, i := range []int{0, 2, 1} {
		if err := k.DestroySegment(segs[i]); err != nil {
			t.Fatal(err)
		}
	}
	free := k.freeVA
	if len(free) != 1 {
		t.Fatalf("free list = %v, want single coalesced range", free)
	}
	want := uint64(3 * 4 * addr.BasePageSize)
	if free[0].Length != want {
		t.Fatalf("coalesced length = %d, want %d", free[0].Length, want)
	}
	// A large segment now fits in the coalesced hole.
	big := k.CreateSegment(12, SegmentOptions{})
	if big.Range.Start != segs[0].Range.Start {
		t.Fatal("coalesced hole not reused")
	}
}

func TestAllocVAAlignmentInHole(t *testing.T) {
	k := New(DefaultConfig(ModelDomainPage))
	a := k.CreateSegment(3, SegmentOptions{})
	k.CreateSegment(1, SegmentOptions{}) // plug after a
	if err := k.DestroySegment(a); err != nil {
		t.Fatal(err)
	}
	// An aligned request that fits the hole with slack must use it and
	// return the head fragment to the list.
	s := k.CreateSegment(2, SegmentOptions{AlignShift: 13}) // 8K alignment
	if uint64(s.Range.Start)%(1<<13) != 0 {
		t.Fatalf("not aligned: %#x", uint64(s.Range.Start))
	}
	if s.Range.Start >= a.Range.End() {
		t.Fatal("hole not used for aligned allocation")
	}
}

// Property: after any create/destroy interleaving, live segments never
// overlap and the free list is sorted, disjoint, and coalesced.
func TestVASpaceInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		k := New(DefaultConfig(ModelDomainPage))
		var live []*Segment
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				i := int(op/3) % len(live)
				if err := k.DestroySegment(live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			} else {
				live = append(live, k.CreateSegment(uint64(op%5)+1, SegmentOptions{}))
			}
			// Live segments pairwise disjoint.
			for i := range live {
				for j := i + 1; j < len(live); j++ {
					if live[i].Range.Overlaps(live[j].Range) {
						return false
					}
				}
			}
			// Free list sorted, coalesced, disjoint from live segments.
			free := k.freeVA
			for i := range free {
				if i > 0 && free[i-1].End() >= free[i].Start {
					return false
				}
				for _, s := range live {
					if free[i].Overlaps(s.Range) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
