package kernel

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/addr"
)

// bothModels runs a subtest against a fresh kernel of each model.
func bothModels(t *testing.T, fn func(t *testing.T, k *Kernel)) {
	t.Helper()
	for _, m := range []Model{ModelDomainPage, ModelPageGroup} {
		t.Run(m.String(), func(t *testing.T) {
			fn(t, New(DefaultConfig(m)))
		})
	}
}

func TestCreateSegmentDisjointRanges(t *testing.T) {
	k := New(DefaultConfig(ModelDomainPage))
	var segs []*Segment
	for i := 0; i < 10; i++ {
		segs = append(segs, k.CreateSegment(uint64(i+1), SegmentOptions{}))
	}
	for i, a := range segs {
		for j, b := range segs {
			if i != j && a.Range.Overlaps(b.Range) {
				t.Fatalf("segments %d and %d overlap: %v %v", i, j, a.Range, b.Range)
			}
		}
		if got := k.FindSegment(a.Range.Start); got != a {
			t.Fatalf("FindSegment(start) = %v", got)
		}
		if got := k.FindSegment(a.Range.End() - 1); got != a {
			t.Fatalf("FindSegment(end-1) = %v", got)
		}
	}
	if k.FindSegment(0) != nil {
		t.Fatal("FindSegment(0) found a segment below vaBase")
	}
}

func TestSegmentAlignment(t *testing.T) {
	k := New(DefaultConfig(ModelDomainPage))
	k.CreateSegment(3, SegmentOptions{}) // misalign the bump pointer
	s := k.CreateSegment(16, SegmentOptions{AlignShift: 16})
	if uint64(s.Range.Start)%(1<<16) != 0 {
		t.Fatalf("base %#x not 64K aligned", uint64(s.Range.Start))
	}
}

func TestBasicTouchAndDemandZero(t *testing.T) {
	bothModels(t, func(t *testing.T, k *Kernel) {
		d := k.CreateDomain()
		s := k.CreateSegment(4, SegmentOptions{Name: "heap"})
		k.Attach(d, s, addr.RW)
		if err := k.Touch(d, s.Base(), addr.Load); err != nil {
			t.Fatalf("Touch: %v", err)
		}
		if k.Counters().Get("kernel.zero_fills") != 1 {
			t.Fatal("demand-zero fill not counted")
		}
		if !k.Mapped(s.PageVPN(0)) {
			t.Fatal("page not mapped after touch")
		}
		// A second page maps independently.
		if err := k.Touch(d, s.PageVA(2), addr.Store); err != nil {
			t.Fatalf("Touch page 2: %v", err)
		}
		if !k.pageRecord(s.PageVPN(2)).dirty {
			t.Fatal("store did not set dirty bit")
		}
		if k.pageRecord(s.PageVPN(0)).dirty {
			t.Fatal("load set dirty bit")
		}
	})
}

func TestRightsEnforced(t *testing.T) {
	bothModels(t, func(t *testing.T, k *Kernel) {
		d := k.CreateDomain()
		s := k.CreateSegment(2, SegmentOptions{})
		k.Attach(d, s, addr.Read)
		if err := k.Touch(d, s.Base(), addr.Load); err != nil {
			t.Fatalf("read: %v", err)
		}
		if err := k.Touch(d, s.Base(), addr.Store); !errors.Is(err, ErrProtection) {
			t.Fatalf("store: %v, want ErrProtection", err)
		}
	})
}

func TestUnattachedDomainDenied(t *testing.T) {
	bothModels(t, func(t *testing.T, k *Kernel) {
		owner := k.CreateDomain()
		other := k.CreateDomain()
		s := k.CreateSegment(2, SegmentOptions{})
		k.Attach(owner, s, addr.RW)
		k.Touch(owner, s.Base(), addr.Store)
		if err := k.Touch(other, s.Base(), addr.Load); !errors.Is(err, ErrProtection) {
			t.Fatalf("unattached access: %v, want ErrProtection", err)
		}
	})
}

func TestOutsideSegmentsNoAuthority(t *testing.T) {
	bothModels(t, func(t *testing.T, k *Kernel) {
		d := k.CreateDomain()
		if err := k.Touch(d, 0x42, addr.Load); !errors.Is(err, ErrNoAuthority) {
			t.Fatalf("err = %v, want ErrNoAuthority", err)
		}
	})
}

func TestSharedSegmentPointerSemantics(t *testing.T) {
	// The single address space promise: a pointer (VA) stored by one
	// domain reads back identically in another domain.
	bothModels(t, func(t *testing.T, k *Kernel) {
		a := k.CreateDomain()
		b := k.CreateDomain()
		s := k.CreateSegment(2, SegmentOptions{Name: "shared"})
		k.Attach(a, s, addr.RW)
		k.Attach(b, s, addr.RW)
		target := uint64(s.PageVA(1)) + 128 // a pointer into the segment
		if err := k.Store(a, s.Base(), target); err != nil {
			t.Fatalf("store: %v", err)
		}
		got, err := k.Load(b, s.Base())
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		if got != target {
			t.Fatalf("pointer read back as %#x, want %#x", got, target)
		}
		// And b can dereference it directly.
		if err := k.Touch(b, addr.VA(got), addr.Load); err != nil {
			t.Fatalf("deref: %v", err)
		}
	})
}

func TestReaderWriterRights(t *testing.T) {
	bothModels(t, func(t *testing.T, k *Kernel) {
		w := k.CreateDomain()
		r := k.CreateDomain()
		s := k.CreateSegment(2, SegmentOptions{})
		k.Attach(w, s, addr.RW)
		k.Attach(r, s, addr.Read)
		if err := k.Touch(w, s.Base(), addr.Store); err != nil {
			t.Fatalf("writer store: %v", err)
		}
		if err := k.Touch(r, s.Base(), addr.Load); err != nil {
			t.Fatalf("reader load: %v", err)
		}
		if err := k.Touch(r, s.Base(), addr.Store); !errors.Is(err, ErrProtection) {
			t.Fatalf("reader store: %v, want ErrProtection", err)
		}
		// The writer still writes after the reader's fault.
		if err := k.Touch(w, s.Base(), addr.Store); err != nil {
			t.Fatalf("writer store 2: %v", err)
		}
	})
}

func TestSetPageRightsPerDomain(t *testing.T) {
	bothModels(t, func(t *testing.T, k *Kernel) {
		a := k.CreateDomain()
		b := k.CreateDomain()
		s := k.CreateSegment(4, SegmentOptions{})
		k.Attach(a, s, addr.RW)
		k.Attach(b, s, addr.RW)
		va := s.PageVA(1)
		k.Touch(a, va, addr.Store)
		k.Touch(b, va, addr.Store)

		// Revoke only a's access to page 1.
		if err := k.SetPageRights(a, va, addr.None); err != nil {
			t.Fatalf("SetPageRights: %v", err)
		}
		if err := k.Touch(a, va, addr.Load); !errors.Is(err, ErrProtection) {
			t.Fatalf("a after revoke: %v", err)
		}
		if err := k.Touch(b, va, addr.Store); err != nil {
			t.Fatalf("b after a's revoke: %v", err)
		}
		// Other pages of the segment are unaffected for a.
		if err := k.Touch(a, s.PageVA(2), addr.Store); err != nil {
			t.Fatalf("a other page: %v", err)
		}
		// Restore.
		if err := k.ClearPageRights(a, va); err != nil {
			t.Fatalf("ClearPageRights: %v", err)
		}
		if err := k.Touch(a, va, addr.Store); err != nil {
			t.Fatalf("a after restore: %v", err)
		}
	})
}

func TestSetPageRightsDowngradeToRead(t *testing.T) {
	bothModels(t, func(t *testing.T, k *Kernel) {
		a := k.CreateDomain()
		b := k.CreateDomain()
		s := k.CreateSegment(2, SegmentOptions{})
		k.Attach(a, s, addr.RW)
		k.Attach(b, s, addr.RW)
		va := s.Base()
		k.Touch(a, va, addr.Store)
		// a becomes read-only on the page; b keeps read-write. In the
		// page-group model this needs the write-disable bit (Section
		// 4.1.2 footnote 7).
		if err := k.SetPageRights(a, va, addr.Read); err != nil {
			t.Fatalf("SetPageRights: %v", err)
		}
		if err := k.Touch(a, va, addr.Load); err != nil {
			t.Fatalf("a read: %v", err)
		}
		if err := k.Touch(a, va, addr.Store); !errors.Is(err, ErrProtection) {
			t.Fatalf("a write: %v, want ErrProtection", err)
		}
		if err := k.Touch(b, va, addr.Store); err != nil {
			t.Fatalf("b write: %v", err)
		}
	})
}

func TestSetSegmentRights(t *testing.T) {
	bothModels(t, func(t *testing.T, k *Kernel) {
		app := k.CreateDomain()
		col := k.CreateDomain()
		s := k.CreateSegment(8, SegmentOptions{Name: "from-space"})
		k.Attach(app, s, addr.RW)
		k.Attach(col, s, addr.RW)
		for i := uint64(0); i < 8; i++ {
			k.Touch(app, s.PageVA(i), addr.Store)
		}
		// The GC flip: the application loses all access to from-space;
		// the collector keeps it.
		if err := k.SetSegmentRights(app, s, addr.None); err != nil {
			t.Fatalf("SetSegmentRights: %v", err)
		}
		for i := uint64(0); i < 8; i++ {
			if err := k.Touch(app, s.PageVA(i), addr.Load); !errors.Is(err, ErrProtection) {
				t.Fatalf("app page %d: %v, want ErrProtection", i, err)
			}
		}
		if err := k.Touch(col, s.PageVA(3), addr.Store); err != nil {
			t.Fatalf("collector: %v", err)
		}
	})
}

func TestDetach(t *testing.T) {
	bothModels(t, func(t *testing.T, k *Kernel) {
		a := k.CreateDomain()
		b := k.CreateDomain()
		s := k.CreateSegment(4, SegmentOptions{})
		k.Attach(a, s, addr.RW)
		k.Attach(b, s, addr.RW)
		k.Touch(a, s.Base(), addr.Store)
		k.Touch(b, s.Base(), addr.Load)
		if err := k.Detach(a, s); err != nil {
			t.Fatalf("Detach: %v", err)
		}
		if err := k.Detach(a, s); !errors.Is(err, ErrNotAttached) {
			t.Fatalf("double detach: %v", err)
		}
		if err := k.Touch(a, s.Base(), addr.Load); !errors.Is(err, ErrProtection) {
			t.Fatalf("a after detach: %v, want ErrProtection", err)
		}
		if err := k.Touch(b, s.Base(), addr.Store); err != nil {
			t.Fatalf("b after a's detach: %v", err)
		}
	})
}

func TestFaultHandlerGrantsAndRetries(t *testing.T) {
	bothModels(t, func(t *testing.T, k *Kernel) {
		d := k.CreateDomain()
		var faults int
		s := k.CreateSegment(4, SegmentOptions{
			Name: "guarded",
			Handler: func(f Fault) error {
				faults++
				// Grant on demand, like a transactional lock manager.
				return f.K.SetPageRights(f.Domain, f.VA, addr.RW)
			},
		})
		k.Attach(d, s, addr.None)
		if err := k.Touch(d, s.Base(), addr.Store); err != nil {
			t.Fatalf("Touch: %v", err)
		}
		if faults != 1 {
			t.Fatalf("faults = %d", faults)
		}
		// Second access: no new fault.
		if err := k.Touch(d, s.Base(), addr.Store); err != nil {
			t.Fatal(err)
		}
		if faults != 1 {
			t.Fatalf("faults after warm access = %d", faults)
		}
		if k.Counters().Get("kernel.handler_upcalls") != 1 {
			t.Fatal("handler upcall not counted")
		}
	})
}

func TestFaultHandlerErrorAborts(t *testing.T) {
	bothModels(t, func(t *testing.T, k *Kernel) {
		d := k.CreateDomain()
		s := k.CreateSegment(1, SegmentOptions{
			Handler: func(f Fault) error { return errors.New("denied by policy") },
		})
		k.Attach(d, s, addr.None)
		if err := k.Touch(d, s.Base(), addr.Load); !errors.Is(err, ErrProtection) {
			t.Fatalf("err = %v, want ErrProtection", err)
		}
	})
}

func TestFaultLoopDetected(t *testing.T) {
	bothModels(t, func(t *testing.T, k *Kernel) {
		d := k.CreateDomain()
		// A broken handler that claims success but never fixes rights.
		s := k.CreateSegment(1, SegmentOptions{
			Handler: func(f Fault) error { return nil },
		})
		k.Attach(d, s, addr.None)
		if err := k.Touch(d, s.Base(), addr.Load); !errors.Is(err, ErrFaultLoop) {
			t.Fatalf("err = %v, want ErrFaultLoop", err)
		}
	})
}

func TestPageOutPageIn(t *testing.T) {
	bothModels(t, func(t *testing.T, k *Kernel) {
		d := k.CreateDomain()
		s := k.CreateSegment(2, SegmentOptions{})
		k.Attach(d, s, addr.RW)
		if err := k.Store(d, s.Base(), 0xfeedface); err != nil {
			t.Fatal(err)
		}
		vpn := s.PageVPN(0)
		framesBefore := k.Memory().FramesInUse()
		if err := k.PageOut(vpn); err != nil {
			t.Fatalf("PageOut: %v", err)
		}
		if k.Mapped(vpn) {
			t.Fatal("page still mapped after page-out")
		}
		if k.Memory().FramesInUse() != framesBefore-1 {
			t.Fatal("frame not freed")
		}
		// Touching the page demand-pages it back in with contents intact.
		got, err := k.Load(d, s.Base())
		if err != nil {
			t.Fatalf("Load after page-out: %v", err)
		}
		if got != 0xfeedface {
			t.Fatalf("data after page-in = %#x", got)
		}
		if k.Counters().Get("kernel.pageins") != 1 || k.Counters().Get("kernel.pageouts") != 1 {
			t.Fatalf("paging counters: %v", k.Counters().Snapshot())
		}
	})
}

func TestUnmapDiscards(t *testing.T) {
	bothModels(t, func(t *testing.T, k *Kernel) {
		d := k.CreateDomain()
		s := k.CreateSegment(1, SegmentOptions{})
		k.Attach(d, s, addr.RW)
		k.Store(d, s.Base(), 123)
		if err := k.Unmap(s.PageVPN(0)); err != nil {
			t.Fatal(err)
		}
		if err := k.Unmap(s.PageVPN(0)); err == nil {
			t.Fatal("double unmap succeeded")
		}
		// Re-touch demand-zeroes a fresh page: old data gone.
		got, err := k.Load(d, s.Base())
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Fatalf("data after unmap = %d, want 0", got)
		}
	})
}

func TestReadWritePage(t *testing.T) {
	bothModels(t, func(t *testing.T, k *Kernel) {
		d := k.CreateDomain()
		s := k.CreateSegment(1, SegmentOptions{})
		k.Attach(d, s, addr.RW)
		// Word w holds bytes 8w..8w+7, little-endian, so byte i reads i.
		for w := uint64(0); w < k.Geometry().PageSize()/8; w++ {
			var v uint64
			for i := uint64(0); i < 8; i++ {
				v |= uint64(byte(8*w+i)) << (8 * i)
			}
			if err := k.Store(d, s.Base()+addr.VA(8*w), v); err != nil {
				t.Fatal(err)
			}
		}
		got, err := k.ReadPage(d, s.Base())
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != byte(i) {
				t.Fatalf("byte %d = %d", i, got[i])
			}
		}
	})
}

func TestCallSwitchesDomains(t *testing.T) {
	bothModels(t, func(t *testing.T, k *Kernel) {
		client := k.CreateDomain()
		server := k.CreateDomain()
		k.Switch(client)
		var during addr.DomainID
		err := k.Call(client, server, func() error {
			during = k.Machine().Domain()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if during != server.ID {
			t.Fatalf("during call domain = %d, want %d", during, server.ID)
		}
		if k.Machine().Domain() != client.ID {
			t.Fatal("not switched back to client")
		}
		if k.Counters().Get("kernel.rpc_calls") != 1 {
			t.Fatal("rpc not counted")
		}
	})
}

func TestSwitchSameDomainFree(t *testing.T) {
	bothModels(t, func(t *testing.T, k *Kernel) {
		d := k.CreateDomain()
		k.Switch(d)
		n := k.Machine().Counters().Get("switch.count")
		k.Switch(d)
		if k.Machine().Counters().Get("switch.count") != n {
			t.Fatal("same-domain switch performed hardware work")
		}
	})
}

// Page-group specific behaviour.

func TestPGPageMoveOnExclusiveGrant(t *testing.T) {
	k := New(DefaultConfig(ModelPageGroup))
	a := k.CreateDomain()
	b := k.CreateDomain()
	s := k.CreateSegment(4, SegmentOptions{})
	k.Attach(a, s, addr.RW)
	k.Attach(b, s, addr.RW)
	va := s.Base()
	k.Touch(a, va, addr.Store)

	// Make the page exclusive to a (a transactional write lock): the
	// page must move out of the primary group into a derived group.
	movesBefore := k.Counters().Get("pg.page_moves")
	if err := k.SetPageRights(b, va, addr.None); err != nil {
		t.Fatal(err)
	}
	if k.Counters().Get("pg.page_moves") <= movesBefore {
		t.Fatal("no page move for subset rights change")
	}
	if err := k.Touch(b, va, addr.Load); !errors.Is(err, ErrProtection) {
		t.Fatalf("b: %v, want ErrProtection", err)
	}
	if err := k.Touch(a, va, addr.Store); err != nil {
		t.Fatalf("a: %v", err)
	}
	// Restoring b's rights returns the page to the primary group (reuse,
	// not a new group).
	groupsBefore := k.Counters().Get("pg.groups_created")
	if err := k.ClearPageRights(b, va); err != nil {
		t.Fatal(err)
	}
	if k.Counters().Get("pg.groups_created") != groupsBefore {
		t.Fatal("returning to primary group created a new group")
	}
	if err := k.Touch(b, va, addr.Store); err != nil {
		t.Fatalf("b after restore: %v", err)
	}
}

// TestPGDerivedGroupReuse pins the derived-group reuse rule: a page
// wanting the membership of an untouched derived group reuses it, but a
// group whose holders merely returned to its creation members (a holder
// forked and the child died) is refused, and so is a desired membership
// that is a proper subset of the creation members.
func TestPGDerivedGroupReuse(t *testing.T) {
	k := New(DefaultConfig(ModelPageGroup))
	a, b, c := k.CreateDomain(), k.CreateDomain(), k.CreateDomain()
	s := k.CreateSegment(8, SegmentOptions{})
	for _, d := range []*Domain{a, b, c} {
		k.Attach(d, s, addr.RW)
	}
	// minted counts new group numbers, fresh or recycled.
	minted := func() uint64 {
		return k.Counters().Get("pg.groups_created") + k.Counters().Get("pg.groups_recycled")
	}
	// exclude takes c's access to page i, parking the page in a derived
	// group of a and b, and returns the group.
	exclude := func(i uint64) addr.GroupID {
		t.Helper()
		if err := k.SetPageRights(c, s.PageVA(i), addr.None); err != nil {
			t.Fatal(err)
		}
		g, _, _ := k.PageInfo(s.PageVPN(i))
		return g
	}
	g0 := exclude(0)
	n := minted()
	if g := exclude(1); g != g0 || minted() != n {
		t.Fatalf("identical sharing pattern got group %d (minted %d more), want reuse of %d", g, minted()-n, g0)
	}
	child, err := k.ForkDomain(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.DestroyDomain(child); err != nil {
		t.Fatal(err)
	}
	// g0's holders are its creation members again, but a forked since.
	n = minted()
	g2 := exclude(2)
	if g2 == g0 || minted() != n+1 {
		t.Fatalf("after a holder forked, page 2 got group %d (minted %d), want a new group, not %d", g2, minted()-n, g0)
	}
	e := k.engine.(*pgEngine)
	want := []pgWant{{d: a, attach: addr.RW, want: addr.RW}, {d: b, attach: addr.RW, want: addr.RW}, {d: c, attach: addr.RW}}
	if !e.reusable(g2, s.ID, addr.RW, want, 2) {
		t.Fatalf("group %d refused for its own creation membership", g2)
	}
	want[1].want = addr.None
	if e.reusable(g2, s.ID, addr.RW, want, 1) {
		t.Fatalf("group %d accepted for a proper subset of its creation members", g2)
	}
}

func TestPGUnrepresentableVector(t *testing.T) {
	k := New(DefaultConfig(ModelPageGroup))
	a := k.CreateDomain()
	b := k.CreateDomain()
	s := k.CreateSegment(2, SegmentOptions{})
	k.Attach(a, s, addr.RWX)
	k.Attach(b, s, addr.RWX)
	// a: execute-only, b: read-write — no single rights field plus
	// write-disable bits expresses this.
	if err := k.SetPageRights(a, s.Base(), addr.Execute); err == nil {
		// a=x, union would be rwx (b has rwx)... a=x is neither rwx nor
		// r-x; must fail.
		t.Fatal("expected ErrUnrepresentable")
	} else if !errors.Is(err, ErrUnrepresentable) {
		t.Fatalf("err = %v, want ErrUnrepresentable", err)
	}
	// The refusal leaves the tables as they were: no override, and a's
	// attachment rights in force, stores included.
	vpn := k.Geometry().PageNumber(s.Base())
	if r, ok := a.PageOverride(vpn); ok {
		t.Errorf("refused change left override %v", r)
	}
	if r, _, _ := k.ResolveRights(a.ID, vpn); r != addr.RWX {
		t.Errorf("ResolveRights after the refusal = %v, want rwx", r)
	}
	if err := k.Touch(a, s.Base(), addr.Store); err != nil {
		t.Errorf("store after the refusal: %v", err)
	}

	// b executes page 1 read-only: r-x is rwx without write, so b sits
	// in the page's group write-disabled.
	p1 := s.PageVA(1)
	if err := k.SetPageRights(b, p1, addr.RX); err != nil {
		t.Fatal(err)
	}
	c := k.CreateDomain()
	// Each refusal below leaves every table, group set and page record
	// as it was: c unattached, b rwx with its r-x override on page 1.
	unchanged := func(call string) {
		t.Helper()
		if _, ok := c.Attached(s); ok || s.HasAttached(c.ID) {
			t.Errorf("%s: refused attachment of c recorded", call)
		}
		if r, ok := b.Attached(s); r != addr.RWX || !ok {
			t.Errorf("%s: b attached %v (%v), want rwx", call, r, ok)
		}
		if r, ok := b.PageOverride(k.Geometry().PageNumber(p1)); r != addr.RX || !ok {
			t.Errorf("%s: b's page-1 override %v (%v), want r-x", call, r, ok)
		}
		for _, w := range []struct {
			d      *Domain
			va     addr.VA
			rights addr.Rights
		}{{a, s.Base(), addr.RWX}, {b, s.Base(), addr.RWX}, {b, p1, addr.RX}, {c, s.Base(), addr.None}} {
			vpn := k.Geometry().PageNumber(w.va)
			if r, _, _ := k.ResolveRights(w.d.ID, vpn); r != w.rights {
				t.Errorf("%s: ResolveRights(%d, %#x) = %v, want %v", call, w.d.ID, uint64(vpn), r, w.rights)
			}
			if err := k.Touch(w.d, w.va, addr.Fetch); (err == nil) != w.rights.Allows(addr.Fetch) {
				t.Errorf("%s: fetch by domain %d at %#x: %v, rights %v", call, w.d.ID, uint64(w.va), err, w.rights)
			}
		}
		if n := c.groups.Count(); n != 0 {
			t.Errorf("%s: c holds %d groups", call, n)
		}
		if err := k.CheckPageGroupBookkeeping(); err != nil {
			t.Errorf("%s: %v", call, err)
		}
	}
	groups := func() string {
		out := fmt.Sprint(k.DomainGroups(a.ID), k.DomainGroups(b.ID))
		for i := range s.NumPages() {
			g, r, _ := k.PageInfo(s.PageVPN(i))
			out += fmt.Sprintf(" %d:%v", g, r)
		}
		return out
	}
	before := groups()
	// A read-only domain beside a rwx one: no primary rights field holds
	// both r-- and rwx.
	if err := k.Attach(c, s, addr.Read); !errors.Is(err, ErrUnrepresentable) {
		t.Fatalf("Attach(c, r--) = %v, want ErrUnrepresentable", err)
	}
	unchanged("Attach")
	// Narrowing b to r-- fails the same way, and clears its override
	// only if it succeeds.
	if err := k.SetSegmentRights(b, s, addr.Read); !errors.Is(err, ErrUnrepresentable) {
		t.Fatalf("SetSegmentRights(b, r--) = %v, want ErrUnrepresentable", err)
	}
	unchanged("SetSegmentRights")
	if err := k.Attach(b, s, addr.Read); !errors.Is(err, ErrUnrepresentable) {
		t.Fatalf("re-Attach(b, r--) = %v, want ErrUnrepresentable", err)
	}
	unchanged("re-Attach")
	if after := groups(); after != before {
		t.Errorf("group sets and page groups moved across the refusals:\n%s\n%s", before, after)
	}
}

func TestPGAttachLoadsGroupForRunningDomain(t *testing.T) {
	k := New(DefaultConfig(ModelPageGroup))
	d := k.CreateDomain()
	k.Switch(d)
	s := k.CreateSegment(2, SegmentOptions{})
	k.Attach(d, s, addr.RW)
	// The running domain's checker got the group: first touch should not
	// take a pg refill trap (only TLB refill).
	before := k.Machine().Counters().Snapshot()
	if err := k.Touch(d, s.Base(), addr.Load); err != nil {
		t.Fatal(err)
	}
	if diff := k.Machine().Counters().Diff(before); diff.Get("trap.pg_refill") != 0 {
		t.Fatal("attach did not pre-load the running domain's group")
	}
}

func TestModelString(t *testing.T) {
	if ModelDomainPage.String() != "domain-page" || ModelPageGroup.String() != "page-group" {
		t.Fatal("model names wrong")
	}
}

func TestTotalCyclesMonotonic(t *testing.T) {
	bothModels(t, func(t *testing.T, k *Kernel) {
		d := k.CreateDomain()
		s := k.CreateSegment(2, SegmentOptions{})
		k.Attach(d, s, addr.RW)
		c0 := k.TotalCycles()
		k.Touch(d, s.Base(), addr.Store)
		c1 := k.TotalCycles()
		if c1 <= c0 {
			t.Fatal("cycles did not advance")
		}
	})
}
