package kernel

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/mem"
)

// Failure injection: the kernel must degrade cleanly when resources run
// out or handlers misbehave, never corrupting its tables.

func TestOutOfFramesSurfacesCleanly(t *testing.T) {
	for _, m := range []Model{ModelDomainPage, ModelPageGroup, ModelConventional} {
		t.Run(m.String(), func(t *testing.T) {
			cfg := DefaultConfig(m)
			cfg.Frames = 4
			k := New(cfg)
			d := k.CreateDomain()
			s := k.CreateSegment(8, SegmentOptions{})
			k.Attach(d, s, addr.RW)
			var err error
			touched := uint64(0)
			for p := uint64(0); p < 8; p++ {
				if err = k.Touch(d, s.PageVA(p), addr.Store); err != nil {
					break
				}
				touched++
			}
			if touched != 4 {
				t.Fatalf("touched %d pages with 4 frames", touched)
			}
			if !errors.Is(err, mem.ErrOutOfFrames) {
				t.Fatalf("err = %v, want ErrOutOfFrames", err)
			}
			// Already-mapped pages keep working.
			if err := k.Touch(d, s.PageVA(0), addr.Load); err != nil {
				t.Fatalf("resident page broken after OOM: %v", err)
			}
			// Paging one out frees a frame for the blocked page.
			if err := k.PageOut(s.PageVPN(0)); err != nil {
				t.Fatal(err)
			}
			if err := k.Touch(d, s.PageVA(5), addr.Store); err != nil {
				t.Fatalf("after page-out: %v", err)
			}
		})
	}
}

func TestHandlerPanicPropagates(t *testing.T) {
	k := New(DefaultConfig(ModelDomainPage))
	d := k.CreateDomain()
	s := k.CreateSegment(1, SegmentOptions{
		Handler: func(f Fault) error { panic("handler bug") },
	})
	k.Attach(d, s, addr.None)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("handler panic swallowed")
		}
		if !strings.Contains(r.(string), "handler bug") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	k.Touch(d, s.Base(), addr.Load)
}

func TestHandlerReentrancy(t *testing.T) {
	// A handler that itself touches memory (in another domain) must not
	// corrupt the retry of the original access.
	k := New(DefaultConfig(ModelDomainPage))
	app := k.CreateDomain()
	logger := k.CreateDomain()
	logSeg := k.CreateSegment(1, SegmentOptions{Name: "log"})
	k.Attach(logger, logSeg, addr.RW)

	var logged uint64
	s := k.CreateSegment(2, SegmentOptions{
		Handler: func(f Fault) error {
			// Log the fault by writing through another domain.
			logged++
			if err := f.K.Store(logger, logSeg.Base(), logged); err != nil {
				return err
			}
			return f.K.SetPageRights(f.Domain, f.VA, addr.RW)
		},
	})
	k.Attach(app, s, addr.None)
	if err := k.Store(app, s.Base(), 42); err != nil {
		t.Fatal(err)
	}
	v, err := k.Load(logger, logSeg.Base())
	if err != nil || v != 1 {
		t.Fatalf("log = %d, %v", v, err)
	}
	// The original store landed despite the nested domain switches.
	if v, _ := k.Load(app, s.Base()); v != 42 {
		t.Fatalf("original store lost: %d", v)
	}
}

func TestDiskFullIsNotModeled(t *testing.T) {
	// The simulated disk is unbounded; this test documents that paging
	// never fails for disk capacity, only frame exhaustion (above).
	k := New(DefaultConfig(ModelDomainPage))
	d := k.CreateDomain()
	s := k.CreateSegment(4, SegmentOptions{})
	k.Attach(d, s, addr.RW)
	for p := uint64(0); p < 4; p++ {
		k.Touch(d, s.PageVA(p), addr.Store)
		if err := k.PageOut(s.PageVPN(p)); err != nil {
			t.Fatal(err)
		}
	}
	if n := k.DiskBlocks(s); n != 4 {
		t.Fatalf("disk blocks = %d", n)
	}
}

// TestDiskBlocksReleased pages out both pages of a segment, faults one
// back in and destroys the segment: the default pager keeps a block only
// while a page's contents live on disk.
func TestDiskBlocksReleased(t *testing.T) {
	k := New(DefaultConfig(ModelDomainPage))
	d := k.CreateDomain()
	s := k.CreateSegment(2, SegmentOptions{})
	k.Attach(d, s, addr.RW)
	for p := uint64(0); p < 2; p++ {
		if err := k.Store(d, s.PageVA(p), p+1); err != nil {
			t.Fatal(err)
		}
		if err := k.PageOut(s.PageVPN(p)); err != nil {
			t.Fatal(err)
		}
	}
	if n := k.DiskBlocks(s); n != 2 {
		t.Fatalf("after two page-outs: disk blocks = %d, want 2", n)
	}
	if v, err := k.Load(d, s.PageVA(0)); err != nil || v != 1 {
		t.Fatalf("page 0 after page-in = %d, %v; want 1", v, err)
	}
	if n := k.DiskBlocks(s); n != 1 {
		t.Fatalf("after paging page 0 in: disk blocks = %d, want 1", n)
	}
	if err := k.Detach(d, s); err != nil {
		t.Fatal(err)
	}
	if err := k.DestroySegment(s); err != nil {
		t.Fatal(err)
	}
	if n := k.DiskBlocks(s); n != 0 {
		t.Fatalf("after destroying the segment: disk blocks = %d, want 0", n)
	}
}

// TestResidentFIFOOnlyUnderAutoEvict runs 1,000 segment lifetimes with
// the page daemon off: the FIFO that only the daemon reads stays empty.
func TestResidentFIFOOnlyUnderAutoEvict(t *testing.T) {
	k := New(DefaultConfig(ModelDomainPage))
	d := k.CreateDomain()
	for i := range 1000 {
		s := k.CreateSegment(1, SegmentOptions{})
		k.Attach(d, s, addr.RW)
		if err := k.Store(d, s.PageVA(0), uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := k.Detach(d, s); err != nil {
			t.Fatal(err)
		}
		if err := k.DestroySegment(s); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(k.residentFIFO); n != 0 {
		t.Fatalf("residentFIFO holds %d pages, want 0", n)
	}
}

func TestAutoEvictSurvivesPressure(t *testing.T) {
	for _, m := range []Model{ModelDomainPage, ModelPageGroup, ModelConventional} {
		t.Run(m.String(), func(t *testing.T) {
			cfg := DefaultConfig(m)
			cfg.Frames = 8
			cfg.AutoEvict = true
			k := New(cfg)
			d := k.CreateDomain()
			s := k.CreateSegment(32, SegmentOptions{}) // 4x physical memory
			k.Attach(d, s, addr.RW)
			// Write a tag to every page, then read them all back: the
			// page daemon must shuttle pages through the backing store
			// without losing a byte.
			for p := uint64(0); p < 32; p++ {
				if err := k.Store(d, s.PageVA(p), p+100); err != nil {
					t.Fatalf("store page %d: %v", p, err)
				}
			}
			for p := uint64(0); p < 32; p++ {
				v, err := k.Load(d, s.PageVA(p))
				if err != nil {
					t.Fatalf("load page %d: %v", p, err)
				}
				if v != p+100 {
					t.Fatalf("page %d = %d, want %d", p, v, p+100)
				}
			}
			if k.Counters().Get("kernel.auto_evictions") == 0 {
				t.Fatal("no evictions under 4x overcommit")
			}
			if k.Memory().FramesInUse() > 8 {
				t.Fatal("frame budget exceeded")
			}
		})
	}
}

// --- First-class fault injection (SetFaultInjector) ---

func TestInjectedFrameAllocFailure(t *testing.T) {
	// The injector makes allocation fail for one specific page; the
	// kernel surfaces the error cleanly, other pages are untouched, and
	// removing the injector heals the page.
	errBadFrame := errors.New("injected frame failure")
	for _, m := range []Model{ModelDomainPage, ModelPageGroup, ModelConventional} {
		t.Run(m.String(), func(t *testing.T) {
			cfg := DefaultConfig(m)
			k := New(cfg)
			d := k.CreateDomain()
			s := k.CreateSegment(4, SegmentOptions{})
			k.Attach(d, s, addr.RW)
			poison := s.PageVPN(2)
			k.SetFaultInjector(&FaultInjector{
				FrameAlloc: func(vpn addr.VPN) error {
					if vpn == poison {
						return errBadFrame
					}
					return nil
				},
			})
			for p := uint64(0); p < 4; p++ {
				err := k.Touch(d, s.PageVA(p), addr.Store)
				if p == 2 {
					if !errors.Is(err, errBadFrame) {
						t.Fatalf("page 2 err = %v, want injected failure", err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("page %d: %v", p, err)
				}
			}
			if got := k.Counters().Get("kernel.injected_frame_failures"); got == 0 {
				t.Fatal("injection not counted")
			}
			k.SetFaultInjector(nil)
			if err := k.Touch(d, s.PageVA(2), addr.Store); err != nil {
				t.Fatalf("page 2 still broken after removing injector: %v", err)
			}
		})
	}
}

func TestInjectedHandlerError(t *testing.T) {
	// The injector replaces the handler's verdict for the first fault
	// only; the kernel reports a protection error without corrupting its
	// tables, and the retried access succeeds through the real handler.
	k := New(DefaultConfig(ModelDomainPage))
	d := k.CreateDomain()
	handlerRuns := 0
	s := k.CreateSegment(1, SegmentOptions{
		Handler: func(f Fault) error {
			handlerRuns++
			return f.K.SetPageRights(f.Domain, f.VA, addr.RW)
		},
	})
	k.Attach(d, s, addr.None)
	errCrash := errors.New("injected handler crash")
	fired := false
	k.SetFaultInjector(&FaultInjector{
		HandlerError: func(f Fault) error {
			if fired {
				return nil
			}
			fired = true
			return errCrash
		},
	})
	err := k.Store(d, s.Base(), 1)
	if !errors.Is(err, ErrProtection) || !errors.Is(err, errCrash) {
		t.Fatalf("err = %v, want ErrProtection wrapping the injected error", err)
	}
	if handlerRuns != 0 {
		t.Fatal("real handler ran despite injected error")
	}
	if err := k.Store(d, s.Base(), 2); err != nil {
		t.Fatalf("retry after injected crash: %v", err)
	}
	if handlerRuns != 1 {
		t.Fatalf("handler runs = %d", handlerRuns)
	}
	if k.Counters().Get("kernel.injected_handler_errors") != 1 {
		t.Fatal("injection not counted")
	}
}

func TestInjectedSpuriousTraps(t *testing.T) {
	// Spurious traps hit an idempotent handler; data stays correct and
	// every injected trap is charged and counted.
	for _, m := range []Model{ModelDomainPage, ModelPageGroup, ModelConventional} {
		t.Run(m.String(), func(t *testing.T) {
			k := New(DefaultConfig(m))
			d := k.CreateDomain()
			s := k.CreateSegment(2, SegmentOptions{
				Handler: func(f Fault) error {
					return f.K.SetPageRights(f.Domain, f.VA, addr.RW)
				},
			})
			k.Attach(d, s, addr.RW)
			n := 0
			k.SetFaultInjector(&FaultInjector{
				SpuriousTrap: func(dom addr.DomainID, va addr.VA, kind addr.AccessKind) bool {
					n++
					return n%3 == 0 // every third access glitches
				},
			})
			cyc0 := k.Cycles()
			for i := 0; i < 12; i++ {
				va := s.PageVA(uint64(i % 2))
				if err := k.Store(d, va, uint64(i)); err != nil {
					t.Fatalf("store %d: %v", i, err)
				}
			}
			traps := k.Counters().Get("kernel.injected_spurious_traps")
			if traps == 0 {
				t.Fatal("no spurious traps fired")
			}
			if k.Cycles() == cyc0 {
				t.Fatal("spurious traps charged no cycles")
			}
			if v, _ := k.Load(d, s.PageVA(1)); v != 11 {
				t.Fatalf("data corrupted under spurious traps: %d", v)
			}
		})
	}
}

func TestSpuriousTrapWithoutHandlerIsFatal(t *testing.T) {
	// A glitching access to a handler-less segment cannot be recovered:
	// the kernel surfaces ErrProtection instead of looping.
	k := New(DefaultConfig(ModelDomainPage))
	d := k.CreateDomain()
	s := k.CreateSegment(1, SegmentOptions{})
	k.Attach(d, s, addr.RW)
	k.SetFaultInjector(&FaultInjector{
		SpuriousTrap: func(addr.DomainID, addr.VA, addr.AccessKind) bool { return true },
	})
	if err := k.Touch(d, s.Base(), addr.Load); !errors.Is(err, ErrProtection) {
		t.Fatalf("err = %v, want ErrProtection", err)
	}
}

func TestAutoEvictOffByDefault(t *testing.T) {
	cfg := DefaultConfig(ModelDomainPage)
	cfg.Frames = 2
	k := New(cfg)
	d := k.CreateDomain()
	s := k.CreateSegment(4, SegmentOptions{})
	k.Attach(d, s, addr.RW)
	var err error
	for p := uint64(0); p < 4; p++ {
		if err = k.Touch(d, s.PageVA(p), addr.Store); err != nil {
			break
		}
	}
	if !errors.Is(err, mem.ErrOutOfFrames) {
		t.Fatalf("err = %v, want ErrOutOfFrames without AutoEvict", err)
	}
}
