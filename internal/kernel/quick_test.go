package kernel_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/kernel"
	"repro/internal/oracle"
)

// Property: ANY interleaving of lifecycle operations — create, fork,
// attach, touch, override, detach, segment create/destroy, execution-site
// moves, destroy — leaves every destroyed domain oracle-clean at the
// moment of its death, and drains to a kernel with zero live domains and
// every minted ID parked on the free list. testing/quick drives the
// interpreter below with random byte scripts; any failure shrinks to a
// reproducible script. Run under -race in CI: the kernel is documented
// single-threaded per instance, so the property doubles as a check that
// no lifecycle path spawns hidden concurrency.

// lifecycleScript interprets raw as (op, arg) byte pairs against a fresh
// two-CPU kernel, returning the first invariant violation. After every
// op the two sides of the attachment relation are cross-checked, so are
// the page records' translations against physical memory, and so is the
// page-group engine's bookkeeping against the kernel tables (a no-op
// under the other models).
func lifecycleScript(model kernel.Model, raw []byte) error {
	cfg := kernel.DefaultConfig(model)
	cfg.CPUs = 2
	k := kernel.New(cfg)

	// Rights come from arg's high bits so they vary independently of the
	// segment (and domain) the low bits pick: otherwise every attachment
	// and override of a segment carries the same rights and no per-page
	// divergence — no derived page group — ever arises.
	rights := func(arg int) addr.Rights { return []addr.Rights{addr.Read, addr.RW}[arg>>4&1] }
	kinds := []addr.AccessKind{addr.Load, addr.Store}

	segs := []*kernel.Segment{
		k.CreateSegment(8, kernel.SegmentOptions{Name: "ql0"}),
		k.CreateSegment(8, kernel.SegmentOptions{Name: "ql1"}),
	}
	const fixedSegs = 2 // ql0/ql1 are never destroyed
	var live []*kernel.Domain
	destroyed := 0
	dynSeg := 0

	destroy := func(i int) error {
		d := live[i]
		id := d.ID
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		if err := k.DestroyDomain(d); err != nil {
			return fmt.Errorf("destroy domain %d: %w", id, err)
		}
		// The core of the property: no residual authority anywhere —
		// kernel tables, sharer directory, TLB/PLB/checker state on either
		// CPU.
		if err := oracle.VerifyDestroyed(k, id); err != nil {
			return fmt.Errorf("after destroying domain %d: %w", id, err)
		}
		destroyed++
		return nil
	}

	for i := 0; i+1 < len(raw); i += 2 {
		op, arg := raw[i], int(raw[i+1])
		switch op % 8 {
		case 0: // create
			if len(live) < 12 {
				d, err := k.CreateDomainChecked()
				if err != nil {
					return fmt.Errorf("create: %w", err)
				}
				live = append(live, d)
			}
		case 1: // fork
			if n := len(live); n > 0 && n < 12 {
				c, err := k.ForkDomain(live[arg%n])
				if err != nil {
					return fmt.Errorf("fork: %w", err)
				}
				live = append(live, c)
			}
		case 2: // attach (re-attach just refreshes rights)
			if n := len(live); n > 0 {
				k.Attach(live[arg%n], segs[arg%len(segs)], rights(arg))
			}
		case 3: // touch; denial is a legal outcome, not a violation
			if n := len(live); n > 0 {
				s := segs[arg%len(segs)]
				va := s.PageVA(uint64(arg) % s.NumPages())
				_ = k.Touch(live[arg%n], va, kinds[arg%len(kinds)])
			}
		case 4: // per-page override; fails when unattached — legal
			if n := len(live); n > 0 {
				s := segs[arg%len(segs)]
				va := s.PageVA(uint64(arg) % s.NumPages())
				_ = k.SetPageRights(live[arg%n], va, rights(arg))
			}
		case 5: // detach; ErrNotAttached is legal
			if n := len(live); n > 0 {
				_ = k.Detach(live[arg%n], segs[arg%len(segs)])
			}
		case 6: // destroy
			if n := len(live); n > 0 {
				if err := destroy(arg % n); err != nil {
					return err
				}
			}
		case 7: // move execution, or churn a dynamic segment
			switch {
			case arg%2 == 0:
				if n := len(live); n > 0 {
					k.SetCPU(arg % k.NumCPUs())
					k.Switch(live[arg%n])
					k.SetCPU(0)
				}
			case len(segs) < fixedSegs+3:
				s, err := k.CreateSegmentChecked(4,
					kernel.SegmentOptions{Name: fmt.Sprintf("qdyn%d", dynSeg)})
				if err != nil {
					return fmt.Errorf("segment create: %w", err)
				}
				dynSeg++
				segs = append(segs, s)
			default:
				// Detach whoever still holds it (the kernel's documented
				// destroy precondition), then tear the segment down mid-run.
				s := segs[len(segs)-1]
				segs = segs[:len(segs)-1]
				for _, d := range live {
					if _, ok := d.Attached(s); ok {
						if err := k.Detach(d, s); err != nil {
							return fmt.Errorf("pre-destroy detach: %w", err)
						}
					}
				}
				if err := k.DestroySegment(s); err != nil {
					return fmt.Errorf("segment destroy: %w", err)
				}
			}
		}
		if err := k.CheckPageGroupBookkeeping(); err != nil {
			return fmt.Errorf("after op %d (%d): %w", i/2, op%8, err)
		}
		if err := k.CheckAttachmentBookkeeping(); err != nil {
			return fmt.Errorf("after op %d (%d): %w", i/2, op%8, err)
		}
		if err := k.CheckTranslationBookkeeping(); err != nil {
			return fmt.Errorf("after op %d (%d): %w", i/2, op%8, err)
		}
	}

	for len(live) > 0 {
		if err := destroy(len(live) - 1); err != nil {
			return err
		}
		if err := k.CheckPageGroupBookkeeping(); err != nil {
			return fmt.Errorf("after drain destroy: %w", err)
		}
		if err := k.CheckAttachmentBookkeeping(); err != nil {
			return fmt.Errorf("after drain destroy: %w", err)
		}
		if err := k.CheckTranslationBookkeeping(); err != nil {
			return fmt.Errorf("after drain destroy: %w", err)
		}
	}
	if n := k.LiveDomains(); n != 0 {
		return fmt.Errorf("drained kernel reports %d live domains", n)
	}
	if destroyed > 0 && k.FreeDomainIDs() == 0 {
		return fmt.Errorf("%d domains destroyed but free list is empty", destroyed)
	}
	return nil
}

func TestLifecycleQuick(t *testing.T) {
	for _, model := range []kernel.Model{
		kernel.ModelDomainPage, kernel.ModelPageGroup,
		kernel.ModelConventional, kernel.ModelFlush,
	} {
		t.Run(model.String(), func(t *testing.T) {
			prop := func(raw []byte) bool {
				if err := lifecycleScript(model, raw); err != nil {
					t.Logf("script %x: %v", raw, err)
					return false
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}
