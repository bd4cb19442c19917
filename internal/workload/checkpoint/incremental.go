package checkpoint

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/kernel"
)

// Incremental checkpointing (the optimization Li, Naughton & Plank build
// on full checkpoints): after the first full checkpoint, each subsequent
// checkpoint saves only pages modified since the previous one, found via
// the kernel's per-page dirty bits (cleared at every checkpoint). The
// copy-on-write protection discipline within each checkpoint is unchanged.

// IncrementalReport extends Report with incremental-specific metrics.
type IncrementalReport struct {
	// Checkpoints completed (the first is full, the rest incremental).
	Checkpoints int
	// FullPages is pages saved by the initial full checkpoint.
	FullPages uint64
	// IncrementalPages is pages saved across the incremental ones.
	IncrementalPages uint64
	// SkippedClean is pages skipped because their dirty bit was clear.
	SkippedClean uint64
	// COWFaults counts write faults during in-progress checkpoints.
	COWFaults uint64
	// StableWrites counts pages written to the stable checkpoint store.
	StableWrites uint64
	// MachineCycles and KernelCycles are totals.
	MachineCycles, KernelCycles uint64
}

// incState tracks one incremental checkpointing run.
type incState struct {
	k      *kernel.Kernel
	app    *kernel.Domain
	server *kernel.Domain
	seg    *kernel.Segment
	saved  map[uint64][]byte // pages saved in the current checkpoint
	image  map[uint64][]byte // the cumulative recovery image
	im     *Image            // stable store behind the image
	active bool
	inSet  map[uint64]bool // pages that must be saved this checkpoint
	rep    *IncrementalReport
}

func (c *incState) onFault(f kernel.Fault) error {
	if f.Kind != addr.Store || !c.active {
		return fmt.Errorf("checkpoint: unexpected %v fault by domain %d", f.Kind, f.Domain.ID)
	}
	idx := (uint64(f.VA) - uint64(c.seg.Base())) / c.k.Geometry().PageSize()
	if c.inSet[idx] {
		if _, done := c.saved[idx]; !done {
			if err := c.savePage(idx); err != nil {
				return err
			}
			c.rep.COWFaults++
		}
	}
	return c.k.SetPageRights(f.Domain, f.VA, addr.RW)
}

func (c *incState) savePage(idx uint64) error {
	data, err := c.k.ReadPage(c.server, c.seg.PageVA(idx))
	if err != nil {
		return err
	}
	c.saved[idx] = data
	c.image[idx] = data
	c.im.Put(c.k, c.seg.PageVPN(idx), data)
	c.rep.StableWrites++
	return nil
}

// RunIncremental executes the incremental checkpointing workload on k,
// verifying after every checkpoint that the cumulative image equals the
// segment contents at that checkpoint's restrict instant.
func RunIncremental(k *kernel.Kernel, cfg Config) (IncrementalReport, error) {
	if cfg.Pages == 0 || cfg.Checkpoints < 2 {
		return IncrementalReport{}, fmt.Errorf("checkpoint: incremental needs >= 2 checkpoints, got %+v", cfg)
	}
	rep := IncrementalReport{}
	c := &incState{
		k:      k,
		app:    k.CreateDomain(),
		server: k.CreateDomain(),
		image:  make(map[uint64][]byte),
		rep:    &rep,
	}
	c.seg = k.CreateSegment(cfg.Pages, kernel.SegmentOptions{
		Name:    "inc-checkpointed",
		Handler: c.onFault,
	})
	c.im = NewImageFor(k)
	k.Attach(c.app, c.seg, addr.RW)
	k.Attach(c.server, c.seg, addr.Read)

	rng := rand.New(rand.NewSource(cfg.Seed))
	write := func() error {
		p := uint64(rng.Intn(int(cfg.Pages)))
		off := uint64(rng.Intn(int(k.Geometry().PageSize()/8))) * 8
		return k.Store(c.app, c.seg.PageVA(p)+addr.VA(off), rng.Uint64())
	}

	for ck := 0; ck < cfg.Checkpoints; ck++ {
		for i := 0; i < cfg.WritesBetween; i++ {
			if err := write(); err != nil {
				return rep, err
			}
		}

		// Determine this checkpoint's save set from the dirty bits
		// (everything for the first checkpoint), clearing them so the
		// next interval starts fresh.
		c.inSet = make(map[uint64]bool)
		for p := uint64(0); p < cfg.Pages; p++ {
			vpn := c.seg.PageVPN(p)
			dirty := k.ClearDirty(vpn)
			if ck == 0 || dirty {
				c.inSet[p] = true
			} else {
				rep.SkippedClean++
			}
		}
		oracle, err := snapshot(k, c.seg)
		if err != nil {
			return rep, err
		}
		c.saved = make(map[uint64][]byte)
		c.active = true
		if err := k.SetSegmentRights(c.app, c.seg, addr.Read); err != nil {
			return rep, err
		}

		// Concurrent writes race the sweep, as in the full workload.
		sweepNext := uint64(0)
		sweepOne := func() error {
			for sweepNext < cfg.Pages {
				p := sweepNext
				sweepNext++
				if !c.inSet[p] {
					continue
				}
				if _, done := c.saved[p]; done {
					continue
				}
				if err := c.savePage(p); err != nil {
					return err
				}
				if err := k.SetPageRights(c.app, c.seg.PageVA(p), addr.RW); err != nil {
					return err
				}
				return nil
			}
			return nil
		}
		for i := 0; i < cfg.WritesDuring; i++ {
			if err := write(); err != nil {
				return rep, err
			}
			if err := sweepOne(); err != nil {
				return rep, err
			}
		}
		for sweepNext < cfg.Pages {
			if err := sweepOne(); err != nil {
				return rep, err
			}
		}
		c.active = false
		if err := k.SetSegmentRights(c.app, c.seg, addr.RW); err != nil {
			return rep, err
		}
		// Writes during the checkpoint dirtied pages for the NEXT
		// interval; the COW discipline saved their pre-images, so the
		// dirty bits set during this window are correct carryover.

		// Verify: the cumulative image must equal the restrict-time
		// contents for every page.
		for p := uint64(0); p < cfg.Pages; p++ {
			img, ok := c.image[p]
			if !ok {
				return rep, fmt.Errorf("checkpoint %d: page %d missing from image", ck, p)
			}
			if !bytes.Equal(img, oracle[p]) {
				return rep, fmt.Errorf("checkpoint %d: page %d image diverges", ck, p)
			}
		}
		saved := uint64(len(c.saved))
		if ck == 0 {
			rep.FullPages = saved
		} else {
			rep.IncrementalPages += saved
		}
		rep.Checkpoints++
	}

	rep.MachineCycles = k.Machine().Cycles()
	rep.KernelCycles = k.Cycles()
	return rep, nil
}
