// Package checkpoint implements Li-Naughton-Plank concurrent
// checkpointing (Table 1 rows 11-12): to take a checkpoint, the
// checkpointer revokes the application's write access to the whole
// segment in one operation ("Restrict Access"); the application keeps
// running, and its first write to each page traps, at which point the
// checkpointer saves that page to disk and restores read-write access
// ("Checkpoint Page"). A background sweep saves the remaining pages.
//
// Incremental checkpointing (the optimization Li, Naughton & Plank build
// on full checkpoints) is a rule for the save set, not a second
// checkpointer: after the first checkpoint, each one saves only the
// pages modified since the previous one, found via the kernel's per-page
// dirty bits (cleared at every checkpoint). The protection discipline
// within each checkpoint is the same.
//
// The run verifies copy-on-write consistency: the saved image must equal
// the segment contents at the instant the checkpoint was taken, even
// though the application mutates pages throughout.
package checkpoint

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/kernel"
)

// Config parameterizes the workload.
type Config struct {
	// Pages sizes the checkpointed segment.
	Pages uint64
	// Checkpoints is how many checkpoints to take.
	Checkpoints int
	// WritesBetween is the number of application writes between
	// checkpoints.
	WritesBetween int
	// WritesDuring is the number of application writes issued while each
	// checkpoint is in progress (these race the sweep and trigger
	// copy-on-write saves). The sweep saves one page per write.
	WritesDuring int
	// Seed makes runs reproducible.
	Seed int64
	// DMARead, when non-nil, replaces the server domain's CPU reads
	// with device DMA: the checkpointer's page saves go through a DMA
	// engine's translation agent (kernel.DeviceReadPage) instead of a
	// CPU's protection structures. The callback receives the server
	// domain (so it can program the device on its behalf) and returns
	// the page bytes holding va.
	DMARead func(server *kernel.Domain, va addr.VA) ([]byte, error)
}

// DefaultConfig returns a 32-page segment checkpointed twice.
func DefaultConfig() Config {
	return Config{
		Pages:         32,
		Checkpoints:   2,
		WritesBetween: 128,
		WritesDuring:  64,
		Seed:          1,
	}
}

// Report summarizes a run.
type Report struct {
	// Checkpoints is the number of consistent checkpoints completed.
	Checkpoints int
	// FullPages is pages saved by full checkpoints: every checkpoint of
	// Run, the first of RunIncremental.
	FullPages uint64
	// IncrementalPages is pages saved by RunIncremental's later
	// checkpoints.
	IncrementalPages uint64
	// SkippedClean is pages an incremental checkpoint skipped because
	// their dirty bit was clear.
	SkippedClean uint64
	// COWFaults counts application write faults taken during
	// checkpoints (pages saved on demand).
	COWFaults uint64
	// SweepSaves counts pages saved by the background sweep.
	SweepSaves uint64
	// RestrictCycles is the total cost of the restrict operations (the
	// Table 1 "Restrict Access" row) — a PLB scan under domain-page, a
	// write-disable flip under page-group.
	RestrictCycles uint64
	// StableWrites counts pages written to the stable checkpoint store.
	StableWrites uint64
	// MachineCycles and KernelCycles are totals.
	MachineCycles, KernelCycles uint64
}

type checkpointer struct {
	k       *kernel.Kernel
	app     *kernel.Domain
	server  *kernel.Domain
	seg     *kernel.Segment
	image   [][]byte // the recovery image: each page's latest save
	owed    []bool   // pages the current checkpoint has yet to save
	next    uint64   // the sweep's next page in the current checkpoint
	im      *Image   // stable store behind the image
	active  bool
	dmaRead func(server *kernel.Domain, va addr.VA) ([]byte, error)
	rep     *Report
}

// onFault handles the application's write fault during a checkpoint:
// save the page if the checkpoint still owes it, then give write access
// back.
func (c *checkpointer) onFault(f kernel.Fault) error {
	if f.Kind != addr.Store || !c.active {
		return fmt.Errorf("checkpoint: unexpected %v fault by domain %d", f.Kind, f.Domain.ID)
	}
	idx := (uint64(f.VA) - uint64(c.seg.Base())) / c.k.Geometry().PageSize()
	if c.owed[idx] {
		if err := c.savePage(idx); err != nil {
			return err
		}
		c.rep.COWFaults++
	}
	// "Make the page read-write for the application."
	return c.k.SetPageRights(f.Domain, f.VA, addr.RW)
}

// savePage writes page idx to the stable checkpoint image (the server
// reads it — or a DMA engine does, when Config.DMARead routes the save
// through a device translation agent; the kernel is charged the disk
// write either way).
func (c *checkpointer) savePage(idx uint64) error {
	var data []byte
	var err error
	if c.dmaRead != nil {
		data, err = c.dmaRead(c.server, c.seg.PageVA(idx))
	} else {
		data, err = c.k.ReadPage(c.server, c.seg.PageVA(idx))
	}
	if err != nil {
		return err
	}
	c.image[idx] = data
	c.owed[idx] = false
	c.im.Put(c.k, c.seg.PageVPN(idx), data)
	c.rep.StableWrites++
	return nil
}

// sweep saves the next page, from c.next on, that the checkpoint still
// owes and gives it back to the application read-write.
func (c *checkpointer) sweep() error {
	for c.next < uint64(len(c.owed)) {
		p := c.next
		c.next++
		if c.owed[p] {
			if err := c.savePage(p); err != nil {
				return err
			}
			c.rep.SweepSaves++
			return c.k.SetPageRights(c.app, c.seg.PageVA(p), addr.RW)
		}
	}
	return nil
}

// Run takes cfg.Checkpoints full checkpoints on k and verifies that
// each one is consistent.
func Run(k *kernel.Kernel, cfg Config) (Report, error) {
	if cfg.Pages == 0 || cfg.Checkpoints < 1 {
		return Report{}, fmt.Errorf("checkpoint: invalid config %+v", cfg)
	}
	return run(k, cfg, false)
}

// RunIncremental takes one full checkpoint and cfg.Checkpoints-1
// incremental ones on k, verifying after every checkpoint that the
// cumulative image equals the segment contents at that checkpoint's
// restrict instant.
func RunIncremental(k *kernel.Kernel, cfg Config) (Report, error) {
	if cfg.Pages == 0 || cfg.Checkpoints < 2 {
		return Report{}, fmt.Errorf("checkpoint: incremental needs >= 2 checkpoints, got %+v", cfg)
	}
	return run(k, cfg, true)
}

func run(k *kernel.Kernel, cfg Config, incremental bool) (Report, error) {
	rep := Report{}
	c := &checkpointer{
		k:       k,
		app:     k.CreateDomain(),
		server:  k.CreateDomain(),
		image:   make([][]byte, cfg.Pages),
		owed:    make([]bool, cfg.Pages),
		dmaRead: cfg.DMARead,
		rep:     &rep,
	}
	c.seg = k.CreateSegment(cfg.Pages, kernel.SegmentOptions{
		Name:    "checkpointed",
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
				return rep, fmt.Errorf("checkpoint: app write: %w", err)
			}
		}

		// The save set. A full run saves every page and leaves the dirty
		// bits alone. An incremental run clears every page's dirty bit
		// at every checkpoint, the first included, and after the first
		// skips the pages whose bit was clear.
		saving := uint64(0)
		for p := uint64(0); p < cfg.Pages; p++ {
			dirty := !incremental || k.ClearDirty(c.seg.PageVPN(p))
			c.owed[p] = ck == 0 || dirty
			if c.owed[p] {
				saving++
			} else {
				rep.SkippedClean++
			}
		}

		// Take the checkpoint: restrict the application to read-only in
		// one segment-wide operation.
		oracle, err := snapshot(k, c.seg)
		if err != nil {
			return rep, err
		}
		c.active = true
		cyc0 := k.TotalCycles()
		if err := k.SetSegmentRights(c.app, c.seg, addr.Read); err != nil {
			return rep, fmt.Errorf("checkpoint: restrict: %w", err)
		}
		rep.RestrictCycles += k.TotalCycles() - cyc0

		// Concurrent phase: the application writes (faulting into
		// copy-on-write saves) while the sweep saves a page per write in
		// the background; then the sweep finishes.
		c.next = 0
		for i := 0; i < cfg.WritesDuring; i++ {
			if err := write(); err != nil {
				return rep, fmt.Errorf("checkpoint: concurrent write: %w", err)
			}
			if err := c.sweep(); err != nil {
				return rep, err
			}
		}
		for c.next < cfg.Pages {
			if err := c.sweep(); err != nil {
				return rep, err
			}
		}
		c.active = false
		// Restore full access uniformly (clears the scattered per-page
		// overrides left by the checkpoint).
		if err := k.SetSegmentRights(c.app, c.seg, addr.RW); err != nil {
			return rep, fmt.Errorf("checkpoint: restore: %w", err)
		}

		// Consistency check: the image must equal the snapshot taken at
		// restrict time, despite the concurrent writes.
		for p := uint64(0); p < cfg.Pages; p++ {
			if c.owed[p] {
				return rep, fmt.Errorf("checkpoint %d: page %d missing from image", ck, p)
			}
			if !bytes.Equal(c.image[p], oracle[p]) {
				return rep, fmt.Errorf("checkpoint %d: page %d image diverges from checkpoint-time contents", ck, p)
			}
		}
		if incremental && ck > 0 {
			rep.IncrementalPages += saving
		} else {
			rep.FullPages += saving
		}
		rep.Checkpoints++
	}

	rep.MachineCycles = k.Machine().Cycles()
	rep.KernelCycles = k.Cycles()
	return rep, nil
}

// snapshot copies the whole segment's bytes (test oracle; kernel-mode).
func snapshot(k *kernel.Kernel, seg *kernel.Segment) ([][]byte, error) {
	out := make([][]byte, seg.NumPages())
	for p := uint64(0); p < seg.NumPages(); p++ {
		data, err := k.KernelReadPage(seg.PageVPN(p))
		if err != nil {
			return nil, err
		}
		out[p] = data
	}
	return out, nil
}
