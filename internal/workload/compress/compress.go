// Package compress implements Appel & Li's compression paging (Table 1
// rows 13-14): a user-level paging server keeps evicted pages compressed
// in memory instead of on disk. On page-out the victim is made
// inaccessible to the client, compressed, and unmapped; on the client's
// next touch the page faults back in, is decompressed into a fresh frame,
// and returned to the client.
//
// Pages carry real data (a compressible pattern plus client-written
// tags), so every eviction round trip is verified bit-for-bit.
package compress

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/addr"
	"repro/internal/kernel"
	"repro/internal/mem"
)

// Config parameterizes the workload.
type Config struct {
	// Pages sizes the client's working segment.
	Pages uint64
	// ResidentBudget caps how many of the segment's pages may be
	// resident at once; touching beyond it evicts.
	ResidentBudget int
	// Ops is the number of client accesses.
	Ops int
	// HotPercent is the probability (0-100) of touching the hot subset
	// (first quarter of the segment) — locality makes compression paging
	// profitable.
	HotPercent int
	// CompressCyclesPerByte is the CPU cost of (de)compression.
	CompressCyclesPerByte uint64
	// Seed makes runs reproducible.
	Seed int64
}

// DefaultConfig returns a 64-page segment squeezed into 16 frames.
func DefaultConfig() Config {
	return Config{
		Pages:                 64,
		ResidentBudget:        16,
		Ops:                   2000,
		HotPercent:            70,
		CompressCyclesPerByte: 1,
		Seed:                  1,
	}
}

// Report summarizes a run.
type Report struct {
	// PageOuts and PageIns count compressed evictions and revivals.
	PageOuts, PageIns uint64
	// ReclaimFaults counts client protection faults on evicted pages
	// (the page-in trigger).
	ReclaimFaults uint64
	// CompressedRatio is the compressed/raw size of pages held at the
	// end of the run.
	CompressedRatio float64
	// MaxResident is the peak resident page count of the segment
	// (must respect the budget).
	MaxResident int
	// MachineCycles and KernelCycles are totals (compression CPU cost is
	// charged to the kernel).
	MachineCycles, KernelCycles uint64
}

// compressPager adapts mem.CompressedStore to the kernel Pager interface.
type compressPager struct {
	k       *kernel.Kernel
	store   *mem.CompressedStore
	perByte uint64
}

func (p *compressPager) Out(vpn addr.VPN, data []byte) error {
	if err := p.store.Put(uint64(vpn), data); err != nil {
		return err
	}
	// Compression is CPU work, charged to the kernel's cycle account.
	p.k.Charge(uint64(len(data)) * p.perByte)
	return nil
}

func (p *compressPager) In(vpn addr.VPN) ([]byte, error) {
	data, err := p.store.Get(uint64(vpn))
	if err != nil {
		return nil, err
	}
	p.k.Charge(uint64(len(data)) * p.perByte)
	return data, nil
}

// Run executes the workload on k and verifies data integrity across
// compression round trips.
func Run(k *kernel.Kernel, cfg Config) (Report, error) {
	if cfg.Pages == 0 || cfg.ResidentBudget < 1 || uint64(cfg.ResidentBudget) >= cfg.Pages {
		return Report{}, fmt.Errorf("compress: invalid config %+v (budget must be < pages)", cfg)
	}
	rep := Report{}
	client := k.CreateDomain()
	store := mem.NewCompressedStore()
	pager := &compressPager{k: k, store: store, perByte: cfg.CompressCyclesPerByte}
	k.SetPager(pager)
	defer k.SetPager(nil)

	// evicted tracks pages whose client rights were revoked by a
	// page-out and not yet restored. (The models fault in different
	// orders: the PLB machine raises the protection fault while the page
	// is still compressed; the page-group machine demand-pages the
	// translation first and then faults on the group check.)
	evicted := make(map[uint64]bool)
	var seg *kernel.Segment
	seg = k.CreateSegment(cfg.Pages, kernel.SegmentOptions{
		Name: "compressed-heap",
		Handler: func(f kernel.Fault) error {
			// The client touched an evicted page: restore its rights;
			// if still compressed, the retry page-faults and the pager
			// decompresses it.
			idx := (uint64(f.VA) - uint64(seg.Base())) / k.Geometry().PageSize()
			if !evicted[idx] {
				return fmt.Errorf("compress: fault on non-evicted page %d", idx)
			}
			delete(evicted, idx)
			rep.ReclaimFaults++
			return k.SetPageRights(f.Domain, f.VA, addr.RW)
		},
	})
	k.Attach(client, seg, addr.RW)

	// The client writes a deterministic tag into each page it touches;
	// the oracle remembers them.
	oracle := make(map[uint64]uint64)
	resident := []uint64{} // FIFO of resident page indices
	isResident := func(p uint64) bool { return k.Mapped(seg.PageVPN(p)) }

	evictIfNeeded := func() error {
		for len(resident) >= cfg.ResidentBudget {
			victim := resident[0]
			resident = resident[1:]
			if !isResident(victim) {
				continue
			}
			// Table 1 "Page-out": make the page inaccessible to the
			// client, compress, unmap, free the frame.
			if err := k.SetPageRights(client, seg.PageVA(victim), addr.None); err != nil {
				return err
			}
			if err := k.PageOut(seg.PageVPN(victim)); err != nil {
				return err
			}
			evicted[victim] = true
			rep.PageOuts++
		}
		return nil
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	pickPage := func() uint64 {
		hot := cfg.Pages / 4
		if hot == 0 {
			hot = 1
		}
		if rng.Intn(100) < cfg.HotPercent {
			return uint64(rng.Intn(int(hot)))
		}
		return uint64(rng.Intn(int(cfg.Pages)))
	}

	pageinsBefore := k.Counters().Get("kernel.pageins")
	for op := 0; op < cfg.Ops; op++ {
		p := pickPage()
		if !isResident(p) {
			if err := evictIfNeeded(); err != nil {
				return rep, err
			}
		}
		va := seg.PageVA(p)
		tag := uint64(op+1)<<16 | p
		if err := k.Store(client, va, tag); err != nil {
			return rep, fmt.Errorf("compress: store: %w", err)
		}
		oracle[p] = tag
		if !contains(resident, p) {
			resident = append(resident, p)
		}
		if n := residentCount(k, seg); n > rep.MaxResident {
			rep.MaxResident = n
		}
	}

	// Verify every touched page, forcing decompression of evicted ones.
	// Deterministic order keeps runs reproducible.
	touched := make([]uint64, 0, len(oracle))
	for p := range oracle {
		touched = append(touched, p)
	}
	sort.Slice(touched, func(a, b int) bool { return touched[a] < touched[b] })
	for _, p := range touched {
		want := oracle[p]
		if !isResident(p) {
			if err := evictIfNeeded(); err != nil {
				return rep, err
			}
		}
		got, err := k.Load(client, seg.PageVA(p))
		if err != nil {
			return rep, fmt.Errorf("compress: verify load: %w", err)
		}
		if got != want {
			return rep, fmt.Errorf("compress: page %d corrupted: got %#x want %#x", p, got, want)
		}
		if !contains(resident, p) {
			resident = append(resident, p)
		}
	}

	rep.PageIns = k.Counters().Get("kernel.pageins") - pageinsBefore
	rep.CompressedRatio = store.Ratio()
	rep.MachineCycles = k.Machine().Cycles()
	rep.KernelCycles = k.Cycles()
	return rep, nil
}

func contains(s []uint64, v uint64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// residentCount counts the segment's mapped pages.
func residentCount(k *kernel.Kernel, seg *kernel.Segment) int {
	n := 0
	for p := uint64(0); p < seg.NumPages(); p++ {
		if k.Mapped(seg.PageVPN(p)) {
			n++
		}
	}
	return n
}
