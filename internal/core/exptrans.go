package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/kernel"
	"repro/internal/ptable"
	"repro/internal/stats"
)

// E12Translation covers the translation-side claims of Sections 3.1 and
// 4.3: larger translation pages stretch TLB reach at the price of
// internal fragmentation (protection granularity stays decoupled on the
// PLB machine), and an inverted page table keeps software walk costs
// near-constant while sized by physical memory.
func E12Translation(p *Probe) ([]*stats.Table, error) {
	var tables []*stats.Table

	// (a) Translation page size sweep: a fixed 576 KB of live data in 16
	// odd-sized (36 KB) segments, swept twice.
	{
		t := stats.NewTable("E12.1 Translation page size: TLB reach vs fragmentation (16 x 36 KB segments)",
			"page size", "TLB misses (2 sweeps)", "frames used", "bytes allocated", "waste")
		const (
			segBytes = 36 << 10
			segs     = 16
		)
		for _, shift := range []uint{12, 14, 16} {
			cfg := kernel.DefaultConfig(kernel.ModelDomainPage)
			cfg.PLB.Geometry = addr.NewGeometry(shift)
			cfg.PLB.PLB.Shifts = []uint{shift}
			cfg.Frames = 1024
			k := kernel.New(cfg)
			d := k.CreateDomain()
			pageSize := k.Geometry().PageSize()
			npages := (segBytes + pageSize - 1) / pageSize
			var segments []*kernel.Segment
			for i := 0; i < segs; i++ {
				s := k.CreateSegment(npages, kernel.SegmentOptions{Name: fmt.Sprintf("s%d", i)})
				k.Attach(d, s, addr.RW)
				segments = append(segments, s)
			}
			// Touch every 4 KB of the live 36 KB area, twice.
			mc := k.Machine().Counters()
			for sweep := 0; sweep < 2; sweep++ {
				for _, s := range segments {
					for off := uint64(0); off < segBytes; off += 4096 {
						if err := k.Touch(d, s.Base()+addr.VA(off), addr.Load); err != nil {
							return nil, err
						}
					}
				}
			}
			frames := k.Memory().FramesInUse()
			allocated := uint64(frames) * pageSize
			live := uint64(segs * segBytes)
			t.AddRow(fmt.Sprintf("%d KB", pageSize/1024), mc.Get("tlb.miss"), frames,
				allocated, stats.Pct(allocated-live, allocated))
			p.ObserveKernel(k)
		}
		t.AddNote("larger pages cut TLB misses (each entry covers more) but waste partially-used frames (§4.3)")
		t.AddNote("on the PLB machine, protection granularity is chosen independently of this tradeoff")
		tables = append(tables, t)
	}

	// (b) Inverted page table: software walk probes vs occupancy. The
	// kernel keeps translations in its page records, so its translations
	// are loaded, in mapping order, into a standalone inverted table sized
	// like its memory, and each page is looked up there once.
	{
		t := stats.NewTable("E12.2 Inverted page table probes vs load (1024 frames, 2048 anchors)",
			"load factor", "pages mapped", "avg probes/lookup")
		for _, pct := range []int{25, 50, 75, 95} {
			cfg := kernel.DefaultConfig(kernel.ModelDomainPage)
			cfg.Frames = 1024
			k := kernel.New(cfg)
			d := k.CreateDomain()
			pages := uint64(1024 * pct / 100)
			s := k.CreateSegment(pages, kernel.SegmentOptions{})
			k.Attach(d, s, addr.RW)
			for p := uint64(0); p < pages; p++ {
				if err := k.Touch(d, s.PageVA(p), addr.Store); err != nil {
					return nil, err
				}
			}
			// A re-sweep through a cold TLB exercises the kernel's
			// translations at the target occupancy.
			for p := uint64(0); p < pages; p++ {
				if _, err := k.Load(d, s.PageVA(p)); err != nil {
					return nil, err
				}
			}
			ipt, err := ptable.NewInvertedTable(cfg.Frames)
			if err != nil {
				return nil, err
			}
			for p := uint64(0); p < pages; p++ {
				pfn, _ := k.Translate(s.PageVPN(p))
				if err := ipt.Map(s.PageVPN(p), pfn); err != nil {
					return nil, err
				}
			}
			// Map probes too, so count only the lookups' own.
			l0, p0 := ipt.ProbeStats()
			for p := uint64(0); p < pages; p++ {
				ipt.Lookup(s.PageVPN(p))
			}
			l1, p1 := ipt.ProbeStats()
			avg := float64(p1-p0) / float64(l1-l0)
			t.AddRow(fmt.Sprintf("%d%%", pct), pages, avg)
			p.ObserveKernel(k)
		}
		t.AddNote("the table is sized by physical memory (2x anchors), so chains stay short even near full")
		t.AddNote("one entry per page regardless of how many domains share it — the §3.1 organization")
		tables = append(tables, t)
	}

	return tables, nil
}
