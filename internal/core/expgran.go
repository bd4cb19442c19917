package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/assoc"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/plb"
	"repro/internal/stats"
)

// E8Granularity reproduces Section 4.3: because the PLB decouples
// protection from translation, protection pages can be smaller than
// translation pages (reducing false sharing in DSM-style uses) or larger
// (one entry covering a whole constant-rights segment).
func E8Granularity(p *Probe) ([]*stats.Table, error) {
	var tables []*stats.Table

	// (a) Sub-page protection: two domains write-share a 4 KB page but
	// touch disjoint halves — false sharing at page granularity, none at
	// sub-page granularity. Single-writer ownership per protection unit,
	// DSM-style: writing a unit owned by the other domain costs a
	// coherence transfer (revoke + grant).
	{
		t := stats.NewTable("E8.1 Sub-page protection vs DSM false sharing (two writers, disjoint page halves)",
			"protection unit", "writes", "ownership transfers", "PLB installs", "resident entries")
		const (
			pageBase = addr.VA(1) << 32
			npages   = 8
			ops      = 4096
		)
		for _, shift := range []uint{addr.BasePageShift, 9, 7} {
			h := plbNew(shift)
			owner := map[uint64]addr.DomainID{}
			transfers := 0
			ctrs := h.ctrs
			for i := 0; i < ops; i++ {
				d := addr.DomainID(1 + i%2)
				page := uint64(i/2) % npages
				// Domain 1 writes the low half, domain 2 the high half.
				half := uint64(d-1) * 2048
				off := half + uint64(i*64)%2048
				va := pageBase + addr.VA(page*4096+off)
				unit := uint64(va) >> shift
				if cur, ok := owner[unit]; ok && cur != d {
					// False sharing at this granularity: revoke the
					// other domain's entry, transfer ownership.
					h.plb.Invalidate(cur, va)
					transfers++
				}
				if r, ok := h.plb.Lookup(d, va); !ok || !r.Allows(addr.Store) {
					h.plb.Insert(d, va, shift, addr.RW)
				}
				owner[unit] = d
			}
			t.AddRow(fmt.Sprintf("%d B", uint64(1)<<shift), ops, transfers,
				ctrs.Get("plb.install"), h.plb.Len())
			p.ObserveCounters(ctrs.Snapshot())
		}
		t.AddNote("disjoint halves: 4 KB protection units false-share (transfer per alternation); <=2 KB units never conflict")
		tables = append(tables, t)
	}

	// (b) Super-page protection: a large constant-rights segment (a code
	// library) can be covered by one entry per domain instead of one per
	// page — fewer entries, fewer misses.
	{
		t := stats.NewTable("E8.2 Super-page protection entries for a 1 MB constant-rights segment",
			"protection unit", "entries to cover segment/domain", "PLB misses (sweep x4 domains)", "resident entries after")
		const (
			segBase  = addr.VA(1) << 40 // 1 MB aligned
			segPages = 256
			domains  = 4
		)
		for _, shift := range []uint{addr.BasePageShift, 16, 20} {
			h := plbNew(shift)
			// Each domain sweeps the whole segment twice.
			for round := 0; round < 2; round++ {
				for d := addr.DomainID(1); d <= domains; d++ {
					for pg := uint64(0); pg < segPages; pg++ {
						va := segBase + addr.VA(pg*4096)
						if _, ok := h.plb.Lookup(d, va); !ok {
							h.plb.Insert(d, va, shift, addr.RX)
						}
					}
				}
			}
			perDomain := uint64(segPages*4096) >> shift
			if perDomain == 0 {
				perDomain = 1
			}
			t.AddRow(fmt.Sprintf("%d KB", (uint64(1)<<shift)/1024), perDomain,
				h.ctrs.Get("plb.miss"), h.plb.Len())
			p.ObserveCounters(h.ctrs.Snapshot())
		}
		t.AddNote("a 1 MB protection page maps the whole segment with one entry per domain (§4.3)")
		t.AddNote("duplication across domains remains, but over far fewer entries")
		tables = append(tables, t)
	}

	// (c) Kernel-level super-page segments: the full system path — a
	// shared read-only library attached by several domains, with and
	// without super-page protection entries.
	{
		t := stats.NewTable("E8.3 Kernel-level super-page segments (256 KB shared library, 4 domains)",
			"protection", "PLB refill traps (warm all pages)", "resident PLB entries", "machine cycles")
		const libPages = 64 // 256 KB
		for _, variant := range []struct {
			name  string
			shift uint
		}{
			{"4 KB base pages", 0},
			{"256 KB super-page", 18},
		} {
			cfg := kernel.DefaultConfig(kernel.ModelDomainPage)
			if variant.shift != 0 {
				cfg.PLB.PLB.Shifts = []uint{addr.BasePageShift, variant.shift}
			}
			k := kernel.New(cfg)
			lib := k.CreateSegment(libPages, kernel.SegmentOptions{
				Name:      "libc",
				ProtShift: variant.shift,
			})
			domains := make([]*kernel.Domain, 4)
			for i := range domains {
				domains[i] = k.CreateDomain()
				k.Attach(domains[i], lib, addr.RX)
			}
			mc := k.Machine().Counters()
			before := mc.Snapshot()
			for _, d := range domains {
				for p := uint64(0); p < libPages; p++ {
					if err := k.Touch(d, lib.PageVA(p), addr.Fetch); err != nil {
						return nil, err
					}
				}
			}
			diff := mc.Diff(before)
			t.AddRow(variant.name, diff.Get("trap.plb_refill"),
				k.Machine().(*machine.PLBMachine).PLB().Len(), k.Machine().Cycles())
			p.ObserveKernel(k)
		}
		t.AddNote("one super-page entry per domain replaces 64 base entries each (§4.3)")
		tables = append(tables, t)
	}

	return tables, nil
}

// plbHarness bundles a PLB with its counters for structural experiments.
type plbHarness struct {
	plb  *plb.PLB
	ctrs *stats.Counters
}

func plbNew(shift uint) *plbHarness {
	ctrs := &stats.Counters{}
	return &plbHarness{
		plb: plb.MustNew(plb.Config{
			Assoc:  assoc.Config{Sets: 1, Ways: 4096, Policy: assoc.LRU},
			Shifts: []uint{shift},
		}, ctrs, "plb"),
		ctrs: ctrs,
	}
}
