package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/assoc"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/plb"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/workload/rpc"
)

// mixTrace builds the standard multiprogrammed trace for machine-level
// experiments.
func mixTrace(seed int64, cfg trace.SharedMixConfig) []trace.Record {
	g := trace.NewGen(seed, addr.BaseGeometry())
	return g.SharedMix(cfg)
}

func pct(part, whole uint64) string { return stats.Pct(part, whole) }

// E2PLB characterizes the protection lookaside buffer (Figure 1):
// hit ratio vs capacity, per-domain entry duplication under sharing, and
// the architectural entry-size comparison of Section 4.
func E2PLB(p *Probe) ([]*stats.Table, error) {
	var tables []*stats.Table

	// (a) Capacity sweep under the standard multiprogrammed mix.
	{
		cfg := trace.DefaultSharedMix()
		recs := mixTrace(42, cfg)
		t := stats.NewTable("E2.1 PLB hit ratio vs capacity (SharedMix trace)",
			"plb entries", "hits", "misses", "hit ratio", "refill traps")
		for _, entries := range []int{16, 32, 64, 128, 256, 512} {
			mcfg := machine.DefaultPLBConfig()
			mcfg.PLB.Assoc = assoc.Config{Sets: 1, Ways: entries, Policy: assoc.LRU}
			m := machine.MustPLB(mcfg, trace.NewOpenOS(addr.BaseGeometry(), nil))
			res, err := runTrace(p, m, recs)
			if err != nil {
				return nil, err
			}
			hits, misses := res.Counters["plb.hit"], res.Counters["plb.miss"]
			t.AddRow(entries, hits, misses, pct(hits, hits+misses), res.Counters[machine.CtrTrapPLBRefill])
		}
		t.AddNote("trace: %d domains, %d private + %d shared pages, quantum %d, %d records",
			cfg.Domains, cfg.PrivatePages, cfg.SharedPages, cfg.Quantum, cfg.Records)
		tables = append(tables, t)
	}

	// (b) Sharing duplication: the PLB needs one entry per (domain,page);
	// the page-group TLB needs one per page.
	{
		t := stats.NewTable("E2.2 Entry duplication vs sharing degree (fully shared region)",
			"domains", "PLB entries resident", "PG-TLB entries resident", "PLB misses", "PG-TLB misses")
		for _, nd := range []int{1, 2, 4, 8} {
			cfg := trace.DefaultSharedMix()
			cfg.Domains = nd
			cfg.SharedPercent = 100 // everything is shared
			cfg.SharedPages = 16
			cfg.Records = 10000
			recs := mixTrace(7, cfg)

			plbM := machine.MustPLB(machine.DefaultPLBConfig(), trace.NewOpenOS(addr.BaseGeometry(), nil))
			if _, err := runTrace(p, plbM, recs); err != nil {
				return nil, err
			}
			pgM := machine.NewPG(machine.DefaultPGConfig(), trace.NewOpenOS(addr.BaseGeometry(), nil))
			resPG, err := runTrace(p, pgM, recs)
			if err != nil {
				return nil, err
			}
			t.AddRow(nd, plbM.PLB().Len(), pgM.TLB().Len(),
				plbM.Counters().Get("plb.miss"), resPG.Counters["pgtlb.miss"])
		}
		t.AddNote("16 shared pages referenced by all domains; PLB residency grows with domains, PG-TLB stays flat")
		tables = append(tables, t)
	}

	// (c) Architectural entry sizes (Figure 1 field widths, §4).
	{
		plbBits := plb.EntryBits(addr.VABits, addr.BasePageShift, addr.DomainBits, addr.RightsBits)
		pgBits := tlb.EntryBits(addr.VABits, addr.BasePageShift, addr.PABits, 16+addr.RightsBits)
		t := stats.NewTable("E2.3 Entry size and equal-silicon capacity (§4)",
			"structure", "entry bits", "entries in 16K tag bits")
		t.AddRow("PLB entry (VPN tag + PD-ID + rights)", plbBits, 16384/plbBits)
		t.AddRow("page-group TLB entry (VPN tag + PFN + AID + rights)", pgBits, 16384/pgBits)
		t.AddNote("PLB entries are %.0f%% the size of combined TLB entries (paper: ~75%%)",
			100*float64(plbBits)/float64(pgBits))
		tables = append(tables, t)
	}

	// (d) Ablation A1: PLB replacement policy under the multiprogrammed
	// mix — LRU exploits per-quantum locality; FIFO and random do not.
	{
		cfg := trace.DefaultSharedMix()
		recs := mixTrace(17, cfg)
		t := stats.NewTable("E2.4 PLB replacement policy (ablation A1, 64-entry PLB)",
			"policy", "hits", "misses", "hit ratio")
		for _, pol := range []assoc.Policy{assoc.LRU, assoc.FIFO, assoc.Random} {
			mcfg := machine.DefaultPLBConfig()
			mcfg.PLB.Assoc = assoc.Config{Sets: 1, Ways: 64, Policy: pol, Seed: 3}
			m := machine.MustPLB(mcfg, trace.NewOpenOS(addr.BaseGeometry(), nil))
			res, err := runTrace(p, m, recs)
			if err != nil {
				return nil, err
			}
			hits, misses := res.Counters["plb.hit"], res.Counters["plb.miss"]
			t.AddRow(pol.String(), hits, misses, pct(hits, hits+misses))
		}
		t.AddNote("a 64-entry PLB under the 96-pair working set: replacement quality decides the miss rate")
		t.AddNote("random can beat LRU here: round-robin quanta cycle a set larger than capacity, LRU's worst case")
		tables = append(tables, t)
	}

	// (e) Ablation A5: detach by precise scan vs full PLB purge. A
	// bystander domain keeps working while another domain churns through
	// attach/detach: the purge destroys the bystander's resident rights
	// on every detach.
	{
		t := stats.NewTable("E2.5 Detach implementation (ablation A5, with an active bystander)",
			"policy", "detaches", "entries inspected", "bystander refill faults", "machine cycles")
		for _, pol := range []struct {
			name string
			p    kernel.DetachPolicy
		}{
			{"scan (precise)", kernel.DetachScan},
			{"full purge (flash clear)", kernel.DetachPurgeAll},
		} {
			cfg := kernel.DefaultConfig(kernel.ModelDomainPage)
			cfg.PLBDetach = pol.p
			k := kernel.New(cfg)
			churner := k.CreateDomain()
			bystander := k.CreateDomain()
			bseg := k.CreateSegment(8, kernel.SegmentOptions{Name: "bystander-heap"})
			k.Attach(bystander, bseg, addr.RW)
			// Warm the bystander's rights.
			for p := uint64(0); p < 8; p++ {
				if err := k.Touch(bystander, bseg.PageVA(p), addr.Store); err != nil {
					return nil, err
				}
			}
			mc := k.Machine().Counters()
			before := mc.Snapshot()
			const rounds = 16
			for i := 0; i < rounds; i++ {
				seg := k.CreateSegment(4, kernel.SegmentOptions{})
				k.Attach(churner, seg, addr.RW)
				for p := uint64(0); p < 4; p++ {
					if err := k.Touch(churner, seg.PageVA(p), addr.Load); err != nil {
						return nil, err
					}
				}
				if err := k.Detach(churner, seg); err != nil {
					return nil, err
				}
				// The bystander keeps touching its warm working set.
				for p := uint64(0); p < 8; p++ {
					if err := k.Touch(bystander, bseg.PageVA(p), addr.Load); err != nil {
						return nil, err
					}
				}
			}
			diff := mc.Diff(before)
			t.AddRow(pol.name, rounds, diff.Get("plb.inspected"),
				diff.Get("trap.plb_refill"), k.Machine().Cycles())
			p.ObserveKernel(k)
		}
		t.AddNote("the purge avoids the scan but forces bystanders to re-fault their rights after every detach (§4.1.1)")
		tables = append(tables, t)
	}

	// (f) Equal-silicon comparison: spend the same tag-array budget on a
	// PLB (230 smaller entries) or a combined page-group TLB (172 larger
	// entries) and measure protection miss rates under the same trace —
	// the comparison Wilkes & Sears frame and Section 4 sets up.
	{
		cfg := trace.DefaultSharedMix()
		cfg.Domains = 8
		cfg.SharedPages = 24
		cfg.SharedPercent = 40
		cfg.Records = 30000
		recs := mixTrace(23, cfg)

		plbBits := plb.EntryBits(addr.VABits, addr.BasePageShift, addr.DomainBits, addr.RightsBits)
		pgBits := tlb.EntryBits(addr.VABits, addr.BasePageShift, addr.PABits, 16+addr.RightsBits)
		const budget = 16384
		plbEntries, pgEntries := budget/plbBits, budget/pgBits

		// Working set: 8 x (16 private + 24 shared) = 320 (domain, page)
		// pairs for the PLB (over its 230 entries) but only 152 distinct
		// pages for the shared TLB (under its 172) — duplication is what
		// spends the PLB's size advantage.
		t := stats.NewTable("E2.6 Equal-silicon protection structures (16K tag bits, 8 domains, 40% shared)",
			"structure", "entries", "protection misses", "miss ratio")
		mcfg := machine.DefaultPLBConfig()
		mcfg.PLB.Assoc = assoc.Config{Sets: 1, Ways: plbEntries, Policy: assoc.LRU}
		mp := machine.MustPLB(mcfg, trace.NewOpenOS(addr.BaseGeometry(), nil))
		resP, err := runTrace(p, mp, recs)
		if err != nil {
			return nil, err
		}
		pm, ph := resP.Counters["plb.miss"], resP.Counters["plb.hit"]
		t.AddRow(fmt.Sprintf("PLB (%d-bit entries)", plbBits), plbEntries, pm, pct(pm, pm+ph))

		gcfg := machine.DefaultPGConfig()
		gcfg.TLB = assoc.Config{Sets: 1, Ways: pgEntries, Policy: assoc.LRU}
		mg := machine.NewPG(gcfg, trace.NewOpenOS(addr.BaseGeometry(), nil))
		resG, err := runTrace(p, mg, recs)
		if err != nil {
			return nil, err
		}
		gm, gh := resG.Counters["pgtlb.miss"], resG.Counters["pgtlb.hit"]
		t.AddRow(fmt.Sprintf("page-group TLB (%d-bit entries)", pgBits), pgEntries, gm, pct(gm, gm+gh))
		t.AddNote("the PLB fits 34%% more entries in the same silicon, but needs one per (domain, shared page);")
		t.AddNote("the combined TLB holds fewer, larger entries, each serving every domain — sharing decides")
		tables = append(tables, t)
	}

	return tables, nil
}

// E3PageGroup characterizes the page-group check structure (Figure 2):
// group-cache capacity sweeps and the PID-register-file comparison.
func E3PageGroup(p *Probe) ([]*stats.Table, error) {
	var tables []*stats.Table

	// Fine-grained groups: 4 pages per group, so each domain's quantum
	// touches ~6 groups (4 private + 2 shared) — more than the PA-RISC's
	// four PID registers can hold.
	groupOf := func(vpn addr.VPN) addr.GroupID {
		return addr.GroupID(uint64(vpn)/4%64) + 1
	}
	cfg := trace.DefaultSharedMix()
	recs := mixTrace(11, cfg)

	{
		t := stats.NewTable("E3.1 Page-group cache size sweep (LRU cache, SharedMix trace)",
			"pg-cache entries", "pg hits", "pg misses", "hit ratio", "refill traps")
		for _, entries := range []int{2, 4, 8, 16, 32} {
			mcfg := machine.DefaultPGConfig()
			mcfg.CheckerEntries = entries
			m := machine.NewPG(mcfg, trace.NewOpenOS(addr.BaseGeometry(), groupOf))
			res, err := runTrace(p, m, recs)
			if err != nil {
				return nil, err
			}
			hits, misses := res.Counters["pgc.hit"], res.Counters["pgc.miss"]
			t.AddRow(entries, hits, misses, pct(hits, hits+misses), res.Counters[machine.CtrTrapPGRefill])
		}
		t.AddNote("4 pages per page-group; the cache is purged on every domain switch")
		tables = append(tables, t)
	}

	{
		t := stats.NewTable("E3.2 PID register file vs Wilkes-Sears LRU cache (ablation A3)",
			"checker", "entries", "pg misses", "refill traps", "cycles")
		for _, variant := range []struct {
			name    string
			kind    machine.PGCheckerKind
			entries int
		}{
			{"PID registers (PA-RISC 1.1)", machine.PGCheckerPIDRegisters, 4},
			{"LRU cache, same capacity", machine.PGCheckerLRUCache, 4},
			{"LRU cache, 16 entries", machine.PGCheckerLRUCache, 16},
		} {
			mcfg := machine.DefaultPGConfig()
			mcfg.Checker = variant.kind
			mcfg.CheckerEntries = variant.entries
			m := machine.NewPG(mcfg, trace.NewOpenOS(addr.BaseGeometry(), groupOf))
			res, err := runTrace(p, m, recs)
			if err != nil {
				return nil, err
			}
			t.AddRow(variant.name, variant.entries, res.Counters["pgc.miss"],
				res.Counters[machine.CtrTrapPGRefill], res.Cycles)
		}
		tables = append(tables, t)
	}

	return tables, nil
}

// E4VirtualCache reproduces Section 2.2: a single address space keeps a
// virtually indexed, virtually tagged cache without flushes, ASID tags or
// synonym hazards; multiple address spaces must pick their poison.
func E4VirtualCache(p *Probe) ([]*stats.Table, error) {
	// Cache-resident working sets, so the cache effects under comparison
	// (flush losses, synonym duplication) are not drowned by capacity
	// misses.
	cfg := trace.DefaultSharedMix()
	cfg.PrivatePages = 2
	cfg.SharedPages = 2
	cfg.OffsetWords = 0
	recs := mixTrace(99, cfg)
	t := stats.NewTable("E4 Virtually indexed caches across organizations (SharedMix trace)",
		"system", "cache miss ratio", "flushed lines", "flush writebacks", "resident synonyms", "switch cycles")

	type row struct {
		name string
		m    machine.Machine
		syn  func() int
	}
	sasos := machine.MustPLB(machine.DefaultPLBConfig(), trace.NewOpenOS(addr.BaseGeometry(), nil))
	conv := machine.NewConventional(machine.DefaultConvConfig(), trace.NewOpenOS(addr.BaseGeometry(), nil))
	vipt := machine.NewConventional(machine.DefaultVIPTConvConfig(), trace.NewOpenOS(addr.BaseGeometry(), nil))
	flush := machine.NewFlush(machine.DefaultConvConfig(), trace.NewOpenOS(addr.BaseGeometry(), nil))
	geo := addr.BaseGeometry()
	rows := []row{
		{"single address space (PLB, no flush, no ASID)", sasos, func() int { return sasos.Cache().SynonymLines(geo) }},
		{"multi-AS, ASID-tagged virtual cache", conv, func() int { return conv.Cache().SynonymLines(geo) }},
		{"multi-AS, VIPT (16-way: index must fit page offset)", vipt, func() int { return 0 }},
		{"multi-AS, flush on every switch (i860)", flush, func() int { return flush.Cache().SynonymLines(geo) }},
	}
	for _, r := range rows {
		res, err := runTrace(p, r.m, recs)
		if err != nil {
			return nil, err
		}
		miss, hit := res.Counters["cache.miss"], res.Counters["cache.hit"]
		t.AddRow(r.name, pct(miss, miss+hit), res.Counters["cache.flushed_lines"],
			res.Counters["cache.flush_writebacks"], r.syn(), res.Counters[machine.CtrSwitchCycles])
	}
	t.AddNote("same trace on all systems; shared pages are synonym sources only under ASID tags;")
	t.AddNote("VIPT avoids all aliasing but its size is bought with associativity (footnote 3)")
	t.AddNote("trace: %d domains, quantum %d, %d%% shared references", cfg.Domains, cfg.Quantum, cfg.SharedPercent)
	return []*stats.Table{t}, nil
}

// E5TLBDup reproduces Section 3.1: an ASID-tagged combined TLB replicates
// entries for shared pages, degrading as sharing rises; the single
// address space TLB holds one entry per page regardless.
func E5TLBDup(p *Probe) ([]*stats.Table, error) {
	t := stats.NewTable("E5 TLB entry duplication vs sharing (128-entry TLBs)",
		"shared refs", "ASID-TLB miss ratio", "SAS-TLB miss ratio", "ASID entries for shared pages", "SAS entries for shared pages")
	for _, sharedPct := range []int{0, 25, 50, 75, 100} {
		cfg := trace.DefaultSharedMix()
		cfg.SharedPercent = sharedPct
		cfg.Records = 30000
		recs := mixTrace(5, cfg)

		conv := machine.NewConventional(machine.DefaultConvConfig(), trace.NewOpenOS(addr.BaseGeometry(), nil))
		resC, err := runTrace(p, conv, recs)
		if err != nil {
			return nil, err
		}
		pg := machine.NewPG(machine.DefaultPGConfig(), trace.NewOpenOS(addr.BaseGeometry(), nil))
		resP, err := runTrace(p, pg, recs)
		if err != nil {
			return nil, err
		}

		// Count resident entries for the shared region's pages.
		geo := addr.BaseGeometry()
		asidShared, sasShared := 0, 0
		for p := uint64(0); p < cfg.SharedPages; p++ {
			vpn := geo.PageNumber(cfg.SharedBase + addr.VA(p*geo.PageSize()))
			asidShared += tlb.ResidentFor(conv.TLB(), vpn)
			if _, ok := pg.TLB().Lookup(vpn); ok {
				sasShared++
			}
		}
		cMiss, cHit := resC.Counters["tlb.miss"], resC.Counters["tlb.hit"]
		pMiss, pHit := resP.Counters["pgtlb.miss"], resP.Counters["pgtlb.hit"]
		t.AddRow(fmt.Sprintf("%d%%", sharedPct), pct(cMiss, cMiss+cHit), pct(pMiss, pMiss+pHit),
			asidShared, sasShared)
	}
	t.AddNote("conventional: one TLB entry per (address space, page); single address space: one per page")
	return []*stats.Table{t}, nil
}

// E6Switch reproduces Section 4.1.4: the cost of protection domain
// switches across organizations, plus the RPC round-trip comparison with
// lazy and eager page-group reload (ablation A2).
func E6Switch(p *Probe) ([]*stats.Table, error) {
	var tables []*stats.Table

	// (a) Trace-level switch costs vs quantum.
	{
		t := stats.NewTable("E6.1 Switch cost vs scheduling quantum (SharedMix trace)",
			"quantum", "system", "switches", "switch cycles", "refills after switches", "total cycles")
		groupOf := func(vpn addr.VPN) addr.GroupID { return addr.GroupID(uint64(vpn)/32%8) + 1 }
		for _, quantum := range []int{10, 50, 100, 500} {
			cfg := trace.DefaultSharedMix()
			cfg.Quantum = quantum
			recs := mixTrace(13, cfg)

			plbM := machine.MustPLB(machine.DefaultPLBConfig(), trace.NewOpenOS(addr.BaseGeometry(), nil))
			pgM := machine.NewPG(machine.DefaultPGConfig(), trace.NewOpenOS(addr.BaseGeometry(), groupOf))
			flushM := machine.NewFlush(machine.DefaultConvConfig(), trace.NewOpenOS(addr.BaseGeometry(), nil))
			for _, sys := range []struct {
				name    string
				m       machine.Machine
				refills string
			}{
				{"PLB (PD-ID register write)", plbM, machine.CtrTrapPLBRefill},
				{"page-group (cache purge + lazy reload)", pgM, machine.CtrTrapPGRefill},
				{"flush machine (TLB+cache flush)", flushM, machine.CtrTrapTLBRefill},
			} {
				res, err := runTrace(p, sys.m, recs)
				if err != nil {
					return nil, err
				}
				t.AddRow(quantum, sys.name, res.Counters[machine.CtrSwitches],
					res.Counters[machine.CtrSwitchCycles], res.Counters[sys.refills], res.Cycles)
			}
		}
		tables = append(tables, t)
	}

	// (b) RPC round trips on the full kernels (lazy vs eager reload).
	{
		t := stats.NewTable("E6.2 RPC round-trip cost (kernel-level, ablation A2)",
			"system", "calls", "switch cycles", "protection refills", "cycles/call")
		cfg := rpc.DefaultConfig()

		dpK := NewSystem(kernel.ModelDomainPage)
		dpRep, err := rpc.Run(dpK, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow("domain-page (PLB)", dpRep.Calls, dpRep.SwitchCycles, dpRep.PLBRefills, dpRep.CyclesPerCall)
		p.ObserveKernel(dpK)

		lazyK := NewSystem(kernel.ModelPageGroup)
		lazyRep, err := rpc.Run(lazyK, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow("page-group, lazy reload", lazyRep.Calls, lazyRep.SwitchCycles, lazyRep.PGRefills, lazyRep.CyclesPerCall)
		p.ObserveKernel(lazyK)

		eagerCfg := kernel.DefaultConfig(kernel.ModelPageGroup)
		eagerCfg.PG.EagerReload = true
		eagerK := kernel.New(eagerCfg)
		eagerRep, err := rpc.Run(eagerK, cfg)
		if err != nil {
			return nil, err
		}
		t.AddRow("page-group, eager reload", eagerRep.Calls, eagerRep.SwitchCycles, eagerRep.PGRefills, eagerRep.CyclesPerCall)
		p.ObserveKernel(eagerK)
		t.AddNote("workload: %d calls, server working set of %d segments", cfg.Calls, cfg.ServerSegments)
		tables = append(tables, t)
	}

	return tables, nil
}

// E7AMAT reproduces Section 4.2: the page-group check is a second lookup
// dependent on the TLB result, so it serializes onto every reference; the
// PLB is probed in parallel with the cache and defers translation to an
// off-chip TLB touched only on cache misses. The PLB therefore wins when
// the cache hits (the common case the organization is designed for),
// while a miss-heavy stream shifts the balance toward the on-chip TLB.
func E7AMAT(p *Probe) ([]*stats.Table, error) {
	var tables []*stats.Table
	run := func(title string, cfg trace.SharedMixConfig) error {
		recs := mixTrace(21, cfg)
		t := stats.NewTable(title,
			"system", "sequential lookup cost", "cache miss ratio", "total cycles", "cycles/access")
		n := uint64(len(recs))

		plbM := machine.MustPLB(machine.DefaultPLBConfig(), trace.NewOpenOS(addr.BaseGeometry(), nil))
		res, err := runTrace(p, plbM, recs)
		if err != nil {
			return err
		}
		missRatio := pct(res.Counters["cache.miss"], res.Counters["cache.miss"]+res.Counters["cache.hit"])
		t.AddRow("PLB (parallel check, off-chip TLB on miss)", 0, missRatio,
			res.Cycles, float64(res.Cycles)/float64(n))

		for _, seq := range []uint64{1, 2, 4} {
			mcfg := machine.DefaultPGConfig()
			mcfg.Costs.OnChipLookup = seq
			m := machine.NewPG(mcfg, trace.NewOpenOS(addr.BaseGeometry(), nil))
			res, err := runTrace(p, m, recs)
			if err != nil {
				return err
			}
			missRatio := pct(res.Counters["cache.miss"], res.Counters["cache.miss"]+res.Counters["cache.hit"])
			t.AddRow(fmt.Sprintf("page-group (+%d cycle dependent check)", seq), seq, missRatio,
				res.Cycles, float64(res.Cycles)/float64(n))
		}
		t.AddNote("the sequential page-group check adds its latency to every reference (§4.2);")
		t.AddNote("the PLB instead pays an off-chip TLB probe per cache miss — hit rate decides the winner")
		tables = append(tables, t)
		return nil
	}

	// Cache-friendly stream: small working sets, whole-page use.
	friendly := trace.DefaultSharedMix()
	friendly.PrivatePages = 2
	friendly.SharedPages = 2
	friendly.OffsetWords = 0 // whole pages
	if err := run("E7.1 AMAT, cache-resident working set", friendly); err != nil {
		return nil, err
	}
	// Miss-heavy stream: the default page-rich mix.
	if err := run("E7.2 AMAT, miss-heavy working set", trace.DefaultSharedMix()); err != nil {
		return nil, err
	}
	return tables, nil
}
