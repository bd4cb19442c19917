package core

import (
	"repro/internal/addr"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workload/checkpoint"
	"repro/internal/workload/rpc"
	"repro/internal/workload/txn"
)

// E11Conventional quantifies Section 3.1's warning: a conventional
// multiple-address-space architecture *can* run a single address space
// OS, but pays for it — shared pages duplicate one TLB entry per domain,
// segment-wide protection changes become per-page loops, and mapping
// changes must hunt down every space's duplicates. The same kernel runs
// on all three machines.
func E11Conventional(p *Probe) ([]*stats.Table, error) {
	var tables []*stats.Table
	models := []kernel.Model{kernel.ModelDomainPage, kernel.ModelPageGroup, kernel.ModelConventional}

	// (a) TLB duplication under kernel-managed sharing.
	{
		t := stats.NewTable("E11.1 Shared-page entry duplication (8 domains, 16-page shared segment)",
			"model", "protection entries for shared pages", "translation entries", "refill traps")
		for _, m := range models {
			k := NewSystem(m)
			seg := k.CreateSegment(16, kernel.SegmentOptions{Name: "shared"})
			domains := make([]*kernel.Domain, 8)
			for i := range domains {
				domains[i] = k.CreateDomain()
				k.Attach(domains[i], seg, addr.RW)
			}
			for _, d := range domains {
				for p := uint64(0); p < 16; p++ {
					if err := k.Touch(d, seg.PageVA(p), addr.Store); err != nil {
						return nil, err
					}
				}
			}
			mc := k.Machine().Counters()
			var prot, trans int
			switch mm := k.Machine().(type) {
			case *machine.PLBMachine:
				prot = mm.PLB().Len()
				trans = mm.TLB().Len()
			case *machine.PGMachine:
				prot = mm.TLB().Len()
				trans = prot // combined entries
			case *machine.ConventionalMachine:
				for p := uint64(0); p < 16; p++ {
					prot += mm.TLB().ResidentFor(seg.PageVPN(p))
				}
				trans = mm.TLB().Len()
			}
			refills := mc.Get("trap.plb_refill") + mc.Get("trap.pg_refill") + mc.Get("trap.tlb_refill")
			t.AddRow(m.String(), prot, trans, refills)
			p.ObserveKernel(k)
		}
		t.AddNote("conventional: one combined entry per (space, page); PLB: per-domain protection but shared translation;")
		t.AddNote("page-group: one combined entry per page serves all domains")
		tables = append(tables, t)
	}

	// (b) Segment-wide protection change cost (checkpoint restrict).
	{
		t := stats.NewTable("E11.2 Checkpoint restrict cost (segment-wide rights change)",
			"model", "restrict cycles", "per-page hardware ops")
		for _, m := range models {
			k := NewSystem(m)
			cfg := checkpoint.DefaultConfig()
			cfg.Checkpoints = 1
			rep, err := checkpoint.Run(k, cfg)
			if err != nil {
				return nil, err
			}
			t.AddRow(m.String(), rep.RestrictCycles, k.Counters().Get("conv.per_page_rights_ops"))
			p.ObserveKernel(k)
		}
		t.AddNote("page-group: one write-disable flip; PLB: one scan; conventional: one TLB op per page per change")
		tables = append(tables, t)
	}

	// (c) RPC and transactions end to end on all three.
	{
		t := stats.NewTable("E11.3 RPC and transactional workloads across machines",
			"model", "rpc cycles/call", "txn machine cycles")
		for _, m := range models {
			k := NewSystem(m)
			rpcRep, err := rpc.Run(k, rpc.DefaultConfig())
			if err != nil {
				return nil, err
			}
			k2 := NewSystem(m)
			txnRep, err := txn.Run(k2, txn.DefaultConfig(m))
			if err != nil {
				return nil, err
			}
			t.AddRow(m.String(), rpcRep.CyclesPerCall, txnRep.MachineCycles)
			p.ObserveKernel(k)
			p.ObserveKernel(k2)
		}
		t.AddNote("the same kernel and workloads run unmodified on all three machines")
		t.AddNote("conventional can match domain-page when working sets are small: its penalty is")
		t.AddNote("duplication capacity (E11.1) and maintenance (E11.2), not per-access latency (§3.1)")
		tables = append(tables, t)
	}

	return tables, nil
}
