package repro

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/plb"
	"repro/internal/stats"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// accessMachine is one bare machine of an organization over an open OS,
// every page in one group, for the access-path gates and micro-benchmarks.
type accessMachine struct {
	name string
	m    machine.Machine
	// misses names the counter of the 128-entry structure the overflow
	// cycle overflows.
	misses string
}

func accessMachines() []accessMachine {
	geo := addr.BaseGeometry()
	return []accessMachine{
		{"PLBMachine", machine.MustPLB(machine.DefaultPLBConfig(), trace.NewOpenOS(geo, nil)), "plb.miss"},
		{"PGMachine", machine.NewPG(machine.DefaultPGConfig(),
			trace.NewOpenOS(geo, func(addr.VPN) addr.GroupID { return 1 })), "pgtlb.miss"},
		{"ConventionalMachine", machine.NewConventional(machine.DefaultConvConfig(), trace.NewOpenOS(geo, nil)), "tlb.miss"},
		{"FlushMachine", machine.NewFlush(machine.DefaultConvConfig(), trace.NewOpenOS(geo, nil)), "tlb.miss"},
	}
}

// The overflow cycle: overflowDomains domains in turn, each touching
// overflowPages pages of its own. Its 256 (domain, page) pairs and 256
// pages are twice what the default 128-entry PLB, TLBs and page-group TLB
// hold, so under LRU every access misses, evicts and refills.
const (
	overflowDomains = 4
	overflowPages   = 64
	overflowCycle   = overflowDomains * overflowPages
)

// overflowAccess makes the i-th access of the overflow cycle, switching
// domain at the start of each domain's run.
func overflowAccess(m machine.Machine, i int) cpu.Outcome {
	p := i % overflowCycle
	if p%overflowPages == 0 {
		m.SwitchDomain(addr.DomainID(1 + p/overflowPages))
	}
	return m.Access(addr.VA(1)<<32+addr.BaseGeometry().Base(addr.VPN(p)), addr.Load)
}

// TestAccessPathZeroAllocs guards the de-allocated reference path: a warm
// Access, and an Access that misses every structure and evicts an entry
// to refill it, must not allocate on any machine organization. The
// counter-handle registry resolves every name at construction, the PLB's
// single-size lookup builds its probe key on the stack, and every
// associative structure replaces in place within its slab, so any
// allocation here is a regression the benchmarks would only show as noise.
func TestAccessPathZeroAllocs(t *testing.T) {
	for _, tc := range accessMachines() {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			t.Run("warm", func(t *testing.T) {
				m.SwitchDomain(1)
				va := addr.VA(1) << 32
				if out := m.Access(va, addr.Load); out.Fault != cpu.FaultNone {
					t.Fatal("warm-up access faulted")
				}
				allocs := testing.AllocsPerRun(1000, func() {
					if out := m.Access(va, addr.Load); out.Fault != cpu.FaultNone {
						t.Fatal("fault on warm access")
					}
				})
				if allocs != 0 {
					t.Fatalf("%s.Access hit allocates %.1f allocs/op, want 0", tc.name, allocs)
				}
			})
			t.Run("overflow", func(t *testing.T) {
				// The first cycle maps every page in the open OS; the
				// second shows that every access misses.
				for run := 0; run < 2; run++ {
					before := m.Counters().Get(tc.misses)
					for i := 0; i < overflowCycle; i++ {
						if out := overflowAccess(m, i); out.Fault != cpu.FaultNone {
							t.Fatal("warm-up access faulted")
						}
					}
					if n := m.Counters().Get(tc.misses) - before; run == 1 && n != overflowCycle {
						t.Fatalf("%s: %d of %d accesses missed, want all", tc.misses, n, overflowCycle)
					}
				}
				allocs := testing.AllocsPerRun(20, func() {
					for i := 0; i < overflowCycle; i++ {
						if out := overflowAccess(m, i); out.Fault != cpu.FaultNone {
							t.Fatal("fault on overflowing access")
						}
					}
				})
				if allocs != 0 {
					t.Fatalf("%s: an overflow cycle allocates %.1f times, want 0", tc.name, allocs)
				}
			})
		})
	}
}

// TestDomainPurgeZeroAllocs guards the domain-keyed purges, which walk
// only the purged domain's chain: once a default PLB and ASID TLB are
// full of eight domains' entries, purging a domain and refilling its
// pages must not allocate.
func TestDomainPurgeZeroAllocs(t *testing.T) {
	const domains, pages = 8, 16
	var ctrs stats.Counters
	p := plb.MustNew(plb.DefaultConfig(), &ctrs, "plb")
	as := tlb.NewASID(machine.DefaultConvConfig().TLB, &ctrs, "tlb")
	geo := addr.BaseGeometry()
	fill := func(d int) {
		for i := range pages {
			vpn := addr.VPN(1<<20 + i)
			p.Insert(addr.DomainID(d), geo.Base(vpn), geo.Shift(), addr.RW)
			as.Insert(tlb.ASIDKey{AS: addr.ASID(d), VPN: vpn}, tlb.ASIDEntry{PFN: addr.PFN(i), Rights: addr.RW})
		}
	}
	for d := 1; d <= domains; d++ {
		fill(d)
	}
	cycle := func() {
		for d := 1; d <= domains; d++ {
			if n := p.PurgeDomain(addr.DomainID(d)); n != pages {
				t.Fatalf("PLB PurgeDomain(%d) removed %d, want %d", d, n, pages)
			}
			if n := as.PurgeOwner(uint32(addr.ASID(d))); n != pages {
				t.Fatalf("ASID TLB PurgeOwner(%d) removed %d, want %d", d, n, pages)
			}
			fill(d)
		}
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a purge-and-refill cycle of %d domains allocates %.1f times, want 0", domains, allocs)
	}
}
