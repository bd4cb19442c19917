package repro

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/trace"
	"repro/internal/workload/checkpoint"
	"repro/internal/workload/compress"
	"repro/internal/workload/dsm"
	"repro/internal/workload/gc"
	"repro/internal/workload/rpc"
	"repro/internal/workload/txn"
)

// --- Experiment regeneration benches: one per table/figure experiment.
// Each iteration regenerates the experiment's tables exactly as
// cmd/tablegen prints them, so `go test -bench` doubles as a full
// reproduction run.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := core.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1Table1(b *testing.B)       { benchExperiment(b, "E1") }
func BenchmarkE2PLB(b *testing.B)          { benchExperiment(b, "E2") }
func BenchmarkE3PageGroup(b *testing.B)    { benchExperiment(b, "E3") }
func BenchmarkE4VirtualCache(b *testing.B) { benchExperiment(b, "E4") }
func BenchmarkE5TLBDup(b *testing.B)       { benchExperiment(b, "E5") }
func BenchmarkE6Switch(b *testing.B)       { benchExperiment(b, "E6") }
func BenchmarkE7AMAT(b *testing.B)         { benchExperiment(b, "E7") }
func BenchmarkE8Granularity(b *testing.B)  { benchExperiment(b, "E8") }
func BenchmarkE9Paging(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkE10Mixed(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE13Fault(b *testing.B)       { benchExperiment(b, "E13") }

// --- Workload benches with simulated-cycle metrics: each reports
// sim-cycles/op alongside wall time, so regressions in either the
// simulator or the modeled system are visible.

func BenchmarkWorkloadGC(b *testing.B) {
	for _, m := range core.Models {
		b.Run(m.String(), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				k := kernel.New(kernel.DefaultConfig(m))
				rep, err := gc.Run(k, gc.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				cycles = rep.MachineCycles + rep.KernelCycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

func BenchmarkWorkloadTxn(b *testing.B) {
	for _, m := range core.Models {
		b.Run(m.String(), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				k := kernel.New(kernel.DefaultConfig(m))
				rep, err := txn.Run(k, txn.DefaultConfig(m))
				if err != nil {
					b.Fatal(err)
				}
				cycles = rep.MachineCycles + rep.KernelCycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

func BenchmarkWorkloadRPC(b *testing.B) {
	for _, m := range core.Models {
		b.Run(m.String(), func(b *testing.B) {
			var perCall float64
			for i := 0; i < b.N; i++ {
				k := kernel.New(kernel.DefaultConfig(m))
				rep, err := rpc.Run(k, rpc.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				perCall = rep.CyclesPerCall
			}
			b.ReportMetric(perCall, "sim-cycles/call")
		})
	}
}

// --- Hot-path micro-benches on the simulator itself.

func BenchmarkPLBMachineAccessWarm(b *testing.B) {
	os := trace.NewOpenOS(addr.BaseGeometry(), nil)
	m := machine.MustPLB(machine.DefaultPLBConfig(), os)
	m.SwitchDomain(1)
	va := addr.VA(1) << 32
	m.Access(va, addr.Load) // warm everything
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := m.Access(va, addr.Load); out.Fault != cpu.FaultNone {
			b.Fatal("fault on warm access")
		}
	}
}

// BenchmarkMachineAccessOverflow measures the fill path that
// access-replay exercises: every access misses its organization's
// 128-entry PLB or TLB, evicts an entry and refills it (overflowAccess).
func BenchmarkMachineAccessOverflow(b *testing.B) {
	for _, tc := range accessMachines() {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < overflowCycle; i++ {
				overflowAccess(tc.m, i) // map every page in the open OS
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out := overflowAccess(tc.m, i); out.Fault != cpu.FaultNone {
					b.Fatal("fault on overflowing access")
				}
			}
		})
	}
}

func BenchmarkPGMachineAccessWarm(b *testing.B) {
	os := trace.NewOpenOS(addr.BaseGeometry(), func(addr.VPN) addr.GroupID { return 1 })
	m := machine.NewPG(machine.DefaultPGConfig(), os)
	m.SwitchDomain(1)
	va := addr.VA(1) << 32
	m.Access(va, addr.Load)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := m.Access(va, addr.Load); out.Fault != cpu.FaultNone {
			b.Fatal("fault on warm access")
		}
	}
}

func BenchmarkDomainSwitch(b *testing.B) {
	for _, mk := range []struct {
		name string
		m    machine.Machine
	}{
		{"plb", machine.MustPLB(machine.DefaultPLBConfig(), trace.NewOpenOS(addr.BaseGeometry(), nil))},
		{"page-group", machine.NewPG(machine.DefaultPGConfig(), trace.NewOpenOS(addr.BaseGeometry(), nil))},
	} {
		b.Run(mk.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mk.m.SwitchDomain(addr.DomainID(1 + i%2))
			}
		})
	}
}

func BenchmarkKernelTouchWarm(b *testing.B) {
	for _, m := range core.Models {
		b.Run(m.String(), func(b *testing.B) {
			k := kernel.New(kernel.DefaultConfig(m))
			d := k.CreateDomain()
			s := k.CreateSegment(1, kernel.SegmentOptions{})
			k.Attach(d, s, addr.RW)
			if err := k.Touch(d, s.Base(), addr.Store); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := k.Touch(d, s.Base(), addr.Load); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTraceReplay(b *testing.B) {
	recs := trace.NewGen(1, addr.BaseGeometry()).SharedMix(trace.DefaultSharedMix())
	b.Run("plb", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := machine.MustPLB(machine.DefaultPLBConfig(), trace.NewOpenOS(addr.BaseGeometry(), nil))
			if _, err := trace.Run(m, recs); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(recs)))
	})
	b.Run("page-group", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := machine.NewPG(machine.DefaultPGConfig(), trace.NewOpenOS(addr.BaseGeometry(), nil))
			if _, err := trace.Run(m, recs); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(recs)))
	})
}

func BenchmarkWorkloadDSM(b *testing.B) {
	for _, mgr := range []dsm.ManagerKind{dsm.CentralManager, dsm.DistributedManager} {
		b.Run(mgr.String(), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := dsm.DefaultConfig(kernel.ModelDomainPage)
				cfg.Manager = mgr
				rep, err := dsm.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles = rep.MachineCycles + rep.NetCycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

func BenchmarkWorkloadCheckpoint(b *testing.B) {
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := kernel.New(kernel.DefaultConfig(kernel.ModelDomainPage))
			if _, err := checkpoint.Run(k, checkpoint.DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := kernel.New(kernel.DefaultConfig(kernel.ModelDomainPage))
			cfg := checkpoint.DefaultConfig()
			cfg.Checkpoints = 3
			cfg.WritesBetween = 40
			if _, err := checkpoint.RunIncremental(k, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWorkloadCompress(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := kernel.New(kernel.DefaultConfig(kernel.ModelDomainPage))
		if _, err := compress.Run(k, compress.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConventionalTouchWarm(b *testing.B) {
	k := kernel.New(kernel.DefaultConfig(kernel.ModelConventional))
	d := k.CreateDomain()
	s := k.CreateSegment(1, kernel.SegmentOptions{})
	k.Attach(d, s, addr.RW)
	if err := k.Touch(d, s.Base(), addr.Store); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.Touch(d, s.Base(), addr.Load); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Suite-level benches: the parallel harness end to end. On multicore
// hosts the parallel run should beat serial by roughly min(cores, 13)/13;
// output is byte-identical either way (see core.RunExperiments).

func benchRunAll(b *testing.B, parallelism int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum := core.RunExperiments(core.All(), parallelism)
		if len(sum.Failures) > 0 {
			b.Fatal(sum.Failures)
		}
		b.ReportMetric(float64(sum.SimCycles), "sim-cycles")
	}
}

func BenchmarkRunAllSerial(b *testing.B)    { benchRunAll(b, 1) }
func BenchmarkRunAllParallel4(b *testing.B) { benchRunAll(b, 4) }
