package repro

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/machine"
	"repro/internal/trace"
)

// TestAccessPathZeroAllocs guards the de-allocated reference path: a warm
// Access on every machine organization must not allocate. The
// counter-handle registry resolves every name at construction, and the
// PLB's single-size lookup builds its probe key on the stack, so any
// allocation here is a regression the benchmarks would only show as noise.
func TestAccessPathZeroAllocs(t *testing.T) {
	geo := addr.BaseGeometry()
	for _, tc := range []struct {
		name string
		m    machine.Machine
	}{
		{"PLBMachine", machine.MustPLB(machine.DefaultPLBConfig(), trace.NewOpenOS(geo, nil))},
		{"PGMachine", machine.NewPG(machine.DefaultPGConfig(),
			trace.NewOpenOS(geo, func(addr.VPN) addr.GroupID { return 1 }))},
		{"ConventionalMachine", machine.NewConventional(machine.DefaultConvConfig(), trace.NewOpenOS(geo, nil))},
		{"FlushMachine", machine.NewFlush(machine.DefaultConvConfig(), trace.NewOpenOS(geo, nil))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			m.SwitchDomain(1)
			va := addr.VA(1) << 32
			if out := m.Access(va, addr.Load); !out.OK() {
				t.Fatal("warm-up access faulted")
			}
			allocs := testing.AllocsPerRun(1000, func() {
				if out := m.Access(va, addr.Load); !out.OK() {
					t.Fatal("fault on warm access")
				}
			})
			if allocs != 0 {
				t.Fatalf("%s.Access hit allocates %.1f allocs/op, want 0", tc.name, allocs)
			}
		})
	}
}
