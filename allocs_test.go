package repro

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/machine"
	"repro/internal/trace"
)

// TestAccessPathZeroAllocs guards the de-allocated reference path: a warm
// Access on either single-address-space machine must not allocate. The
// counter-handle registry resolves every name at construction, and the
// PLB's single-size lookup builds its probe key on the stack, so any
// allocation here is a regression the benchmarks would only show as noise.
func TestAccessPathZeroAllocs(t *testing.T) {
	t.Run("PLBMachine", func(t *testing.T) {
		os := trace.NewOpenOS(addr.BaseGeometry(), nil)
		m := machine.MustPLB(machine.DefaultPLBConfig(), os)
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
			t.Fatalf("PLBMachine.Access hit allocates %.1f allocs/op, want 0", allocs)
		}
	})
	t.Run("PGMachine", func(t *testing.T) {
		os := trace.NewOpenOS(addr.BaseGeometry(), func(addr.VPN) addr.GroupID { return 1 })
		m := machine.NewPG(machine.DefaultPGConfig(), os)
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
			t.Fatalf("PGMachine.Access hit allocates %.1f allocs/op, want 0", allocs)
		}
	})
}
