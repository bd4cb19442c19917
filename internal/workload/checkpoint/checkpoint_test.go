package checkpoint

import (
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/kernel"
)

func TestCheckpointConsistentBothModels(t *testing.T) {
	for _, m := range []kernel.Model{kernel.ModelDomainPage, kernel.ModelPageGroup} {
		t.Run(m.String(), func(t *testing.T) {
			k := kernel.New(kernel.DefaultConfig(m))
			rep, err := Run(k, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Checkpoints != DefaultConfig().Checkpoints {
				t.Fatalf("checkpoints = %d", rep.Checkpoints)
			}
			if rep.COWFaults == 0 {
				t.Fatal("no copy-on-write faults despite concurrent writes")
			}
			if rep.SweepSaves == 0 {
				t.Fatal("background sweep saved nothing")
			}
			if rep.COWFaults+rep.SweepSaves < uint64(DefaultConfig().Pages) {
				t.Fatalf("saved fewer pages (%d) than the segment has (%d)",
					rep.COWFaults+rep.SweepSaves, DefaultConfig().Pages)
			}
			if rep.RestrictCycles == 0 {
				t.Fatal("restrict cost zero")
			}
		})
	}
}

func TestCheckpointModelCostShape(t *testing.T) {
	// The restrict operation is a full PLB scan under domain-page but a
	// group write-disable flip under page-group — so the page-group
	// restrict must be cheaper (Table 1 row 11).
	cost := map[kernel.Model]uint64{}
	for _, m := range []kernel.Model{kernel.ModelDomainPage, kernel.ModelPageGroup} {
		k := kernel.New(kernel.DefaultConfig(m))
		cfg := DefaultConfig()
		cfg.Checkpoints = 1
		rep, err := Run(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cost[m] = rep.RestrictCycles
	}
	if cost[kernel.ModelPageGroup] >= cost[kernel.ModelDomainPage] {
		t.Errorf("page-group restrict (%d cycles) not cheaper than domain-page (%d cycles)",
			cost[kernel.ModelPageGroup], cost[kernel.ModelDomainPage])
	}
}

func TestCheckpointNoConcurrentWrites(t *testing.T) {
	// With no writes during the checkpoint, every page is saved by the
	// sweep and no COW faults occur.
	k := kernel.New(kernel.DefaultConfig(kernel.ModelDomainPage))
	cfg := DefaultConfig()
	cfg.WritesDuring = 0
	rep, err := Run(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.COWFaults != 0 {
		t.Fatalf("COW faults = %d without concurrent writes", rep.COWFaults)
	}
	if rep.SweepSaves != uint64(cfg.Pages)*uint64(cfg.Checkpoints) {
		t.Fatalf("sweep saves = %d, want %d", rep.SweepSaves, cfg.Pages*uint64(cfg.Checkpoints))
	}
}

func TestCheckpointDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	run := func() Report {
		k := kernel.New(kernel.DefaultConfig(kernel.ModelPageGroup))
		rep, err := Run(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic:\n%+v\n%+v", a, b)
	}
}

func TestCheckpointInvalidConfig(t *testing.T) {
	k := kernel.New(kernel.DefaultConfig(kernel.ModelDomainPage))
	if _, err := Run(k, Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestIncrementalCheckpointBothModels(t *testing.T) {
	for _, m := range []kernel.Model{kernel.ModelDomainPage, kernel.ModelPageGroup} {
		t.Run(m.String(), func(t *testing.T) {
			k := kernel.New(kernel.DefaultConfig(m))
			cfg := DefaultConfig()
			cfg.Checkpoints = 4
			cfg.WritesBetween = 40 // touch a fraction of the 32 pages
			rep, err := RunIncremental(k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Checkpoints != 4 {
				t.Fatalf("checkpoints = %d", rep.Checkpoints)
			}
			if rep.FullPages != uint64(cfg.Pages) {
				t.Fatalf("full checkpoint saved %d pages, want %d", rep.FullPages, cfg.Pages)
			}
			// Incremental checkpoints must save fewer pages than full
			// ones would (dirty subset only).
			perInc := rep.IncrementalPages / uint64(rep.Checkpoints-1)
			if perInc >= uint64(cfg.Pages) {
				t.Fatalf("incremental checkpoints saved %d pages each, want < %d", perInc, cfg.Pages)
			}
			if rep.SkippedClean == 0 {
				t.Fatal("no clean pages skipped")
			}
		})
	}
}

func TestIncrementalCheaperThanFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Checkpoints = 4
	cfg.WritesBetween = 40

	kFull := kernel.New(kernel.DefaultConfig(kernel.ModelDomainPage))
	full, err := Run(kFull, cfg)
	if err != nil {
		t.Fatal(err)
	}
	kInc := kernel.New(kernel.DefaultConfig(kernel.ModelDomainPage))
	inc, err := RunIncremental(kInc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fullSaves := full.COWFaults + full.SweepSaves
	incSaves := inc.FullPages + inc.IncrementalPages
	if incSaves >= fullSaves {
		t.Fatalf("incremental saves (%d) not below full (%d)", incSaves, fullSaves)
	}
	// Stable-store traffic follows the saves.
	if inc.StableWrites >= full.StableWrites {
		t.Fatalf("incremental stable writes (%d) not below full (%d)", inc.StableWrites, full.StableWrites)
	}
	if full.StableWrites != fullSaves || inc.StableWrites != incSaves {
		t.Fatalf("stable writes (%d, %d) diverge from saves (%d, %d)",
			full.StableWrites, inc.StableWrites, fullSaves, incSaves)
	}
}

// TestIncrementalPinned holds RunIncremental's report and total cycles
// on every organization to recorded values, so a change to the save-set
// rule, the sweep or the fault path shows up as a changed number.
func TestIncrementalPinned(t *testing.T) {
	// The organization-independent fields, by WritesBetween.
	counts := map[int]Report{
		8: {Checkpoints: 4, FullPages: 32, IncrementalPages: 85, SkippedClean: 11,
			COWFaults: 33, SweepSaves: 84, StableWrites: 117, KernelCycles: 23_656_100},
		40: {Checkpoints: 4, FullPages: 32, IncrementalPages: 92, SkippedClean: 4,
			COWFaults: 39, SweepSaves: 85, StableWrites: 124, KernelCycles: 25_076_200},
	}
	for _, c := range []struct {
		m                        kernel.Model
		writesBetween            int
		restrict, machine, total uint64
	}{
		{kernel.ModelDomainPage, 8, 512, 29_017, 23_685_117},
		{kernel.ModelDomainPage, 40, 512, 34_140, 25_110_340},
		{kernel.ModelPageGroup, 8, 40, 47_839, 23_703_939},
		{kernel.ModelPageGroup, 40, 40, 53_512, 25_129_712},
		{kernel.ModelConventional, 8, 990, 25_758, 23_681_858},
		{kernel.ModelConventional, 40, 1_160, 30_401, 25_106_601},
		{kernel.ModelFlush, 8, 860, 70_456, 23_726_556},
		{kernel.ModelFlush, 40, 1_090, 82_757, 25_158_957},
	} {
		t.Run(fmt.Sprintf("%v/writes-%d", c.m, c.writesBetween), func(t *testing.T) {
			k := kernel.New(kernel.DefaultConfig(c.m))
			cfg := DefaultConfig()
			cfg.Checkpoints, cfg.WritesBetween = 4, c.writesBetween
			got, err := RunIncremental(k, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := counts[c.writesBetween]
			want.RestrictCycles, want.MachineCycles = c.restrict, c.machine
			if got != want {
				t.Errorf("report\n got %+v\nwant %+v", got, want)
			}
			if total := k.TotalCycles(); total != c.total {
				t.Errorf("TotalCycles = %d, want %d", total, c.total)
			}
		})
	}
}

func TestIncrementalNeedsTwoCheckpoints(t *testing.T) {
	k := kernel.New(kernel.DefaultConfig(kernel.ModelDomainPage))
	cfg := DefaultConfig()
	cfg.Checkpoints = 1
	if _, err := RunIncremental(k, cfg); err == nil {
		t.Fatal("single-checkpoint incremental accepted")
	}
}

func TestImageSurvivesKernelReboot(t *testing.T) {
	// The DSM crash-recovery contract: pages saved from one kernel
	// instance restore byte-identically into a fresh instance booted the
	// same way (the single address space keeps VPNs stable).
	cfg := kernel.DefaultConfig(kernel.ModelDomainPage)
	boot := func() (*kernel.Kernel, *kernel.Domain, *kernel.Segment) {
		k := kernel.New(cfg)
		d := k.CreateDomain()
		s := k.CreateSegment(4, kernel.SegmentOptions{Name: "ckpt-image"})
		k.Attach(d, s, addr.RW)
		return k, d, s
	}
	k1, d1, s1 := boot()
	for p := uint64(0); p < 4; p++ {
		if err := k1.Store(d1, s1.PageVA(p), 0xbeef<<8|p); err != nil {
			t.Fatal(err)
		}
	}
	im := NewImageFor(k1)
	cyc0 := k1.Cycles()
	for p := uint64(0); p < 4; p++ {
		if err := im.SavePage(k1, s1.PageVPN(p)); err != nil {
			t.Fatal(err)
		}
	}
	if k1.Cycles() == cyc0 {
		t.Fatal("image saves charged no cycles")
	}

	// Reboot: fresh kernel, identical bootstrap, empty memory.
	k2, d2, s2 := boot()
	if s2.Base() != s1.Base() {
		t.Fatalf("segment base moved across reboot: %#x vs %#x",
			uint64(s2.Base()), uint64(s1.Base()))
	}
	for p := uint64(0); p < 4; p++ {
		if err := im.RestorePage(k2, s2.PageVPN(p)); err != nil {
			t.Fatal(err)
		}
	}
	for p := uint64(0); p < 4; p++ {
		v, err := k2.Load(d2, s2.PageVA(p))
		if err != nil {
			t.Fatal(err)
		}
		if v != 0xbeef<<8|p {
			t.Fatalf("page %d = %#x after restore", p, v)
		}
	}
}

func TestImageReadAndMissingPage(t *testing.T) {
	k := kernel.New(kernel.DefaultConfig(kernel.ModelPageGroup))
	d := k.CreateDomain()
	s := k.CreateSegment(1, kernel.SegmentOptions{})
	k.Attach(d, s, addr.RW)
	if err := k.Store(d, s.Base(), 7); err != nil {
		t.Fatal(err)
	}
	im := NewImageFor(k)
	if _, err := im.Read(s.PageVPN(0)); err == nil {
		t.Fatal("reading a missing page succeeded")
	}
	if err := im.RestorePage(k, s.PageVPN(0)); err == nil {
		t.Fatal("restoring a missing page succeeded")
	}
	if err := im.SavePage(k, s.PageVPN(0)); err != nil {
		t.Fatal(err)
	}
	data, err := im.Read(s.PageVPN(0))
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 7 {
		t.Fatalf("image bytes wrong: %d", data[0])
	}
}
