package machine

import (
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/plb"
	"repro/internal/ptable"
	"repro/internal/smp"
	"repro/internal/tlb"
)

// fakeOS is a table-driven OS for machine tests.
type fakeOS struct {
	trans  map[addr.VPN]addr.PFN
	rights map[addr.DomainID]map[addr.VPN]addr.Rights
	groups map[addr.VPN]addr.GroupID
	pageR  map[addr.VPN]addr.Rights
	domGrp map[addr.DomainID]map[addr.GroupID]bool // value: write-disable
}

func newFakeOS() *fakeOS {
	return &fakeOS{
		trans:  map[addr.VPN]addr.PFN{},
		rights: map[addr.DomainID]map[addr.VPN]addr.Rights{},
		groups: map[addr.VPN]addr.GroupID{},
		pageR:  map[addr.VPN]addr.Rights{},
		domGrp: map[addr.DomainID]map[addr.GroupID]bool{},
	}
}

func (f *fakeOS) grant(d addr.DomainID, vpn addr.VPN, r addr.Rights) {
	if f.rights[d] == nil {
		f.rights[d] = map[addr.VPN]addr.Rights{}
	}
	f.rights[d][vpn] = r
}

func (f *fakeOS) setPage(vpn addr.VPN, pfn addr.PFN, g addr.GroupID, r addr.Rights) {
	f.trans[vpn] = pfn
	f.groups[vpn] = g
	f.pageR[vpn] = r
}

func (f *fakeOS) grantGroup(d addr.DomainID, g addr.GroupID, wd bool) {
	if f.domGrp[d] == nil {
		f.domGrp[d] = map[addr.GroupID]bool{}
	}
	f.domGrp[d][g] = wd
}

func (f *fakeOS) Translate(vpn addr.VPN) (addr.PFN, bool) {
	p, ok := f.trans[vpn]
	return p, ok
}

func (f *fakeOS) ResolveRights(d addr.DomainID, vpn addr.VPN) (addr.Rights, bool, bool) {
	m, ok := f.rights[d]
	if !ok {
		return addr.None, false, false
	}
	r, ok := m[vpn]
	if !ok {
		return addr.None, false, false
	}
	return r, true, true
}

func (f *fakeOS) PageInfo(vpn addr.VPN) (addr.GroupID, addr.Rights, bool) {
	g, ok := f.groups[vpn]
	if !ok {
		return 0, addr.None, false
	}
	return g, f.pageR[vpn], true
}

func (f *fakeOS) DomainGroup(d addr.DomainID, g addr.GroupID) (bool, bool) {
	m, ok := f.domGrp[d]
	if !ok {
		return false, false
	}
	wd, ok := m[g]
	return ok, wd
}

func (f *fakeOS) DomainGroups(d addr.DomainID) []GroupAccess {
	var out []GroupAccess
	for g, wd := range f.domGrp[d] {
		out = append(out, GroupAccess{Group: g, WriteDisable: wd})
	}
	return out
}

const page = uint64(addr.BasePageSize)

func va(vpn uint64) addr.VA { return addr.VA(vpn * page) }

// --- PLB machine ---

func newPLBMachine(os OS) *PLBMachine { return MustPLB(DefaultPLBConfig(), os) }

func TestPLBAccessHappyPath(t *testing.T) {
	os := newFakeOS()
	os.trans[1] = 7
	os.grant(1, 1, addr.RW)
	m := newPLBMachine(os)
	m.SwitchDomain(1)

	// First access: PLB refill trap + TLB refill + cache fill.
	out := m.Access(va(1), addr.Load)
	if !out.OK() {
		t.Fatalf("fault: %v", out.Fault)
	}
	c := m.Counters()
	if c.Get(CtrTrapPLBRefill) != 1 || c.Get("plb.miss") != 1 || c.Get("tlb.miss") != 1 ||
		c.Get("cache.miss") != 1 {
		t.Fatalf("counters: %v", c.Snapshot())
	}
	// Second access to same line: pure hit, no traps.
	before := c.Snapshot()
	if out := m.Access(va(1), addr.Load); !out.OK() {
		t.Fatal("second access faulted")
	}
	d := c.Diff(before)
	if d.Get("plb.hit") != 1 || d.Get("cache.hit") != 1 {
		t.Fatalf("diff: %v", d.Snapshot())
	}
	if d.Get(CtrTrapPLBRefill) != 0 || d.Get(CtrTrapTLBRefill) != 0 {
		t.Fatal("warm access trapped")
	}
}

func TestPLBProtectionFault(t *testing.T) {
	os := newFakeOS()
	os.trans[1] = 7
	os.grant(1, 1, addr.Read)
	m := newPLBMachine(os)
	m.SwitchDomain(1)
	if out := m.Access(va(1), addr.Store); out.Fault != cpu.FaultProtection {
		t.Fatalf("fault = %v, want protection", out.Fault)
	}
	// Read still works.
	if out := m.Access(va(1), addr.Load); !out.OK() {
		t.Fatal("read faulted")
	}
	// A repeated illegal store faults on the resident None-write entry
	// without re-resolving (no second refill trap).
	before := m.Counters().Snapshot()
	m.Access(va(1), addr.Store)
	if d := m.Counters().Diff(before); d.Get(CtrTrapPLBRefill) != 0 {
		t.Fatal("repeated illegal access re-resolved")
	}
}

func TestPLBNoAuthority(t *testing.T) {
	os := newFakeOS()
	os.trans[1] = 7
	m := newPLBMachine(os)
	m.SwitchDomain(1)
	if out := m.Access(va(1), addr.Load); out.Fault != cpu.FaultNoAuthority {
		t.Fatalf("fault = %v, want no-authority", out.Fault)
	}
}

func TestPLBPageUnmapped(t *testing.T) {
	os := newFakeOS()
	os.grant(1, 1, addr.RW)
	m := newPLBMachine(os)
	m.SwitchDomain(1)
	if out := m.Access(va(1), addr.Load); out.Fault != cpu.FaultPageUnmapped {
		t.Fatalf("fault = %v, want page-unmapped", out.Fault)
	}
}

func TestPLBDomainSwitchIsOneRegister(t *testing.T) {
	os := newFakeOS()
	os.trans[1] = 7
	os.grant(1, 1, addr.RW)
	os.grant(2, 1, addr.Read)
	m := newPLBMachine(os)
	m.SwitchDomain(1)
	m.Access(va(1), addr.Load)
	plbLen, tlbLen, cacheLen := m.PLB().Len(), m.TLB().Len(), m.Cache().Len()
	cyc := m.Cycles()
	m.SwitchDomain(2)
	// Switch must not purge anything and must cost one register write.
	if m.PLB().Len() != plbLen || m.TLB().Len() != tlbLen || m.Cache().Len() != cacheLen {
		t.Fatal("domain switch disturbed hardware state")
	}
	if got := m.Cycles() - cyc; got != m.Costs().RegisterWrite {
		t.Fatalf("switch cost = %d, want %d", got, m.Costs().RegisterWrite)
	}
	// Domain 2's rights fault in independently; domain 1's entry remains.
	if out := m.Access(va(1), addr.Load); !out.OK() {
		t.Fatal("domain 2 access failed")
	}
	if m.PLB().Len() != plbLen+1 {
		t.Fatal("expected a second PLB entry for the shared page")
	}
}

func TestPLBSharedPageSingleTLBEntry(t *testing.T) {
	os := newFakeOS()
	os.trans[1] = 7
	os.grant(1, 1, addr.RW)
	os.grant(2, 1, addr.Read)
	m := newPLBMachine(os)
	m.SwitchDomain(1)
	m.Access(va(1), addr.Load)
	m.SwitchDomain(2)
	// Force a cache miss for domain 2's access so translation is needed:
	// access a different line of the same page.
	m.Access(va(1)+64, addr.Load)
	// The translation TLB holds ONE entry for the page despite two
	// domains using it (Section 3.2.1).
	if m.TLB().Len() != 1 {
		t.Fatalf("TLB entries = %d, want 1", m.TLB().Len())
	}
	// And the second domain's cache-missing access hit the TLB.
	if m.Counters().Get("tlb.miss") != 1 {
		t.Fatalf("tlb.miss = %d, want 1", m.Counters().Get("tlb.miss"))
	}
}

func TestPLBUpdateRightsAffectsOneDomain(t *testing.T) {
	os := newFakeOS()
	os.trans[1] = 7
	os.grant(1, 1, addr.RW)
	os.grant(2, 1, addr.RW)
	m := newPLBMachine(os)
	m.SwitchDomain(1)
	m.Access(va(1), addr.Load)
	m.SwitchDomain(2)
	m.Access(va(1), addr.Load)

	// Revoke domain 1's write access in the PLB (kernel-side tables are
	// the fake's responsibility; here we check hardware behaviour).
	os.grant(1, 1, addr.Read)
	m.Apply(smp.Request{Kind: smp.UpdateRights, Domain: 1, VPN: 1, Rights: addr.Read})
	m.SwitchDomain(1)
	if out := m.Access(va(1), addr.Store); out.Fault != cpu.FaultProtection {
		t.Fatal("revoked write allowed")
	}
	m.SwitchDomain(2)
	if out := m.Access(va(1), addr.Store); !out.OK() {
		t.Fatal("unrelated domain's write blocked")
	}
}

func TestPLBDetachRange(t *testing.T) {
	os := newFakeOS()
	for vpn := addr.VPN(0); vpn < 4; vpn++ {
		os.trans[vpn] = addr.PFN(vpn + 1)
		os.grant(1, vpn, addr.RW)
	}
	m := newPLBMachine(os)
	m.SwitchDomain(1)
	for vpn := uint64(0); vpn < 4; vpn++ {
		m.Access(va(vpn), addr.Load)
	}
	if m.PLB().Len() != 4 {
		t.Fatalf("PLB len = %d", m.PLB().Len())
	}
	m.Apply(smp.Request{Kind: smp.RangeDetach, Domain: 1, Range: addr.Range{Start: va(1), Length: 2 * page}})
	if m.PLB().Len() != 2 {
		t.Fatalf("PLB len after detach = %d", m.PLB().Len())
	}
}

func TestPLBUnmapPage(t *testing.T) {
	os := newFakeOS()
	os.trans[1] = 7
	os.grant(1, 1, addr.RW)
	m := newPLBMachine(os)
	m.SwitchDomain(1)
	m.Access(va(1), addr.Store)
	if m.TLB().Len() != 1 || m.Cache().Len() != 1 {
		t.Fatal("setup failed")
	}
	delete(os.trans, 1)
	m.Apply(smp.Request{Kind: smp.Unmap, VPN: 1})
	if m.TLB().Len() != 0 || m.Cache().Len() != 0 {
		t.Fatal("unmap left residue")
	}
	// The stale PLB entry may remain; the access faults on translation.
	if out := m.Access(va(1), addr.Load); out.Fault != cpu.FaultPageUnmapped {
		t.Fatalf("fault = %v, want page-unmapped", out.Fault)
	}
}

// --- Page-group machine ---

func TestPGAccessHappyPath(t *testing.T) {
	os := newFakeOS()
	os.setPage(1, 7, 5, addr.RW)
	os.grantGroup(1, 5, false)
	m := NewPG(DefaultPGConfig(), os)
	m.SwitchDomain(1)

	out := m.Access(va(1), addr.Load)
	if !out.OK() {
		t.Fatalf("fault: %v", out.Fault)
	}
	c := m.Counters()
	if c.Get(CtrTrapTLBRefill) != 1 || c.Get(CtrTrapPGRefill) != 1 {
		t.Fatalf("counters: %v", c.Snapshot())
	}
	// Warm access: no traps.
	before := c.Snapshot()
	m.Access(va(1), addr.Load)
	d := c.Diff(before)
	if d.Get(CtrTrapTLBRefill) != 0 || d.Get(CtrTrapPGRefill) != 0 {
		t.Fatal("warm access trapped")
	}
}

func TestPGGlobalGroupAlwaysAccessible(t *testing.T) {
	os := newFakeOS()
	os.setPage(1, 7, addr.GlobalGroup, addr.Read)
	m := NewPG(DefaultPGConfig(), os)
	m.SwitchDomain(1) // domain 1 has no groups at all
	if out := m.Access(va(1), addr.Load); !out.OK() {
		t.Fatalf("global group access faulted: %v", out.Fault)
	}
	if out := m.Access(va(1), addr.Store); out.Fault != cpu.FaultProtection {
		t.Fatal("rights field ignored for global group")
	}
}

func TestPGDomainWithoutGroupFaults(t *testing.T) {
	os := newFakeOS()
	os.setPage(1, 7, 5, addr.RW)
	os.grantGroup(1, 5, false)
	m := NewPG(DefaultPGConfig(), os)
	m.SwitchDomain(2) // domain 2 has no access to group 5
	if out := m.Access(va(1), addr.Load); out.Fault != cpu.FaultProtection {
		t.Fatalf("fault = %v, want protection", out.Fault)
	}
}

func TestPGWriteDisableBit(t *testing.T) {
	os := newFakeOS()
	os.setPage(1, 7, 5, addr.RW)
	os.grantGroup(1, 5, true) // write-disabled for domain 1
	os.grantGroup(2, 5, false)
	m := NewPG(DefaultPGConfig(), os)
	m.SwitchDomain(1)
	if out := m.Access(va(1), addr.Load); !out.OK() {
		t.Fatal("read blocked by write-disable")
	}
	if out := m.Access(va(1), addr.Store); out.Fault != cpu.FaultProtection {
		t.Fatal("write-disable not enforced")
	}
	m.SwitchDomain(2)
	if out := m.Access(va(1), addr.Store); !out.OK() {
		t.Fatal("write blocked for domain without write-disable")
	}
}

func TestPGDomainSwitchPurgesChecker(t *testing.T) {
	os := newFakeOS()
	os.setPage(1, 7, 5, addr.RW)
	os.grantGroup(1, 5, false)
	os.grantGroup(2, 5, false)
	m := NewPG(DefaultPGConfig(), os)
	m.SwitchDomain(1)
	m.Access(va(1), addr.Load)
	if m.Checker().Len() != 1 {
		t.Fatal("group not loaded")
	}
	tlbLen := m.TLB().Len()
	m.SwitchDomain(2)
	// Checker purged; TLB and cache untouched (their contents are
	// domain-independent).
	if m.Checker().Len() != 0 {
		t.Fatal("checker not purged on switch")
	}
	if m.TLB().Len() != tlbLen {
		t.Fatal("TLB purged on switch")
	}
	// Domain 2's access re-faults the group in.
	before := m.Counters().Snapshot()
	if out := m.Access(va(1), addr.Load); !out.OK() {
		t.Fatal("domain 2 access failed")
	}
	if d := m.Counters().Diff(before); d.Get(CtrTrapPGRefill) != 1 {
		t.Fatal("expected a pg refill trap after switch")
	}
}

func TestPGEagerReload(t *testing.T) {
	os := newFakeOS()
	os.setPage(1, 7, 5, addr.RW)
	os.grantGroup(2, 5, false)
	cfg := DefaultPGConfig()
	cfg.EagerReload = true
	m := NewPG(cfg, os)
	m.SwitchDomain(2)
	if m.Checker().Len() != 1 {
		t.Fatal("eager reload did not load groups")
	}
	// Access proceeds with no pg refill trap.
	before := m.Counters().Snapshot()
	if out := m.Access(va(1), addr.Load); !out.OK() {
		t.Fatal("access failed")
	}
	if d := m.Counters().Diff(before); d.Get(CtrTrapPGRefill) != 0 {
		t.Fatal("eager reload still trapped")
	}
}

func TestPGSharedPageOneTLBEntry(t *testing.T) {
	os := newFakeOS()
	os.setPage(1, 7, 5, addr.RW)
	os.grantGroup(1, 5, false)
	os.grantGroup(2, 5, false)
	m := NewPG(DefaultPGConfig(), os)
	m.SwitchDomain(1)
	m.Access(va(1), addr.Load)
	m.SwitchDomain(2)
	m.Access(va(1), addr.Load)
	if m.TLB().Len() != 1 {
		t.Fatalf("TLB entries = %d, want 1 (no duplication)", m.TLB().Len())
	}
}

func TestPGUpdatePageMovesGroup(t *testing.T) {
	os := newFakeOS()
	os.setPage(1, 7, 5, addr.RW)
	os.grantGroup(1, 5, false)
	m := NewPG(DefaultPGConfig(), os)
	m.SwitchDomain(1)
	m.Access(va(1), addr.Load)
	// Kernel moves the page to group 9, which domain 1 cannot access.
	os.setPage(1, 7, 9, addr.RW)
	m.Apply(smp.Request{Kind: smp.GroupUpdate, VPN: 1, Group: 9, Rights: addr.RW})
	if out := m.Access(va(1), addr.Load); out.Fault != cpu.FaultProtection {
		t.Fatalf("fault = %v, want protection after group move", out.Fault)
	}
}

func TestPGPIDRegistersVariant(t *testing.T) {
	os := newFakeOS()
	for g := addr.GroupID(1); g <= 6; g++ {
		vpn := addr.VPN(g)
		os.setPage(vpn, addr.PFN(g), g, addr.RW)
		os.grantGroup(1, g, false)
	}
	cfg := DefaultPGConfig()
	cfg.Checker = PGCheckerPIDRegisters
	cfg.CheckerEntries = 4
	m := NewPG(cfg, os)
	m.SwitchDomain(1)
	// Touch 6 groups; with only 4 registers the working set thrashes.
	for round := 0; round < 2; round++ {
		for g := uint64(1); g <= 6; g++ {
			if out := m.Access(va(g), addr.Load); !out.OK() {
				t.Fatalf("access failed: %v", out.Fault)
			}
		}
	}
	// More pg refill traps than the 6 cold ones: thrash.
	if got := m.Counters().Get(CtrTrapPGRefill); got <= 6 {
		t.Fatalf("pg refills = %d, want > 6 (register thrash)", got)
	}
}

func TestPGUnmapPage(t *testing.T) {
	os := newFakeOS()
	os.setPage(1, 7, 5, addr.RW)
	os.grantGroup(1, 5, false)
	m := NewPG(DefaultPGConfig(), os)
	m.SwitchDomain(1)
	m.Access(va(1), addr.Store)
	delete(os.trans, 1)
	delete(os.groups, 1)
	m.Apply(smp.Request{Kind: smp.Unmap, VPN: 1})
	if m.TLB().Len() != 0 || m.Cache().Len() != 0 {
		t.Fatal("unmap left residue")
	}
	if out := m.Access(va(1), addr.Load); out.Fault != cpu.FaultPageUnmapped {
		t.Fatalf("fault = %v", out.Fault)
	}
}

// --- Conventional and flush machines ---

type fakeMultiOS struct {
	tables map[addr.ASID]*ptable.LinearTable
}

func newFakeMultiOS() *fakeMultiOS {
	return &fakeMultiOS{tables: map[addr.ASID]*ptable.LinearTable{}}
}

func (f *fakeMultiOS) table(as addr.ASID) *ptable.LinearTable {
	t, ok := f.tables[as]
	if !ok {
		t = ptable.NewLinearTable()
		t.AddRegion(0, 1024)
		f.tables[as] = t
	}
	return t
}

func (f *fakeMultiOS) Walk(as addr.ASID, vpn addr.VPN) (ptable.LinearPTE, bool) {
	return f.table(as).Walk(vpn)
}

func TestConventionalDuplicatesSharedEntries(t *testing.T) {
	os := newFakeMultiOS()
	// Shared frame 7 mapped at the same VPN in 3 spaces.
	for as := addr.ASID(1); as <= 3; as++ {
		os.table(as).Map(1, 7, addr.Read)
	}
	m := NewConventional(DefaultConvConfig(), os)
	for d := addr.DomainID(1); d <= 3; d++ {
		m.SwitchDomain(d)
		if out := m.Access(va(1), addr.Load); !out.OK() {
			t.Fatalf("access failed: %v", out.Fault)
		}
	}
	if m.TLB().Len() != 3 {
		t.Fatalf("TLB entries = %d, want 3 (per-AS duplication)", m.TLB().Len())
	}
	if m.TLB().ResidentFor(1) != 3 {
		t.Fatal("ResidentFor wrong")
	}
	// The shared frame is resident under multiple cache tags: synonyms.
	// (All three virtual lines index the same 2-way set, so at most two
	// coexist — the third synonym evicted one, wasting the cache.)
	if n := m.Cache().SynonymLines(m.Geometry()); n != 2 {
		t.Fatalf("SynonymLines = %d, want 2", n)
	}
}

func TestConventionalProtectionAndUnmappedFaults(t *testing.T) {
	os := newFakeMultiOS()
	os.table(1).Map(1, 7, addr.Read)
	m := NewConventional(DefaultConvConfig(), os)
	m.SwitchDomain(1)
	if out := m.Access(va(1), addr.Store); out.Fault != cpu.FaultProtection {
		t.Fatalf("fault = %v", out.Fault)
	}
	if out := m.Access(va(2), addr.Load); out.Fault != cpu.FaultPageUnmapped {
		t.Fatalf("fault = %v", out.Fault)
	}
}

func TestConventionalInvalidatePage(t *testing.T) {
	os := newFakeMultiOS()
	for as := addr.ASID(1); as <= 3; as++ {
		os.table(as).Map(1, 7, addr.Read)
	}
	m := NewConventional(DefaultConvConfig(), os)
	for d := addr.DomainID(1); d <= 3; d++ {
		m.SwitchDomain(d)
		m.Access(va(1), addr.Load)
	}
	m.Apply(smp.Request{Kind: smp.PurgePage, VPN: 1})
	if m.TLB().Len() != 0 {
		t.Fatalf("TLB entries after invalidate = %d", m.TLB().Len())
	}
}

func TestFlushMachineFlushesOnSwitch(t *testing.T) {
	os := newFakeMultiOS()
	os.table(1).Map(1, 7, addr.RW)
	os.table(2).Map(1, 8, addr.RW)
	m := NewFlush(DefaultConvConfig(), os)
	m.SwitchDomain(1)
	m.Access(va(1), addr.Store)
	if m.Cache().Len() != 1 || m.TLB().Len() != 1 {
		t.Fatal("setup failed")
	}
	m.SwitchDomain(2)
	if m.Cache().Len() != 0 || m.TLB().Len() != 0 {
		t.Fatal("switch did not flush")
	}
	// Homonym: space 2's VA 0x1000 is different data (frame 8). With the
	// flush, the access correctly misses and refills from space 2's table.
	before := m.Counters().Snapshot()
	if out := m.Access(va(1), addr.Load); !out.OK() {
		t.Fatal("access failed")
	}
	if d := m.Counters().Diff(before); d.Get("cache.miss") != 1 {
		t.Fatal("homonym falsely hit after flush")
	}
	// Switching to the same domain is free.
	cyc := m.Cycles()
	m.SwitchDomain(2)
	if m.Cycles() != cyc {
		t.Fatal("same-domain switch charged")
	}
}

func TestMachineInterfaceCompliance(t *testing.T) {
	sos := newFakeOS()
	mos := newFakeMultiOS()
	machines := []Machine{
		MustPLB(DefaultPLBConfig(), sos),
		NewPG(DefaultPGConfig(), sos),
		NewConventional(DefaultConvConfig(), mos),
		NewFlush(DefaultConvConfig(), mos),
	}
	names := map[string]bool{}
	for _, m := range machines {
		names[m.Name()] = true
		m.SwitchDomain(3)
		if m.Domain() != 3 {
			t.Errorf("%s: Domain() = %d", m.Name(), m.Domain())
		}
		if m.Counters() == nil {
			t.Errorf("%s: nil counters", m.Name())
		}
		if m.Costs().Trap == 0 {
			t.Errorf("%s: zero cost model", m.Name())
		}
	}
	if len(names) != 4 {
		t.Fatalf("names = %v", names)
	}
}

func TestVIPTConventionalNoSynonymsNoHomonyms(t *testing.T) {
	os := newFakeMultiOS()
	// Shared frame 7 at the same VPN in 3 spaces, plus a homonym: VPN 2
	// maps to different frames per space.
	for as := addr.ASID(1); as <= 3; as++ {
		os.table(as).Map(1, 7, addr.RW)
		os.table(as).Map(2, addr.PFN(10+as), addr.RW)
	}
	m := NewConventional(DefaultVIPTConvConfig(), os)
	for d := addr.DomainID(1); d <= 3; d++ {
		m.SwitchDomain(d)
		if out := m.Access(va(1), addr.Store); !out.OK() {
			t.Fatalf("shared access: %v", out.Fault)
		}
		if out := m.Access(va(2), addr.Load); !out.OK() {
			t.Fatalf("homonym access: %v", out.Fault)
		}
	}
	// The shared line is resident exactly once (physical tags collapse
	// synonyms); the three homonym lines are distinct physical lines.
	if n := m.VIPTCache().Len(); n != 1+3 {
		t.Fatalf("resident lines = %d, want 4", n)
	}
	// Domain 2's second access to the shared line must HIT (filled by
	// domain 1): physical identity is shared capacity, a VIPT advantage.
	before := m.Counters().Snapshot()
	m.SwitchDomain(2)
	m.Access(va(1), addr.Load)
	if d := m.Counters().Diff(before); d.Get("cache.miss") != 0 {
		t.Fatal("shared physical line missed for second space")
	}
}

func TestVIPTGeometryConstraint(t *testing.T) {
	cfg := DefaultVIPTConvConfig()
	cfg.Cache.Assoc.Sets = 1024 // index bits exceed the 4K page offset
	defer func() {
		if recover() == nil {
			t.Fatal("oversized VIPT index accepted")
		}
	}()
	NewConventional(cfg, newFakeMultiOS())
}

func TestVIPTUnmapFlushes(t *testing.T) {
	os := newFakeMultiOS()
	os.table(1).Map(1, 7, addr.RW)
	m := NewConventional(DefaultVIPTConvConfig(), os)
	m.SwitchDomain(1)
	m.Access(va(1), addr.Store)
	if m.VIPTCache().Len() != 1 {
		t.Fatal("setup failed")
	}
	m.Apply(smp.Request{Kind: smp.Unmap, VPN: 1})
	if m.VIPTCache().Len() != 0 {
		t.Fatal("unmap left VIPT residue")
	}
}

func TestScanOpsChargeFullCapacity(t *testing.T) {
	// An entry-by-entry hardware scan inspects every slot, valid or not
	// (§4.1.1 "inspect each entry"): the cycle charge for range updates,
	// detaches and page purges must cover the structure's capacity, not
	// just its resident entries.
	t.Run("PLBMachine", func(t *testing.T) {
		os := newFakeOS()
		os.trans[1] = 7
		os.grant(1, 1, addr.RW)
		m := newPLBMachine(os)
		m.SwitchDomain(1)
		m.Access(va(1), addr.Load) // one valid entry out of 128
		scan := uint64(m.PLB().Capacity()) * m.Costs().PurgeEntry
		seg := addr.Range{Start: va(0), Length: 4 * page}
		for _, r := range []smp.Request{
			{Kind: smp.RangeRights, Domain: 1, Range: seg, Rights: addr.Read},
			{Kind: smp.RangeDetach, Domain: 1, Range: seg},
			{Kind: smp.PurgePage, VPN: 1},
		} {
			before := m.Cycles()
			m.Apply(r)
			if got := m.Cycles() - before; got != scan {
				t.Fatalf("%v charged %d cycles, want capacity scan %d", r.Kind, got, scan)
			}
		}
	})
	t.Run("ConventionalMachine", func(t *testing.T) {
		os := newFakeMultiOS()
		os.table(1).Map(1, 7, addr.Read)
		m := NewConventional(DefaultConvConfig(), os)
		m.SwitchDomain(1)
		m.Access(va(1), addr.Load)
		scan := uint64(m.TLB().Capacity()) * m.Costs().PurgeEntry
		before := m.Cycles()
		m.Apply(smp.Request{Kind: smp.PurgePage, VPN: 1})
		if got := m.Cycles() - before; got != scan {
			t.Fatalf("purge-page charged %d cycles, want capacity scan %d", got, scan)
		}
	})
}

// applyCase is one row of the Apply contract: the entries a request must
// touch, the cycles it must charge, and what the touched entry must look
// like afterwards ("" when it does).
type applyCase struct {
	req    smp.Request
	n      int
	cycles uint64
	check  func(m Machine) string
}

// plbRights returns the PLB's resident rights for (d, page vpn).
func plbRights(m Machine, d addr.DomainID, vpn addr.VPN) (r addr.Rights, ok bool) {
	m.(*PLBMachine).PLB().ForEach(func(k plb.Key, kr addr.Rights) bool {
		if k.Domain == d && addr.VPN(k.Page) == vpn {
			r, ok = kr, true
		}
		return !ok
	})
	return r, ok
}

// asidRights returns the ASID TLB's resident rights for (d, vpn).
func asidRights(m Machine, d addr.DomainID, vpn addr.VPN) (r addr.Rights, ok bool) {
	m.(*ConventionalMachine).TLB().ForEach(func(k tlb.ASIDKey, e tlb.ASIDEntry) bool {
		if k.AS == addr.ASID(d) && k.VPN == vpn {
			r, ok = e.Rights, true
		}
		return !ok
	})
	return r, ok
}

// wantLen reports a mismatch between a structure's entry count and want.
func wantLen(name string, got, want int) string {
	if got != want {
		return fmt.Sprintf("%s holds %d entries, want %d", name, got, want)
	}
	return ""
}

// TestApplyContract drives every organization through every smp.Kind on
// a machine where domain 1 stored to page 1, so the page's protection,
// translation and (dirty) cache line are resident. Each kind the
// organization maintains must touch the entry, charge its Table 1 cost
// and leave the entry in the requested state; every other kind must
// touch nothing and cost nothing. No apply may charge more than
// the worst case MaxCycles reports.
func TestApplyContract(t *testing.T) {
	c := cpu.DefaultCosts()
	seg := addr.Range{Start: va(0), Length: 4 * page}
	plbScan := uint64(plb.DefaultConfig().Assoc.Capacity()) * c.PurgeEntry
	tlbScan := uint64(DefaultConvConfig().TLB.Capacity()) * c.PurgeEntry
	// An unmap flushes a page of lines and writes back the dirty one.
	flushPage := (page>>cache.DefaultConfig().LineShift)*c.CacheLineFlush + c.Writeback

	plbGone := func(m Machine) string { return wantLen("PLB", m.(*PLBMachine).PLB().Len(), 0) }
	plbHolds := func(want addr.Rights) func(Machine) string {
		return func(m Machine) string {
			if r, ok := plbRights(m, 1, 1); !ok || r != want {
				return fmt.Sprintf("PLB entry = %v (resident %v), want %v", r, ok, want)
			}
			return ""
		}
	}
	plbCases := map[smp.Kind]applyCase{
		smp.InvalRights:  {smp.Request{Kind: smp.InvalRights, Domain: 1, VPN: 1}, 1, c.PurgeEntry, plbGone},
		smp.UpdateRights: {smp.Request{Kind: smp.UpdateRights, Domain: 1, VPN: 1, Rights: addr.Read}, 1, c.Install, plbHolds(addr.Read)},
		smp.RangeRights:  {smp.Request{Kind: smp.RangeRights, Domain: 1, Range: seg, Rights: addr.Read}, 1, plbScan, plbHolds(addr.Read)},
		smp.RangeDetach:  {smp.Request{Kind: smp.RangeDetach, Domain: 1, Range: seg}, 1, plbScan, plbGone},
		// Segment destruction's scan is not charged.
		smp.RangePurge:   {smp.Request{Kind: smp.RangePurge, Range: seg}, 1, 0, plbGone},
		smp.PurgeAllProt: {smp.Request{Kind: smp.PurgeAllProt}, 1, c.RegisterWrite, plbGone},
		smp.PurgePage:    {smp.Request{Kind: smp.PurgePage, VPN: 1}, 1, plbScan, plbGone},
		smp.DomainPurge:  {smp.Request{Kind: smp.DomainPurge, Domain: 1}, 1, plbScan, plbGone},
		smp.Unmap: {smp.Request{Kind: smp.Unmap, VPN: 1}, 1, c.PurgeEntry + flushPage, func(m Machine) string {
			pm := m.(*PLBMachine)
			return wantLen("TLB", pm.TLB().Len(), 0) + wantLen("cache", pm.Cache().Len(), 0)
		}},
	}

	pgCases := map[smp.Kind]applyCase{
		smp.GroupLoad: {smp.Request{Kind: smp.GroupLoad, Domain: 1, Group: 9, WD: true}, 1, c.Install, func(m Machine) string {
			if ok, wd := m.(*PGMachine).Checker().Check(9); !ok || !wd {
				return fmt.Sprintf("checker holds group 9 = %v (write-disable %v), want loaded write-disabled", ok, wd)
			}
			return ""
		}},
		smp.GroupRevoke: {smp.Request{Kind: smp.GroupRevoke, Domain: 1, Group: 5}, 1, c.PurgeEntry, func(m Machine) string {
			return wantLen("checker", m.(*PGMachine).Checker().Len(), 0)
		}},
		smp.GroupUpdate: {smp.Request{Kind: smp.GroupUpdate, VPN: 1, Group: 9, Rights: addr.Read}, 1, c.Install, func(m Machine) string {
			if e, ok := m.(*PGMachine).TLB().Lookup(1); !ok || e.AID != 9 || e.Rights != addr.Read {
				return fmt.Sprintf("TLB entry = %+v (resident %v), want group 9 read-only", e, ok)
			}
			return ""
		}},
		smp.Unmap: {smp.Request{Kind: smp.Unmap, VPN: 1}, 1, c.PurgeEntry + flushPage, func(m Machine) string {
			pm := m.(*PGMachine)
			return wantLen("TLB", pm.TLB().Len(), 0) + wantLen("cache", pm.Cache().Len(), 0)
		}},
	}

	asidGone := func(m Machine) string { return wantLen("TLB", m.(*ConventionalMachine).TLB().Len(), 0) }
	convCases := map[smp.Kind]applyCase{
		smp.InvalRights: {smp.Request{Kind: smp.InvalRights, Domain: 1, VPN: 1}, 1, c.PurgeEntry, asidGone},
		smp.UpdateRights: {smp.Request{Kind: smp.UpdateRights, Domain: 1, VPN: 1, Rights: addr.Read}, 1, c.Install, func(m Machine) string {
			if r, ok := asidRights(m, 1, 1); !ok || r != addr.Read {
				return fmt.Sprintf("TLB entry = %v (resident %v), want %v", r, ok, addr.Read)
			}
			return ""
		}},
		smp.PurgePage:   {smp.Request{Kind: smp.PurgePage, VPN: 1}, 1, tlbScan, asidGone},
		smp.DomainPurge: {smp.Request{Kind: smp.DomainPurge, Domain: 1}, 1, tlbScan, asidGone},
		smp.Unmap: {smp.Request{Kind: smp.Unmap, VPN: 1}, 1, tlbScan + flushPage, func(m Machine) string {
			cm := m.(*ConventionalMachine)
			return wantLen("TLB", cm.TLB().Len(), 0) + wantLen("cache", cm.Cache().Len(), 0)
		}},
	}

	orgs := []struct {
		name  string
		warm  func() Machine
		cases map[smp.Kind]applyCase
	}{
		{"plb", func() Machine {
			os := newFakeOS()
			os.trans[1] = 7
			os.grant(1, 1, addr.RW)
			return newPLBMachine(os)
		}, plbCases},
		{"page-group", func() Machine {
			os := newFakeOS()
			os.setPage(1, 7, 5, addr.RW)
			os.grantGroup(1, 5, false)
			return NewPG(DefaultPGConfig(), os)
		}, pgCases},
		{"conventional", func() Machine {
			os := newFakeMultiOS()
			os.table(1).Map(1, 7, addr.RW)
			return NewConventional(DefaultConvConfig(), os)
		}, convCases},
		{"flush", func() Machine {
			os := newFakeMultiOS()
			os.table(1).Map(1, 7, addr.RW)
			return NewFlush(DefaultConvConfig(), os)
		}, convCases},
	}
	for _, org := range orgs {
		for kind := smp.InvalRights; kind <= smp.DomainPurge; kind++ {
			t.Run(org.name+"/"+kind.String(), func(t *testing.T) {
				m := org.warm()
				m.SwitchDomain(1)
				if out := m.Access(va(1), addr.Store); !out.OK() {
					t.Fatalf("warming store faulted: %v", out.Fault)
				}
				tc, handled := org.cases[kind]
				if !handled {
					// Same operands as a handled request would carry.
					tc.req = smp.Request{Kind: kind, Domain: 1, VPN: 1, Range: seg, Group: 5, Rights: addr.Read}
				}
				before := m.Cycles()
				n := m.Apply(tc.req)
				cycles := m.Cycles() - before
				if n != tc.n || cycles != tc.cycles {
					t.Fatalf("touched %d entries for %d cycles, want %d for %d", n, cycles, tc.n, tc.cycles)
				}
				if apply, _ := m.MaxCycles(); cycles > apply {
					t.Fatalf("charged %d cycles, above the worst-case apply %d", cycles, apply)
				}
				if handled {
					if msg := tc.check(m); msg != "" {
						t.Fatal(msg)
					}
				}
			})
		}
	}
}

// TestPurgeAllLeavesNothing: a bulk invalidation drops every entry and
// flushes the cache within MaxCycles' purge bound, after which no scan finds
// the domain (page-group hardware cannot prove absence and says so).
func TestPurgeAllLeavesNothing(t *testing.T) {
	sos := newFakeOS()
	sos.trans[1] = 7
	sos.grant(1, 1, addr.RW)
	sos.setPage(1, 7, 5, addr.RW)
	sos.grantGroup(1, 5, false)
	mos := newFakeMultiOS()
	mos.table(1).Map(1, 7, addr.RW)
	for _, m := range []Machine{
		newPLBMachine(sos),
		NewPG(DefaultPGConfig(), sos),
		NewConventional(DefaultConvConfig(), mos),
		NewFlush(DefaultConvConfig(), mos),
	} {
		m.SwitchDomain(1)
		m.Access(va(1), addr.Store)
		if !m.HasDomainEntries(1) {
			t.Fatalf("%s: warm machine reports no entry of domain 1", m.Name())
		}
		before := m.Cycles()
		if n := m.PurgeAll(); n == 0 {
			t.Fatalf("%s: PurgeAll dropped nothing", m.Name())
		}
		if _, purge := m.MaxCycles(); m.Cycles()-before > purge {
			t.Fatalf("%s: PurgeAll charged %d cycles, above its worst case %d", m.Name(), m.Cycles()-before, purge)
		}
		if m.HasDomainEntries(1) != (m.Name() == "page-group") {
			t.Fatalf("%s: HasDomainEntries after PurgeAll = %v", m.Name(), m.HasDomainEntries(1))
		}
		misses := m.Counters().Get("cache.miss")
		m.Access(va(1), addr.Load)
		if m.Counters().Get("cache.miss") != misses+1 {
			t.Fatalf("%s: cache line survived PurgeAll", m.Name())
		}
	}
}
