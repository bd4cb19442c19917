package iommu

import (
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/smp"
	"repro/internal/stats"
)

// groupOS grants every domain every group; the test drives the
// membership set through shootdown requests only.
type groupOS struct{}

func (groupOS) Translate(vpn addr.VPN) (addr.PFN, bool) { return addr.PFN(vpn), true }
func (groupOS) ResolveRights(addr.DomainID, addr.VPN) (addr.Rights, bool, bool) {
	return addr.RW, true, true
}
func (groupOS) PageInfo(vpn addr.VPN) (addr.GroupID, addr.Rights, bool) {
	return addr.GroupID(vpn), addr.RW, true
}
func (groupOS) DomainGroup(addr.DomainID, addr.GroupID) (bool, bool) { return true, false }
func (groupOS) NoteDeviceInstall(int, addr.DomainID, addr.VPN)       {}

// TestGroupSetListsAscending: groups loaded out of order are listed in
// ascending group order, so every audit and error message built from
// the listing is deterministic.
func TestGroupSetListsAscending(t *testing.T) {
	var ctrs stats.Counters
	costs := cpu.DefaultCosts()
	d := New(Config{
		Name: "dma0", Kind: DMAEngine, Org: OrgPageGroup, Entries: 8,
		Geometry: addr.BaseGeometry(), Costs: &costs,
	}, groupOS{}, &ctrs)
	d.SetOnBehalf(1)
	for _, g := range []addr.GroupID{5, 3, 9, 1, 20} {
		d.Apply(smp.Request{Kind: smp.GroupLoad, Domain: 1, Group: g, WD: g == 9})
	}
	// A membership miss on the check path inserts in order too.
	if _, err := d.Check(7, addr.Load); err != nil {
		t.Fatalf("Check: %v", err)
	}
	d.Apply(smp.Request{Kind: smp.GroupRevoke, Domain: 1, Group: 3})
	var got []addr.GroupID
	d.Entries(func(e machine.Entry) bool {
		if e.Kind != machine.Membership {
			return true
		}
		if e.Domain != 1 || e.WriteDisable != (e.Group == 9) {
			t.Errorf("group %d listed for domain %d with write-disable %v", e.Group, e.Domain, e.WriteDisable)
		}
		got = append(got, e.Group)
		return true
	})
	if want := []addr.GroupID{1, 5, 7, 9, 20}; !slices.Equal(got, want) {
		t.Fatalf("groups listed %v, want %v", got, want)
	}
}
