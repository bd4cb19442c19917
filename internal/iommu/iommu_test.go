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

// unmappedOS is groupOS with page vpn in frame vpn+100, until the test
// unmaps every page: from then on a Translate fails the test.
type unmappedOS struct {
	groupOS
	t        *testing.T
	unmapped bool
}

func (o *unmappedOS) Translate(vpn addr.VPN) (addr.PFN, bool) {
	if o.unmapped {
		o.t.Errorf("Translate(%#x) of an unmapped page", uint64(vpn))
		return 0, false
	}
	return addr.PFN(vpn + 100), true
}

// TestApplyRewritesInPlace: the page-group IOTLB's GroupUpdate and the
// domain-page IOTLB's UpdateRights rewrite a resident entry in place.
// The entry keeps its frame without a call to the OS, even when the OS
// has unmapped the page since, as it has when an update queued in a
// deferred window is delivered before the window's Unmap. Each apply is
// charged one inspected entry and one Install.
func TestApplyRewritesInPlace(t *testing.T) {
	for _, c := range []struct {
		org Org
		r   smp.Request
	}{
		{OrgPageGroup, smp.Request{Kind: smp.GroupUpdate, VPN: 3, Group: 9, Rights: addr.Read}},
		{OrgDomainPage, smp.Request{Kind: smp.UpdateRights, Domain: 1, VPN: 3, Rights: addr.Read}},
	} {
		os := &unmappedOS{t: t}
		costs := cpu.DefaultCosts()
		d := New(Config{
			Name: "dma0", Kind: DMAEngine, Org: c.org, Entries: 8,
			Geometry: addr.BaseGeometry(), Costs: &costs,
		}, os, &stats.Counters{})
		d.SetOnBehalf(1)
		if _, err := d.Check(3, addr.Load); err != nil {
			t.Fatalf("%v: Check: %v", c.org, err)
		}
		os.unmapped = true
		before := d.Cycles()
		if n := d.Apply(c.r); n != 1 {
			t.Errorf("%v: %v touched %d entries, want 1", c.org, c.r.Kind, n)
		}
		if got, want := d.Cycles()-before, costs.PurgeEntry+costs.Install; got != want {
			t.Errorf("%v: %v charged %d cycles, want %d", c.org, c.r.Kind, got, want)
		}
		var got []machine.Entry
		d.Entries(func(e machine.Entry) bool {
			if e.Kind != machine.Membership {
				got = append(got, e)
			}
			return true
		})
		if len(got) != 1 || got[0].Frame != 103 || got[0].Rights != addr.Read || got[0].Group != c.r.Group {
			t.Errorf("%v: entries after %v = %+v, want one in frame 103 with %v, group %d",
				c.org, c.r.Kind, got, addr.Read, c.r.Group)
		}
	}
}
