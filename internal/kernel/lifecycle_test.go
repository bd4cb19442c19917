package kernel_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/addr"
	"repro/internal/iommu"
	"repro/internal/kernel"
	"repro/internal/oracle"
)

var lifecycleModels = []kernel.Model{
	kernel.ModelDomainPage, kernel.ModelPageGroup,
	kernel.ModelConventional, kernel.ModelFlush,
}

// TestDomainIDExhaustion drives the allocator to the (narrowed) end of
// the ID space: the failure must be the typed error, not a wrap onto a
// live ID, and destroying any domain must make creation work again with
// the freed ID recycled LIFO.
func TestDomainIDExhaustion(t *testing.T) {
	k := kernel.New(kernel.DefaultConfig(kernel.ModelDomainPage))
	k.SetIDLimits(8, 0)
	var doms []*kernel.Domain
	for {
		d, err := k.CreateDomainChecked()
		if err != nil {
			if !errors.Is(err, kernel.ErrDomainIDsExhausted) {
				t.Fatalf("exhaustion error = %v, want ErrDomainIDsExhausted", err)
			}
			break
		}
		doms = append(doms, d)
		if len(doms) > 8 {
			t.Fatalf("allocator minted %d IDs past the limit of 8", len(doms))
		}
	}
	if len(doms) != 8 {
		t.Fatalf("minted %d IDs before exhaustion, want 8", len(doms))
	}
	victim := doms[3]
	if err := k.DestroyDomain(victim); err != nil {
		t.Fatalf("DestroyDomain: %v", err)
	}
	if k.FreeDomainIDs() != 1 {
		t.Fatalf("free list holds %d IDs, want 1", k.FreeDomainIDs())
	}
	d, err := k.CreateDomainChecked()
	if err != nil {
		t.Fatalf("create after destroy: %v", err)
	}
	if d.ID != victim.ID {
		t.Fatalf("recycled ID %d, want LIFO reuse of %d", d.ID, victim.ID)
	}
}

// TestGroupIDExhaustion does the same for the page-group namespace:
// every segment needs a primary group, so a narrowed group space bounds
// segment creation with the typed error, and destroying a segment
// recycles its number.
func TestGroupIDExhaustion(t *testing.T) {
	k := kernel.New(kernel.DefaultConfig(kernel.ModelPageGroup))
	k.SetIDLimits(0, 4)
	var segs []*kernel.Segment
	for {
		s, err := k.CreateSegmentChecked(1, kernel.SegmentOptions{})
		if err != nil {
			if !errors.Is(err, kernel.ErrGroupIDsExhausted) {
				t.Fatalf("exhaustion error = %v, want ErrGroupIDsExhausted", err)
			}
			break
		}
		segs = append(segs, s)
		if len(segs) > 8 {
			t.Fatal("group allocator never exhausted")
		}
	}
	if len(segs) == 0 {
		t.Fatal("no segment created before exhaustion")
	}
	if err := k.DestroySegment(segs[0]); err != nil {
		t.Fatalf("DestroySegment: %v", err)
	}
	if k.FreeGroupIDs() == 0 {
		t.Fatal("destroyed segment's group not on the free list")
	}
	if _, err := k.CreateSegmentChecked(1, kernel.SegmentOptions{}); err != nil {
		t.Fatalf("create after destroy: %v", err)
	}
}

// TestPGDetachUnderGroupExhaustion: a detach whose resync cannot mint a
// group for a page it re-derives leaves that page in its old derived
// group. The detached domain must not keep access through it: detach
// revokes the domain's derived groups of the segment, not only the
// primary one.
func TestPGDetachUnderGroupExhaustion(t *testing.T) {
	k := kernel.New(kernel.DefaultConfig(kernel.ModelPageGroup))
	a, b := k.CreateDomain(), k.CreateDomain()
	s := k.CreateSegment(2, kernel.SegmentOptions{})
	k.Attach(a, s, addr.RW)
	k.Attach(b, s, addr.RW)
	// Page 0 moves to a derived group: a write-disabled, b a member.
	if err := k.SetPageRights(a, s.Base(), addr.Read); err != nil {
		t.Fatal(err)
	}
	if err := k.Store(b, s.Base(), 1); err != nil {
		t.Fatal(err)
	}
	// No group number is left for the page's new vector {a: r--}.
	k.SetIDLimits(0, 1)
	if err := k.Detach(b, s); err != nil {
		t.Fatal(err)
	}
	vpn := k.Geometry().PageNumber(s.Base())
	if r, _, _ := k.ResolveRights(b.ID, vpn); r != addr.None {
		t.Fatalf("ResolveRights of the detached domain = %v, want ---", r)
	}
	if _, err := k.Load(b, s.Base()); !errors.Is(err, kernel.ErrProtection) {
		t.Errorf("load by the detached domain: %v, want ErrProtection", err)
	}
	if v, err := k.Load(a, s.Base()); err != nil || v != 1 {
		t.Errorf("load by a = %d, %v; want 1", v, err)
	}
	if err := k.Store(a, s.Base(), 2); !errors.Is(err, kernel.ErrProtection) {
		t.Errorf("store by read-only a: %v, want ErrProtection", err)
	}
	if err := errors.Join(oracle.Verify(k), k.CheckPageGroupBookkeeping()); err != nil {
		t.Error(err)
	}
}

// TestPGResyncUnderGroupExhaustion: a rights change whose resync needs a
// fresh group number for a page it re-derives, when none is free, is
// refused with ErrGroupIDsExhausted and changes nothing. Let through, it
// would leave the page in its old derived group, where the domain keeps
// the rights the change took away while ResolveRights reports the new
// ones. SetSegmentRights and a renewed Attach both resync the segment.
func TestPGResyncUnderGroupExhaustion(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(k *kernel.Kernel, b *kernel.Domain, s *kernel.Segment) error
		want   addr.Rights // b's rights on page 0 once the change goes through
	}{
		{"SetSegmentRights", func(k *kernel.Kernel, b *kernel.Domain, s *kernel.Segment) error {
			return k.SetSegmentRights(b, s, addr.None)
		}, addr.None},
		{"renewed Attach", func(k *kernel.Kernel, b *kernel.Domain, s *kernel.Segment) error {
			return k.Attach(b, s, addr.Read)
		}, addr.Read},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := kernel.New(kernel.DefaultConfig(kernel.ModelPageGroup))
			a, b := k.CreateDomain(), k.CreateDomain()
			s := k.CreateSegment(2, kernel.SegmentOptions{})
			k.Attach(a, s, addr.RW)
			k.Attach(b, s, addr.RW)
			if err := k.Store(b, s.Base(), 1); err != nil {
				t.Fatal(err)
			}
			// Page 0 moves to a derived group: a write-disabled, b a member.
			if err := k.SetPageRights(a, s.Base(), addr.Read); err != nil {
				t.Fatal(err)
			}
			vpn := k.Geometry().PageNumber(s.Base())
			audit := func(when string) {
				t.Helper()
				if err := errors.Join(oracle.Verify(k), k.CheckPageGroupBookkeeping()); err != nil {
					t.Errorf("%s: %v", when, err)
				}
			}

			// No group number is left for the page's new vector.
			k.SetIDLimits(0, 1)
			if err := tc.change(k, b, s); !errors.Is(err, kernel.ErrGroupIDsExhausted) {
				t.Fatalf("change under a drained group namespace = %v, want ErrGroupIDsExhausted", err)
			}
			if r, _, _ := k.ResolveRights(b.ID, vpn); r != addr.RW {
				t.Errorf("ResolveRights of b after the refusal = %v, want rw-", r)
			}
			if err := k.Store(b, s.Base(), 2); err != nil {
				t.Errorf("store by b after the refusal: %v", err)
			}
			audit("after the refusal")

			// Once numbers are free again the same change goes through.
			k.SetIDLimits(0, 0)
			if err := tc.change(k, b, s); err != nil {
				t.Fatalf("change with the limit lifted: %v", err)
			}
			if r, _, _ := k.ResolveRights(b.ID, vpn); r != tc.want {
				t.Errorf("ResolveRights of b = %v, want %v", r, tc.want)
			}
			if err := k.Store(b, s.Base(), 3); !errors.Is(err, kernel.ErrProtection) {
				t.Errorf("store by b after the change: %v, want ErrProtection", err)
			}
			audit("after the change")
		})
	}
}

// TestStaleHandles: operations on a destroyed domain's or segment's
// handle must fail with the typed error in every organization — double
// destroy, fork of a corpse, a reference through a dead domain, and every
// call that would write through the handle into the pooled struct.
// Afterwards the oracle's destroy sweep must be clean, and the ID's next
// incarnation (LIFO recycling hands it the same struct, so the old handle
// names it again) must start with no attachment, override, execution
// site or DMA engine acting for it, denied everywhere. A destroyed
// segment's range, and under page-group its group number, go to the next
// segment created: a stale segment handle must grant nothing in it.
func TestStaleHandles(t *testing.T) {
	for _, model := range lifecycleModels {
		t.Run(model.String(), func(t *testing.T) {
			cfg := kernel.DefaultConfig(model)
			cfg.Devices = []kernel.DeviceConfig{{Kind: iommu.DMAEngine}}
			k := kernel.New(cfg)
			s := k.CreateSegment(4, kernel.SegmentOptions{Name: "s"})
			d := k.CreateDomain()
			k.Attach(d, s, addr.RW)
			if err := k.Touch(d, s.Base(), addr.Store); err != nil {
				t.Fatalf("store before destroy: %v", err)
			}
			buf := make([]byte, k.Geometry().PageSize())
			for i := range buf {
				buf[i] = 0xdd
			}
			k.ProgramDevice(0, d)
			if err := k.DeviceWritePage(0, s.Base(), buf); err != nil {
				t.Fatalf("DMA before destroy: %v", err)
			}
			id := d.ID
			if err := k.DestroyDomain(d); err != nil {
				t.Fatalf("DestroyDomain: %v", err)
			}
			if err := k.DestroyDomain(d); !errors.Is(err, kernel.ErrDomainDestroyed) {
				t.Fatalf("double destroy = %v, want ErrDomainDestroyed", err)
			}
			if _, err := k.ForkDomain(d); !errors.Is(err, kernel.ErrDomainDestroyed) {
				t.Fatalf("fork of corpse = %v, want ErrDomainDestroyed", err)
			}
			// Ordered so that, were any call to write through the handle,
			// the writes would survive the calls after it.
			for _, c := range []struct {
				name string
				call func() error
			}{
				{"Detach", func() error { return k.Detach(d, s) }},
				{"ClearPageRights", func() error { return k.ClearPageRights(d, s.PageVA(1)) }},
				{"SetSegmentRights", func() error { return k.SetSegmentRights(d, s, addr.RW) }},
				{"SetPageRights", func() error { return k.SetPageRights(d, s.PageVA(1), addr.RW) }},
				{"SetExecutionSite", func() error { return k.SetExecutionSite(d, s.Base()) }},
				{"Touch", func() error {
					err := k.Touch(d, s.Base(), addr.Store)
					if fe := (*kernel.FaultError)(nil); !errors.As(err, &fe) {
						return fmt.Errorf("not a FaultError: %w", err)
					}
					return err
				}},
			} {
				if err := c.call(); !errors.Is(err, kernel.ErrDomainDestroyed) {
					t.Errorf("stale %s = %v, want ErrDomainDestroyed", c.name, err)
				}
			}
			for _, c := range []struct {
				name string
				call func()
			}{
				{"Attach", func() { k.Attach(d, s, addr.RW) }},
				{"ProgramDevice", func() { k.ProgramDevice(0, d) }},
			} {
				func() {
					defer func() {
						if err, _ := recover().(error); !errors.Is(err, kernel.ErrDomainDestroyed) {
							t.Errorf("stale %s panicked with %v, want ErrDomainDestroyed", c.name, err)
						}
					}()
					c.call()
				}()
			}
			if err := k.DeviceWritePage(0, s.Base(), buf); !errors.Is(err, iommu.ErrNoAuthority) {
				t.Errorf("DMA for the destroyed domain = %v, want ErrNoAuthority", err)
			}
			if err := oracle.VerifyDestroyed(k, id); err != nil {
				t.Errorf("after the stale calls: %v", err)
			}
			if err := k.CheckAttachmentBookkeeping(); err != nil {
				t.Errorf("after the stale calls: %v", err)
			}

			// Recycle the ID: the pooled struct becomes the new
			// incarnation, which must inherit nothing written through the
			// dead handle.
			d2, err := k.CreateDomainChecked()
			if err != nil {
				t.Fatal(err)
			}
			if d2.ID != id {
				t.Fatalf("expected LIFO recycling, got ID %d (was %d)", d2.ID, id)
			}
			if r, ok := d2.Attached(s); ok {
				t.Errorf("recycled domain starts attached with %v", r)
			}
			if site := k.ExecutionSite(d2); site != 0 {
				t.Errorf("recycled domain starts executing at %#x", uint64(site))
			}
			for i := range s.NumPages() {
				if r, ok := d2.PageOverride(s.PageVPN(i)); ok {
					t.Errorf("recycled domain starts with override %v on page %d", r, i)
				}
				for _, kind := range []addr.AccessKind{addr.Load, addr.Store} {
					if err := k.Touch(d2, s.PageVA(i), kind); !errors.Is(err, kernel.ErrProtection) {
						t.Errorf("recycled domain's %v of page %d = %v, want ErrProtection", kind, i, err)
					}
				}
			}
			// The engine was programmed for the dead incarnation and never
			// reprogrammed: it must not act for the new one.
			k.Attach(d2, s, addr.RW)
			if err := k.Store(d2, s.Base(), 42); err != nil {
				t.Fatalf("recycled domain's store: %v", err)
			}
			if err := k.DeviceWritePage(0, s.Base(), buf); !errors.Is(err, iommu.ErrNoAuthority) {
				t.Errorf("DMA through the never-reprogrammed engine = %v, want ErrNoAuthority", err)
			}
			if v, err := k.Load(d2, s.Base()); err != nil || v != 42 {
				t.Errorf("recycled domain's word = %#x, %v; want 0x2a", v, err)
			}

			old := k.CreateSegment(2, kernel.SegmentOptions{Name: "old"})
			if err := k.GrantExecutor(old, s, addr.Read); err != nil && !errors.Is(err, kernel.ErrExecUnsupported) {
				t.Fatalf("GrantExecutor: %v", err)
			}
			if err := k.DestroySegment(old); err != nil {
				t.Fatalf("DestroySegment: %v", err)
			}
			revokes := k.Counters().Get("kernel.exec_revokes")
			if err := k.RevokeExecutor(old, s); err != nil && !errors.Is(err, kernel.ErrExecUnsupported) {
				t.Errorf("RevokeExecutor of a destroyed segment: %v", err)
			}
			if n := k.Counters().Get("kernel.exec_revokes") - revokes; n != 0 {
				t.Errorf("RevokeExecutor found %d grants naming the destroyed segment", n)
			}
			fresh := k.CreateSegment(2, kernel.SegmentOptions{Name: "fresh"})
			if fresh.Base() != old.Base() || fresh.Group() != old.Group() {
				t.Fatalf("fresh segment at %#x group %d, want the freed %#x group %d",
					uint64(fresh.Base()), fresh.Group(), uint64(old.Base()), old.Group())
			}
			for _, c := range []struct {
				name string
				call func() error
			}{
				{"DestroySegment", func() error { return k.DestroySegment(old) }},
				{"SetSegmentRights", func() error { return k.SetSegmentRights(d2, old, addr.RW) }},
				{"GrantExecutor target", func() error { return k.GrantExecutor(old, s, addr.RW) }},
				{"GrantExecutor code", func() error { return k.GrantExecutor(fresh, old, addr.RW) }},
			} {
				if err := c.call(); !errors.Is(err, kernel.ErrSegmentDestroyed) {
					t.Errorf("stale segment %s = %v, want ErrSegmentDestroyed", c.name, err)
				}
			}
			func() {
				defer func() {
					if err, _ := recover().(error); !errors.Is(err, kernel.ErrSegmentDestroyed) {
						t.Errorf("Attach to a stale segment panicked with %v, want ErrSegmentDestroyed", err)
					}
				}()
				k.Attach(d2, old, addr.RW)
			}()
			owner := k.CreateDomain()
			k.Attach(owner, fresh, addr.RW)
			if err := k.Touch(owner, fresh.Base(), addr.Store); err != nil {
				t.Fatalf("owner's store to the fresh segment: %v", err)
			}
			if err := k.Touch(d2, fresh.Base(), addr.Store); !errors.Is(err, kernel.ErrProtection) {
				t.Errorf("store through the stale segment's grant = %v, want ErrProtection", err)
			}
			if err := k.CheckAttachmentBookkeeping(); err != nil {
				t.Errorf("after the stale segment calls: %v", err)
			}
			if err := k.CheckPageGroupBookkeeping(); err != nil {
				t.Errorf("after the stale segment calls: %v", err)
			}
		})
	}
}

// TestForkSharesOverridesCopyOnWrite pins the fork cost model: the
// child inherits attachments and shares the parent's override table by
// pointer; the first divergent override (on either side) pays for the
// one private copy, observable on the kernel.cow_override_copies
// counter, and never leaks through to the other domain.
func TestForkSharesOverridesCopyOnWrite(t *testing.T) {
	k := kernel.New(kernel.DefaultConfig(kernel.ModelDomainPage))
	parent := k.CreateDomain()
	s := k.CreateSegment(4, kernel.SegmentOptions{Name: "seg"})
	k.Attach(parent, s, addr.RW)
	if err := k.SetPageRights(parent, s.PageVA(1), addr.Read); err != nil {
		t.Fatal(err)
	}

	ctrs := k.Counters()
	child, err := k.ForkDomain(parent)
	if err != nil {
		t.Fatalf("ForkDomain: %v", err)
	}
	if got := ctrs.Get("kernel.cow_override_copies"); got != 0 {
		t.Fatalf("fork itself copied the override table (%d copies)", got)
	}
	// The child sees the parent's override through the shared table.
	if r, ok := child.PageOverride(k.Geometry().PageNumber(s.PageVA(1))); !ok || r != addr.Read {
		t.Fatalf("child override = %v,%v; want Read,true", r, ok)
	}

	// Child diverges: exactly one copy, parent unaffected.
	if err := k.SetPageRights(child, s.PageVA(2), addr.Read); err != nil {
		t.Fatal(err)
	}
	if got := ctrs.Get("kernel.cow_override_copies"); got != 1 {
		t.Fatalf("divergent override made %d copies, want 1", got)
	}
	if _, ok := parent.PageOverride(k.Geometry().PageNumber(s.PageVA(2))); ok {
		t.Fatal("child's divergent override leaked into the parent")
	}
	// Parent mutates after the break: no further copying, no leak back.
	if err := k.SetPageRights(parent, s.PageVA(3), addr.Read); err != nil {
		t.Fatal(err)
	}
	if got := ctrs.Get("kernel.cow_override_copies"); got != 1 {
		t.Fatalf("post-break parent mutation copied again (%d copies)", got)
	}
	if _, ok := child.PageOverride(k.Geometry().PageNumber(s.PageVA(3))); ok {
		t.Fatal("parent's override leaked into the child after the break")
	}
}

// TestForkInheritsAttachments: the child can touch everything the
// parent could, at the parent's rights, without any explicit Attach.
// The parent's read-only override on a page another domain writes puts
// the page in a derived group where the parent is write-disabled, so
// under the page-group model the child must join that group with the
// parent's write-disable bit.
func TestForkInheritsAttachments(t *testing.T) {
	for _, model := range lifecycleModels {
		t.Run(model.String(), func(t *testing.T) {
			k := kernel.New(kernel.DefaultConfig(model))
			parent, writer := k.CreateDomain(), k.CreateDomain()
			rw := k.CreateSegment(2, kernel.SegmentOptions{Name: "rw"})
			ro := k.CreateSegment(2, kernel.SegmentOptions{Name: "ro"})
			k.Attach(parent, rw, addr.RW)
			k.Attach(parent, ro, addr.Read)
			k.Attach(writer, rw, addr.RW)
			if err := k.SetPageRights(parent, rw.PageVA(1), addr.Read); err != nil {
				t.Fatalf("SetPageRights: %v", err)
			}
			child, err := k.ForkDomain(parent)
			if err != nil {
				t.Fatalf("ForkDomain: %v", err)
			}
			if err := k.CheckPageGroupBookkeeping(); err != nil {
				t.Fatalf("after fork: %v", err)
			}
			if err := k.CheckAttachmentBookkeeping(); err != nil {
				t.Fatalf("after fork: %v", err)
			}
			if err := k.Touch(child, rw.PageVA(1), addr.Load); err != nil {
				t.Fatalf("child load from inherited read-only override: %v", err)
			}
			if err := k.Touch(child, rw.PageVA(1), addr.Store); err == nil {
				t.Fatal("child stored through a read-only override")
			}
			if err := k.Touch(child, rw.Base(), addr.Store); err != nil {
				t.Fatalf("child store to inherited RW segment: %v", err)
			}
			if err := k.Touch(child, ro.Base(), addr.Load); err != nil {
				t.Fatalf("child load from inherited RO segment: %v", err)
			}
			if err := k.Touch(child, ro.Base(), addr.Store); err == nil {
				t.Fatal("child stored to a read-only inheritance")
			}
		})
	}
}

// TestDestroyLeavesNoResidue runs a domain across two CPUs (and into
// overrides) in every organization, destroys it, and sweeps the whole
// machine with the oracle: zero residual authority, ID and struct on
// the free lists.
func TestDestroyLeavesNoResidue(t *testing.T) {
	for _, model := range lifecycleModels {
		t.Run(model.String(), func(t *testing.T) {
			cfg := kernel.DefaultConfig(model)
			cfg.CPUs = 2
			k, err := kernel.NewChecked(cfg)
			if err != nil {
				t.Fatalf("NewChecked: %v", err)
			}
			d := k.CreateDomain()
			s := k.CreateSegment(4, kernel.SegmentOptions{Name: "seg"})
			k.Attach(d, s, addr.RW)
			for cpu := 0; cpu < 2; cpu++ {
				k.SetCPU(cpu)
				if err := k.Touch(d, s.PageVA(uint64(cpu)), addr.Store); err != nil {
					t.Fatalf("touch on CPU %d: %v", cpu, err)
				}
			}
			if err := k.SetPageRights(d, s.PageVA(3), addr.Read); err != nil {
				t.Fatal(err)
			}
			k.SetCPU(0)
			id := d.ID
			if err := k.DestroyDomain(d); err != nil {
				t.Fatalf("DestroyDomain: %v", err)
			}
			if vs := oracle.DestroyViolations(k, id); len(vs) != 0 {
				t.Fatalf("residual authority after destroy:\n%v", vs)
			}
			if k.LiveDomains() != 0 || k.FreeDomainIDs() != 1 {
				t.Fatalf("live=%d free=%d after destroy, want 0/1",
					k.LiveDomains(), k.FreeDomainIDs())
			}
			// The segment is fully detached: it can be destroyed at once.
			if err := k.DestroySegment(s); err != nil {
				t.Fatalf("DestroySegment after domain destroy: %v", err)
			}
		})
	}
}

// TestDestroySegmentDropsSharerRecords: after a segment dies, its pages'
// sharer sets must die with it, or the segment that reuses its address
// range would direct shootdowns at the CPUs and devices of the previous
// tenancy.
func TestDestroySegmentDropsSharerRecords(t *testing.T) {
	for _, model := range lifecycleModels {
		t.Run(model.String(), func(t *testing.T) {
			cfg := kernel.DefaultConfig(model)
			cfg.CPUs = 2
			cfg.Devices = []kernel.DeviceConfig{{Kind: iommu.DMAEngine}}
			k, err := kernel.NewChecked(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := k.CreateDomain()
			s := k.CreateSegment(2, kernel.SegmentOptions{Name: "seg"})
			k.Attach(d, s, addr.RW)
			seats := []int{0, 1, k.DeviceSeat(0)}
			for cpu := 0; cpu < 2; cpu++ {
				k.SetCPU(cpu)
				for i := range s.NumPages() {
					if err := k.Touch(d, s.PageVA(i), addr.Store); err != nil {
						t.Fatal(err)
					}
				}
			}
			k.ProgramDevice(0, d)
			for i := range s.NumPages() {
				if _, err := k.DeviceReadPage(0, s.PageVA(i)); err != nil {
					t.Fatal(err)
				}
			}
			for i := range s.NumPages() {
				for _, seat := range seats {
					if !k.PageResident(s.PageVPN(i), seat) {
						t.Fatalf("page %d's sharer set lacks %s after its install", i, k.SeatName(seat))
					}
				}
			}
			k.SetCPU(0)
			if err := k.Detach(d, s); err != nil {
				t.Fatal(err)
			}
			if err := k.DestroySegment(s); err != nil {
				t.Fatal(err)
			}
			fresh := k.CreateSegment(s.NumPages(), kernel.SegmentOptions{Name: "fresh"})
			if fresh.Base() != s.Base() {
				t.Fatalf("fresh segment at %#x, want the freed base %#x", uint64(fresh.Base()), uint64(s.Base()))
			}
			for i := range fresh.NumPages() {
				for _, seat := range seats {
					if k.PageResident(fresh.PageVPN(i), seat) {
						t.Errorf("page %d of the reused range lists %s as sharer", i, k.SeatName(seat))
					}
				}
			}
		})
	}
}

// TestDestroyedDomainDeniedEverywhere: after destroy, the dead ID gets
// nothing on any CPU in any organization, even where its entries were
// hot moments before.
func TestDestroyedDomainDeniedEverywhere(t *testing.T) {
	for _, model := range lifecycleModels {
		t.Run(model.String(), func(t *testing.T) {
			cfg := kernel.DefaultConfig(model)
			cfg.CPUs = 2
			k, err := kernel.NewChecked(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := k.CreateDomain()
			s := k.CreateSegment(2, kernel.SegmentOptions{Name: "seg"})
			k.Attach(d, s, addr.RW)
			for cpu := 0; cpu < 2; cpu++ {
				k.SetCPU(cpu)
				if err := k.Touch(d, s.Base(), addr.Store); err != nil {
					t.Fatalf("warm store on CPU %d: %v", cpu, err)
				}
			}
			k.SetCPU(0)
			if err := k.DestroyDomain(d); err != nil {
				t.Fatal(err)
			}
			// A fresh incarnation of the same ID must start from nothing.
			reborn := k.CreateDomain()
			for cpu := 0; cpu < 2; cpu++ {
				k.SetCPU(cpu)
				if err := k.Touch(reborn, s.Base(), addr.Load); err == nil {
					t.Fatalf("recycled ID %d read the dead incarnation's segment on CPU %d", reborn.ID, cpu)
				}
			}
		})
	}
}

// TestKernelAccessPagesIn: a kernel-mode read or write of a paged-out
// page brings its contents back from the backing store, releasing the
// block, rather than mapping a zero frame over them.
func TestKernelAccessPagesIn(t *testing.T) {
	access := []struct {
		name string
		fn   func(k *kernel.Kernel, vpn addr.VPN) error
	}{
		{"read", func(k *kernel.Kernel, vpn addr.VPN) error {
			data, err := k.KernelReadPage(vpn)
			if err == nil && data[8] != 42 {
				err = fmt.Errorf("kernel read saw %d at offset 8, want 42", data[8])
			}
			return err
		}},
		{"write", func(k *kernel.Kernel, vpn addr.VPN) error {
			return k.KernelWritePage(vpn, []byte{7})
		}},
	}
	for _, model := range lifecycleModels {
		for _, a := range access {
			t.Run(model.String()+"/"+a.name, func(t *testing.T) {
				k := kernel.New(kernel.DefaultConfig(model))
				d := k.CreateDomain()
				s := k.CreateSegment(1, kernel.SegmentOptions{})
				k.Attach(d, s, addr.RW)
				vpn := s.PageVPN(0)
				if err := k.Store(d, s.Base()+8, 42); err != nil {
					t.Fatal(err)
				}
				if err := k.PageOut(vpn); err != nil {
					t.Fatal(err)
				}
				if err := a.fn(k, vpn); err != nil {
					t.Fatal(err)
				}
				if k.OnBackingStore(vpn) {
					t.Error("page still on the backing store after the kernel access")
				}
				if v, err := k.Load(d, s.Base()+8); err != nil || v != 42 {
					t.Errorf("stored word = %d, %v; want 42", v, err)
				}
				if err := k.Detach(d, s); err != nil {
					t.Fatal(err)
				}
				if err := k.DestroySegment(s); err != nil {
					t.Fatal(err)
				}
				if n := k.DiskBlocks(s); n != 0 {
					t.Errorf("after destroy: disk blocks = %d, want 0", n)
				}
			})
		}
	}
}
