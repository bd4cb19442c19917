package kernel

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/smp"
)

// Touch issues one memory reference by domain d at va, running the full
// hardware access path and resolving faults: demand-zero and demand-paging
// page faults are handled by the kernel's pager; protection faults are
// delivered to the segment's user-level handler, which typically
// manipulates rights and lets the access retry (the Appel-Li style
// user-level VM primitives the paper's workloads rely on). A destroyed
// domain's handle fails before anything runs, with a FaultError wrapping
// ErrDomainDestroyed.
func (k *Kernel) Touch(d *Domain, va addr.VA, kind addr.AccessKind) error {
	_, err := k.touch(d, va, kind)
	return err
}

// touch is Touch returning a successful store's page record (markDirty),
// so the store's data copy needs no second lookup.
func (k *Kernel) touch(d *Domain, va addr.VA, kind addr.AccessKind) (*page, error) {
	if err := k.checkLive(d, "touch"); err != nil {
		return nil, faultErr(d, va, kind, nil, err)
	}
	k.Switch(d)
	for try := 0; try < maxFaultRetries; try++ {
		k.Switch(d) // a fault handler may have switched domains
		if trap := k.hooks.SpuriousTrap; trap != nil && trap(d.ID, va, kind) {
			k.hInjSpurious.Inc()
			// Injected glitch: the hardware trapped although rights are
			// fine. Charge the trap and deliver it like a real fault;
			// idempotent handlers re-grant and the access retries.
			k.cycles.Add(k.cost.Trap)
			if err := k.handleProtFault(d, va, kind); err != nil {
				return nil, err
			}
			continue
		}
		out := k.mach.Access(va, kind)
		switch out.Fault {
		case cpu.FaultNone:
			if kind == addr.Store {
				return k.markDirty(k.geo.PageNumber(va)), nil
			}
			return nil, nil
		case cpu.FaultPageUnmapped:
			if k.Mapped(k.geo.PageNumber(va)) {
				// The page has a translation; the "unmapped" fault came
				// from a per-space view with no record for this domain
				// (ModelConventional): a protection matter, not paging.
				if err := k.handleProtFault(d, va, kind); err != nil {
					return nil, err
				}
				break
			}
			if err := k.handlePageFault(va); err != nil {
				return nil, faultErr(d, va, kind, nil, err)
			}
		case cpu.FaultProtection:
			if err := k.handleProtFault(d, va, kind); err != nil {
				return nil, err
			}
		case cpu.FaultNoAuthority:
			return nil, faultErr(d, va, kind, ErrNoAuthority, nil)
		}
	}
	return nil, faultErr(d, va, kind, ErrFaultLoop, nil)
}

// handlePageFault resolves a missing translation: pages that were paged
// out come back from the backing store; pages never touched are
// demand-zero allocated. Addresses outside all segments are errors.
func (k *Kernel) handlePageFault(va addr.VA) error {
	vpn := k.geo.PageNumber(va)
	p := k.pageRecord(vpn)
	if p == nil {
		return fmt.Errorf("%w: page fault at %#x", ErrNoAuthority, uint64(va))
	}
	k.hPageFaults.Inc()
	if p.onDisk {
		return k.pageIn(vpn)
	}
	// Demand-zero: first touch of a fresh segment page.
	k.hZeroFills.Inc()
	k.cycles.Add(k.cost.MemCopyPage)
	return k.mapFresh(p, vpn)
}

// markDirty sets the dirty bit of vpn's translation, if it has one, and
// returns the page's record (nil when the page is unmapped).
func (k *Kernel) markDirty(vpn addr.VPN) *page {
	p := k.mappedPage(vpn)
	if p != nil {
		p.dirty = true
	}
	return p
}

// mapFresh allocates a zeroed frame for vpn and maps it in the page's
// record p, letting the page daemon evict under memory pressure when
// enabled. A page has one translation: an already mapped one is refused.
func (k *Kernel) mapFresh(p *page, vpn addr.VPN) error {
	if p.mapped {
		return fmt.Errorf("kernel: page %#x already mapped to frame %d", uint64(vpn), p.frame)
	}
	if err := inject(k.hooks.FrameAlloc, vpn, k.hInjFrameFails); err != nil {
		return fmt.Errorf("kernel: page fault at %#x: %w", uint64(k.geo.Base(vpn)), err)
	}
	pfn, err := k.memory.Alloc()
	if err != nil && k.cfg.AutoEvict {
		if evErr := k.evictOne(vpn); evErr == nil {
			pfn, err = k.memory.Alloc()
		}
	}
	if err != nil {
		return fmt.Errorf("kernel: page fault at %#x: %w", uint64(k.geo.Base(vpn)), err)
	}
	p.frame, p.mapped = pfn, true
	if k.cfg.AutoEvict {
		// The page daemon is the FIFO's only reader.
		k.residentFIFO = append(k.residentFIFO, vpn)
	}
	return nil
}

// evictOne pages out the oldest resident page other than except.
func (k *Kernel) evictOne(except addr.VPN) error {
	for len(k.residentFIFO) > 0 {
		victim := k.residentFIFO[0]
		k.residentFIFO = k.residentFIFO[1:]
		if victim == except || !k.Mapped(victim) {
			continue
		}
		k.hAutoEvictions.Inc()
		return k.PageOut(victim)
	}
	return fmt.Errorf("kernel: nothing evictable")
}

// handleProtFault dispatches a protection fault to the segment's handler.
func (k *Kernel) handleProtFault(d *Domain, va addr.VA, kind addr.AccessKind) error {
	k.hProtFaults.Inc()
	s := k.FindSegment(va)
	if s == nil {
		return faultErr(d, va, kind, ErrNoAuthority, nil)
	}
	if s.handler == nil {
		return faultErr(d, va, kind, ErrProtection, noHandler{s})
	}
	k.hHandlerUpcalls.Inc()
	// Delivering the fault to a user-level handler costs a trap (the
	// machine already charged the hardware fault itself).
	k.cycles.Add(k.cost.Trap)
	f := Fault{K: k, Domain: d, VA: va, Kind: kind, Segment: s}
	if err := inject(k.hooks.HandlerError, f, k.hInjHandlerErrs); err != nil {
		return faultErr(d, va, kind, ErrProtection, err)
	}
	if err := s.handler(f); err != nil {
		return faultErr(d, va, kind, ErrProtection, err)
	}
	return nil
}

// noHandler is the cause of a protection fault in a segment with no
// handler. Pointer-shaped, it formats its text only when asked, so a
// denial allocates nothing beyond its FaultError.
type noHandler struct{ seg *Segment }

func (e noHandler) Error() string { return fmt.Sprintf("segment %q has no handler", e.seg.Name) }

// --- Functional data access ---
// The machine approves accesses and accounts costs; actual bytes live in
// physical memory and move here.

// frameData returns the physical bytes behind page vpn given its record
// p as mappedPage or markDirty return it: nil, an unmapped page, is an
// error.
func (k *Kernel) frameData(p *page, vpn addr.VPN) ([]byte, error) {
	if p == nil {
		return nil, fmt.Errorf("kernel: page %#x not mapped", uint64(vpn))
	}
	return k.memory.Data(p.frame), nil
}

// Load performs a protection-checked 64-bit load at va (must be 8-byte
// aligned within a page).
func (k *Kernel) Load(d *Domain, va addr.VA) (uint64, error) {
	if err := k.Touch(d, va, addr.Load); err != nil {
		return 0, err
	}
	vpn := k.geo.PageNumber(va)
	data, err := k.frameData(k.mappedPage(vpn), vpn)
	if err != nil {
		return 0, err
	}
	off := k.geo.Offset(va)
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(data[off+i]) << (8 * i)
	}
	return v, nil
}

// Store performs a protection-checked 64-bit store at va.
func (k *Kernel) Store(d *Domain, va addr.VA, v uint64) error {
	p, err := k.touch(d, va, addr.Store)
	if err != nil {
		return err
	}
	data, err := k.frameData(p, k.geo.PageNumber(va))
	if err != nil {
		return err
	}
	off := k.geo.Offset(va)
	for i := uint64(0); i < 8; i++ {
		data[off+i] = byte(v >> (8 * i))
	}
	return nil
}

// ReadPage copies out the contents of the page holding va after a
// protection-checked load of its first byte. Used by servers (pagers,
// checkpointers) that process whole pages.
func (k *Kernel) ReadPage(d *Domain, va addr.VA) ([]byte, error) {
	vpn := k.geo.PageNumber(va)
	if err := k.Touch(d, k.geo.Base(vpn), addr.Load); err != nil {
		return nil, err
	}
	data, err := k.frameData(k.mappedPage(vpn), vpn)
	if err != nil {
		return nil, err
	}
	k.cycles.Add(k.cost.MemCopyPage)
	return append([]byte(nil), data...), nil
}

// KernelReadPage copies out a page's contents in kernel mode (no domain
// protection check): the path used by coherence agents and pagers that
// act below the protection layer. A paged-out page is paged in first,
// and a page never mapped is demand-zeroed.
func (k *Kernel) KernelReadPage(vpn addr.VPN) ([]byte, error) {
	data, err := k.KernelPeekPage(vpn)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), data...), nil
}

// KernelPeekPage is KernelReadPage without the host-side copy: the
// returned slice aliases physical memory and is valid only until this
// kernel next mutates the page or reuses its frame. The simulated page
// copy is still charged — the modeled agent copies the bytes; the host
// merely avoids materializing a second buffer. Callers that retain or
// mutate the data must use KernelReadPage.
func (k *Kernel) KernelPeekPage(vpn addr.VPN) ([]byte, error) {
	p, err := k.kernelPage(vpn, "read")
	if err != nil {
		return nil, err
	}
	k.cycles.Add(k.cost.MemCopyPage)
	return k.memory.Data(p.frame), nil
}

// KernelWritePage overwrites a page's contents in kernel mode, paging
// it in or demand-zeroing it first as KernelReadPage does, and marks
// the page dirty as a store would.
func (k *Kernel) KernelWritePage(vpn addr.VPN, buf []byte) error {
	p, err := k.kernelPage(vpn, "write")
	if err != nil {
		return err
	}
	p.dirty = true
	copy(k.memory.Data(p.frame), buf)
	k.cycles.Add(k.cost.MemCopyPage)
	return nil
}

// kernelPage returns the record of vpn mapped for a kernel-mode access
// (op names it in errors): a paged-out page comes back through pageIn,
// which releases its backing-store copy, and a page never mapped gets a
// fresh zero frame.
func (k *Kernel) kernelPage(vpn addr.VPN, op string) (*page, error) {
	p := k.pageRecord(vpn)
	if p == nil {
		return nil, fmt.Errorf("%w: kernel %s of %#x", ErrNoAuthority, op, uint64(vpn))
	}
	var err error
	switch {
	case p.onDisk:
		err = k.pageIn(vpn)
	case !p.mapped:
		err = k.mapFresh(p, vpn)
	}
	return p, err
}

// --- Paging (Section 4.1.3) ---

// Pager is the backing-store policy behind page-out and page-in. The default
// pager writes pages to the simulated disk; the compression paging
// workload (Appel & Li, Table 1 rows 13-14) substitutes a compressed
// in-memory store.
type Pager interface {
	// Out stores the page's contents, charging its own costs to the
	// kernel as appropriate.
	Out(vpn addr.VPN, data []byte) error
	// In retrieves (and releases) the stored contents of vpn.
	In(vpn addr.VPN) ([]byte, error)
}

// diskPager is the default Pager: the simulated disk.
type diskPager struct{ k *Kernel }

func (p diskPager) Out(vpn addr.VPN, data []byte) error {
	p.k.disk.Write(uint64(vpn), data)
	p.k.cycles.Add(p.k.cost.DiskWrite)
	return nil
}

func (p diskPager) In(vpn addr.VPN) ([]byte, error) {
	// Peek, then release the block: pageIn copies the bytes into the
	// frame immediately, and nothing reads them again.
	data, err := p.k.disk.Peek(uint64(vpn))
	if err != nil {
		return nil, err
	}
	p.k.disk.Delete(uint64(vpn))
	p.k.cycles.Add(p.k.cost.DiskRead)
	return data, nil
}

// SetPager replaces the paging backend. A nil pager restores the disk.
func (k *Kernel) SetPager(p Pager) { k.pager = p }

func (k *Kernel) activePager() Pager {
	if k.pager != nil {
		return k.pager
	}
	return diskPager{k: k}
}

// PageOut moves the page to the backing store and unmaps it: save the
// contents, invalidate the TLB entry, flush the page's cache lines, free
// the frame. Protection structures need no scan: under domain-page, stale
// PLB entries age out and accesses fault on the missing translation;
// under page-group the TLB entry is gone.
func (k *Kernel) PageOut(vpn addr.VPN) error {
	p := k.pageRecord(vpn)
	if p == nil {
		return fmt.Errorf("%w: page-out of %#x", ErrNoAuthority, uint64(vpn))
	}
	if !p.mapped {
		return fmt.Errorf("kernel: page-out of unmapped page %#x", uint64(vpn))
	}
	// Injected backing-store failures fire before any state changes: a
	// failed page-out leaves the page resident and consistent.
	if err := inject(k.hooks.PageOut, vpn, k.hInjPageoutFails); err != nil {
		return fmt.Errorf("kernel: page-out of %#x: %w", uint64(vpn), err)
	}
	if err := k.activePager().Out(vpn, k.memory.Data(p.frame)); err != nil {
		return fmt.Errorf("kernel: page-out of %#x: %w", uint64(vpn), err)
	}
	if err := k.dropTranslation(p, vpn); err != nil {
		return err
	}
	p.onDisk = true
	k.hPageouts.Inc()
	return nil
}

// pageIn brings a paged-out page back: allocate a frame, map it, read the
// contents from the backing store.
func (k *Kernel) pageIn(vpn addr.VPN) error {
	p := k.pageRecord(vpn)
	if p == nil || !p.onDisk {
		return fmt.Errorf("kernel: page-in of %#x: not on disk", uint64(vpn))
	}
	// Injected backing-store failures fire before the frame is allocated,
	// so the page stays on disk and a later retry can succeed.
	if err := inject(k.hooks.PageIn, vpn, k.hInjPageinFails); err != nil {
		return fmt.Errorf("kernel: page-in of %#x: %w", uint64(vpn), err)
	}
	if err := k.mapFresh(p, vpn); err != nil {
		return err
	}
	data, err := k.activePager().In(vpn)
	if err != nil {
		// Unwind the fresh mapping: leaving a zeroed frame mapped while
		// the real contents sit on disk would be silent corruption. The
		// page stays on disk; a retry after the store recovers can page
		// it back in.
		if ferr := k.freeFrame(p); ferr != nil {
			return ferr
		}
		return fmt.Errorf("kernel: page-in of %#x: %w", uint64(vpn), err)
	}
	copy(k.memory.Data(p.frame), data)
	p.onDisk = false
	k.hPageins.Inc()
	return nil
}

// Unmap destroys the page's translation without saving its contents
// (used when discarding pages, e.g. GC from-space reclamation).
func (k *Kernel) Unmap(vpn addr.VPN) error {
	p := k.mappedPage(vpn)
	if p == nil {
		return fmt.Errorf("kernel: unmap of unmapped page %#x", uint64(vpn))
	}
	return k.unmap(p, vpn)
}

// unmap is Unmap of the mapped page vpn whose record is p.
func (k *Kernel) unmap(p *page, vpn addr.VPN) error {
	if err := k.dropTranslation(p, vpn); err != nil {
		return err
	}
	k.hUnmaps.Inc()
	return nil
}

// dropTranslation shoots down every seat's state for the mapped page
// vpn, whose record is p, while the translation still stands (a
// conventional seat walks it to find the frame's cache lines), then
// unmaps the page and frees its frame.
func (k *Kernel) dropTranslation(p *page, vpn addr.VPN) error {
	k.shootPage(p, smp.Request{Kind: smp.Unmap, VPN: vpn})
	k.flushIPIs()
	return k.freeFrame(p)
}

// freeFrame unmaps the page whose record is p and frees its frame.
func (k *Kernel) freeFrame(p *page) error {
	p.mapped, p.dirty = false, false
	return k.memory.Free(p.frame)
}

// Mapped reports whether the page currently has a translation.
func (k *Kernel) Mapped(vpn addr.VPN) bool { return k.mappedPage(vpn) != nil }

// ClearDirty clears the page's dirty bit (incremental checkpointing and
// pagers use it to track modifications between scans), returning the
// prior value.
func (k *Kernel) ClearDirty(vpn addr.VPN) bool {
	p := k.pageRecord(vpn)
	if p == nil {
		return false
	}
	was := p.dirty
	p.dirty = false
	return was
}

// Call performs a portal (RPC) invocation: switch to the server domain,
// run the server's work, switch back — the cross-domain control transfer
// whose cost Section 4.1.4 compares across models.
func (k *Kernel) Call(client, server *Domain, work func() error) error {
	k.Switch(server)
	k.hRPCCalls.Inc()
	var err error
	if work != nil {
		err = work()
	}
	k.Switch(client)
	return err
}
