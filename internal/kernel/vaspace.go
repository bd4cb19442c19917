package kernel

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/addr"
)

// Virtual address space management. Segment ranges come first from a
// free list of previously released ranges (first-fit with alignment,
// coalescing on release) and then from a bump pointer. A single address
// space system must manage its one address space as a durable resource:
// segments come and go, but ranges must never overlap while live.
//
// Note on reuse: Opal-style systems may choose never to recycle virtual
// addresses (so dangling pointers can be detected); this kernel recycles
// by default for completeness. Systems wanting unique-forever addresses
// simply never call DestroySegment.

// ErrSegmentBusy is returned when destroying a segment that still has
// attached domains.
var ErrSegmentBusy = fmt.Errorf("kernel: segment still attached")

// ErrSegmentDestroyed: the operation named a destroyed segment through a
// kept handle.
var ErrSegmentDestroyed = fmt.Errorf("kernel: segment destroyed")

// allocVA finds a range of the given length, aligned to 2^alignShift
// bytes (0 = page aligned), reusing freed ranges when possible.
func (k *Kernel) allocVA(length uint64, alignShift uint) addr.VA {
	align := uint64(1)
	if alignShift > 0 {
		align = 1 << alignShift
	}
	// First fit in the free list, accounting for alignment slack.
	for i, f := range k.freeVA {
		start := (uint64(f.Start) + align - 1) &^ (align - 1)
		if start+length > uint64(f.End()) || start+length < start {
			continue
		}
		// Carve [start, start+length) out of f; return the head and
		// tail fragments to the list.
		k.freeVA = append(k.freeVA[:i], k.freeVA[i+1:]...)
		if head := start - uint64(f.Start); head > 0 {
			k.freeVAInsert(addr.Range{Start: f.Start, Length: head})
		}
		if tail := uint64(f.End()) - (start + length); tail > 0 {
			k.freeVAInsert(addr.Range{Start: addr.VA(start + length), Length: tail})
		}
		k.hVAReuse.Inc()
		return addr.VA(start)
	}
	// Bump allocation.
	base := (uint64(k.nextVA) + align - 1) &^ (align - 1)
	if head := base - uint64(k.nextVA); head > 0 {
		k.freeVAInsert(addr.Range{Start: k.nextVA, Length: head})
	}
	k.nextVA = addr.VA(base + length)
	return addr.VA(base)
}

// freeVAInsert adds a range to the free list, coalescing with neighbors.
func (k *Kernel) freeVAInsert(r addr.Range) {
	if r.Length == 0 {
		return
	}
	i := sort.Search(len(k.freeVA), func(i int) bool { return k.freeVA[i].Start > r.Start })
	k.freeVA = slices.Insert(k.freeVA, i, r)
	// Coalesce with successor, then predecessor.
	if i+1 < len(k.freeVA) && k.freeVA[i].End() == k.freeVA[i+1].Start {
		k.freeVA[i].Length += k.freeVA[i+1].Length
		k.freeVA = append(k.freeVA[:i+1], k.freeVA[i+2:]...)
	}
	if i > 0 && k.freeVA[i-1].End() == k.freeVA[i].Start {
		k.freeVA[i-1].Length += k.freeVA[i].Length
		k.freeVA = append(k.freeVA[:i], k.freeVA[i+1:]...)
	}
}

// DestroySegment releases a segment: every domain must have detached
// first. Mapped pages are unmapped (frames freed, caches flushed, TLB
// entries invalidated), page-group state and the execution-keyed grants
// naming the segment are dropped, the page records die with the segment
// after the destroy shootdowns used their sharer sets, and the address
// range returns to the free list for reuse. Returns ErrSegmentDestroyed
// (wrapped) on a stale handle.
func (k *Kernel) DestroySegment(s *Segment) error {
	if err := k.checkSegment(s, "destroy"); err != nil {
		return err
	}
	if n := s.attached.Count(); n > 0 {
		return fmt.Errorf("%w: %q has %d attachments", ErrSegmentBusy, s.Name, n)
	}
	for i := range s.NumPages() {
		vpn, p := s.PageVPN(i), &s.pages[i]
		if p.mapped {
			if err := k.unmap(p, vpn); err != nil {
				return err
			}
		} else if p.onDisk {
			// The default pager's block dies with the page.
			k.disk.Delete(uint64(vpn))
		}
	}
	k.segOrder = slices.DeleteFunc(k.segOrder, func(seg *Segment) bool { return seg == s })
	k.engine.onDestroySegment(s)
	k.flushIPIs()
	k.execGrants = slices.DeleteFunc(k.execGrants, func(g execGrant) bool {
		return g.code == s || g.target == s
	})
	s.pages = nil
	k.freeVAInsert(s.Range)
	k.hSegmentsDestroyed.Inc()
	return nil
}
