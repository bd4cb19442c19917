// Package addr defines the address model shared by every component of the
// simulator: 64-bit virtual and physical addresses, page geometry, access
// rights, and the identifier spaces for protection domains, address spaces,
// and page-groups.
//
// The field widths follow Figure 1 of the paper: 64-bit virtual addresses
// with 4 KB base pages give a 52-bit virtual page number; protection domain
// identifiers are 16 bits; rights are a 3-bit read/write/execute vector.
// Physical addresses are 36 bits, matching the paper's entry-size
// comparison in Section 4.
package addr

import "fmt"

// VA is a 64-bit virtual address. In a single address space system a VA has
// exactly one interpretation, independent of the referencing domain.
type VA uint64

// PA is a physical address (36 bits architecturally; stored in 64).
type PA uint64

// VPN is a virtual page number: the high-order bits of a VA above the page
// offset for the system's translation page size.
type VPN uint64

// PFN is a physical frame number.
type PFN uint64

// DomainID names a protection domain (the paper's PD-ID, 16 bits). It is
// the analog of a Unix process's address space, except that it names a set
// of access rights within the single global address space rather than a
// private naming environment.
type DomainID uint16

// NilDomain is the zero DomainID; it is never assigned to a real domain.
const NilDomain DomainID = 0

// ASID is an address space identifier used only by the conventional
// (multiple address space) baseline machine, where each process has a
// private virtual address space.
type ASID uint16

// GroupID is a page-group identifier (the PA-RISC access identifier, AID).
// Group 0 is architecturally global: pages with AID 0 are accessible to
// every domain (subject to the rights field).
type GroupID uint32

// GlobalGroup is the page-group accessible to all domains (AID 0).
const GlobalGroup GroupID = 0

// SegmentID names a virtual segment: a fixed, contiguous, globally unique
// range of virtual pages (the Opal unit of allocation and sharing).
type SegmentID uint32

// NilSegment is the zero SegmentID; no real segment uses it.
const NilSegment SegmentID = 0

// Architectural constants from Figure 1.
const (
	// VABits is the width of a virtual address.
	VABits = 64
	// PABits is the width of a physical address.
	PABits = 36
	// DomainBits is the width of a protection domain identifier.
	DomainBits = 16
	// RightsBits is the width of the access rights vector.
	RightsBits = 3
)

// PageShift values for the page sizes the simulator supports. The base
// translation page is 4 KB; the PLB additionally supports protection pages
// both smaller (sub-page, Section 4.3) and larger (super-page) than the
// translation page.
const (
	// BasePageShift is log2 of the default 4 KB translation page.
	BasePageShift = 12
	// BasePageSize is the default translation page size in bytes.
	BasePageSize = 1 << BasePageShift
	// MinProtShift is the smallest supported protection page (128 B,
	// matching the IBM 801's 128-byte lock granules cited in Section 4.3).
	MinProtShift = 7
	// MaxProtShift is the largest supported protection page (4 MB).
	MaxProtShift = 22
)

// Geometry describes a page size and derives page numbers and offsets.
// The zero value is not useful; construct with NewGeometry.
type Geometry struct {
	shift uint // log2(page size)
}

// NewGeometry returns a Geometry for pages of 2^shift bytes. It panics if
// shift is outside [MinProtShift, MaxProtShift]; page geometry is fixed at
// machine construction, so a bad shift is a programming error.
func NewGeometry(shift uint) Geometry {
	if shift < MinProtShift || shift > MaxProtShift {
		panic(fmt.Sprintf("addr: page shift %d outside [%d,%d]", shift, MinProtShift, MaxProtShift))
	}
	return Geometry{shift: shift}
}

// BaseGeometry is the default 4 KB translation page geometry.
func BaseGeometry() Geometry { return Geometry{shift: BasePageShift} }

// Shift returns log2 of the page size.
func (g Geometry) Shift() uint { return g.shift }

// PageSize returns the page size in bytes.
func (g Geometry) PageSize() uint64 { return 1 << g.shift }

// PageNumber extracts the page number of va.
func (g Geometry) PageNumber(va VA) VPN { return VPN(uint64(va) >> g.shift) }

// Offset extracts the within-page offset of va.
func (g Geometry) Offset(va VA) uint64 { return uint64(va) & (g.PageSize() - 1) }

// Base returns the first virtual address of page vpn.
func (g Geometry) Base(vpn VPN) VA { return VA(uint64(vpn) << g.shift) }

// PagesSpanned returns how many pages of this geometry the byte range
// [va, va+length) touches. A zero length spans no pages.
func (g Geometry) PagesSpanned(va VA, length uint64) uint64 {
	if length == 0 {
		return 0
	}
	first := uint64(va) >> g.shift
	last := (uint64(va) + length - 1) >> g.shift
	return last - first + 1
}

// AccessKind classifies a memory reference.
type AccessKind uint8

const (
	// Load is a data read.
	Load AccessKind = iota
	// Store is a data write.
	Store
	// Fetch is an instruction fetch.
	Fetch
)

// String returns the conventional short name of the access kind.
func (k AccessKind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case Fetch:
		return "fetch"
	default:
		return fmt.Sprintf("AccessKind(%d)", uint8(k))
	}
}

// Needs returns the rights required to perform an access of this kind.
func (k AccessKind) Needs() Rights {
	switch k {
	case Load:
		return Read
	case Store:
		return Write
	case Fetch:
		return Execute
	default:
		return 0
	}
}

// Rights is the 3-bit access rights vector stored in PLB entries, TLB
// entries, and the kernel's protection tables.
type Rights uint8

const (
	// Read permits loads.
	Read Rights = 1 << iota
	// Write permits stores.
	Write
	// Execute permits instruction fetches.
	Execute

	// None denies all access.
	None Rights = 0
	// RW is read-write.
	RW = Read | Write
	// RX is read-execute.
	RX = Read | Execute
	// RWX grants everything.
	RWX = Read | Write | Execute
)

// Allows reports whether r is sufficient for an access of kind k.
func (r Rights) Allows(k AccessKind) bool { return r&k.Needs() != 0 }

// WithoutWrite returns r with the write permission cleared. It models the
// PA-RISC PID write-disable bit, which masks writes to an entire page-group
// regardless of the TLB rights field.
func (r Rights) WithoutWrite() Rights { return r &^ Write }

// String renders rights as a fixed-width "rwx" vector, e.g. "r-x".
func (r Rights) String() string {
	b := [3]byte{'-', '-', '-'}
	if r&Read != 0 {
		b[0] = 'r'
	}
	if r&Write != 0 {
		b[1] = 'w'
	}
	if r&Execute != 0 {
		b[2] = 'x'
	}
	return string(b[:])
}

// Range is a contiguous range of virtual addresses [Start, Start+Length).
// Virtual segments occupy ranges that are disjoint from all other segments.
type Range struct {
	Start  VA
	Length uint64
}

// End returns the first address past the range.
func (r Range) End() VA { return VA(uint64(r.Start) + r.Length) }

// Contains reports whether va lies inside the range.
func (r Range) Contains(va VA) bool { return va >= r.Start && uint64(va) < uint64(r.Start)+r.Length }

// Overlaps reports whether two ranges share any address.
func (r Range) Overlaps(o Range) bool {
	if r.Length == 0 || o.Length == 0 {
		return false
	}
	return uint64(r.Start) < uint64(o.Start)+o.Length && uint64(o.Start) < uint64(r.Start)+r.Length
}

// String renders the range as [start, end).
func (r Range) String() string {
	return fmt.Sprintf("[%#x,%#x)", uint64(r.Start), uint64(r.End()))
}
