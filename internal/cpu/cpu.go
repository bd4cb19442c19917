// Package cpu defines the processor-side abstractions shared by all
// machine models: the parameterized cycle cost model, the fault taxonomy
// raised by memory references, and the access outcome type.
//
// The cost model makes the paper's qualitative claims quantitative: every
// structure touch, trap and purge charges cycles, so experiments can
// report both raw event counts (model-independent) and cycle totals
// (model-dependent, parameters stated with every table).
package cpu

import "fmt"

// CostModel assigns a cycle cost to every architectural event in the
// simulator. All machines share one model so comparisons are apples to
// apples; experiments that sweep a parameter (e.g. the sequential
// page-group lookup penalty of Section 4.2) copy and modify it.
type CostModel struct {
	// CacheHit is the cost of a first-level data cache hit. On the PLB
	// machine the PLB lookup proceeds in parallel with the cache lookup
	// (Figure 1), so a PLB hit adds nothing to a cache hit.
	CacheHit uint64
	// CacheFill is the additional cost of filling a line from memory on a
	// cache miss (after translation).
	CacheFill uint64
	// Writeback is the cost of writing back a dirty victim line.
	Writeback uint64
	// CacheLineFlush is the per-line cost of an explicit flush
	// instruction (used when unmapping pages, Section 4.1.3).
	CacheLineFlush uint64

	// OnChipLookup is the cost of an on-chip structure probe that is NOT
	// hidden by the cache access: the page-group TLB and the page-group
	// cache are probed sequentially on every reference (Section 4.2), so
	// the page-group machine charges this twice per reference.
	OnChipLookup uint64
	// OffChipTLB is the cost of probing the second-level, off-chip TLB of
	// the PLB machine (only on cache misses and writebacks).
	OffChipTLB uint64

	// Trap is the cost of a kernel trap (entry + exit): taken on every
	// software-handled miss and on protection faults.
	Trap uint64
	// Install is the cost of inserting one entry into any hardware
	// structure (PLB, TLB, page-group cache) from the kernel.
	Install uint64
	// PurgeEntry is the per-entry cost of inspecting/removing entries
	// during a selective purge (the PLB detach scan of Section 4.1.1).
	PurgeEntry uint64
	// RegisterWrite is the cost of writing a processor control register
	// (e.g. the PD-ID register on a PLB domain switch, Section 4.1.4).
	RegisterWrite uint64
	// PTWalk is the cost of one page-table walk by the kernel's miss
	// handler (conventional machine) or one software table probe (SASOS
	// kernels with software-loaded TLBs).
	PTWalk uint64
	// MemAccess is the cost of a main-memory access not otherwise
	// accounted (page zeroing per word is not modeled; bulk ops charge
	// MemCopyPage).
	MemAccess uint64
	// MemCopyPage is the cost of copying or zeroing a full page.
	MemCopyPage uint64

	// DiskRead and DiskWrite cost a backing-store operation (used by
	// paging, checkpointing and compression paging).
	DiskRead  uint64
	DiskWrite uint64
	// NetRoundTrip is the cost of a remote page fetch or invalidation
	// round trip in the distributed VM workload.
	NetRoundTrip uint64

	// IPI is the cost of one inter-processor interrupt: interconnect
	// delivery plus the remote trap entry/exit of the shootdown handler.
	// Charged once per target CPU per flushed batch (requests to the
	// same CPU coalesce into one interrupt), on top of the per-entry
	// maintenance work the remote CPU performs.
	IPI uint64
	// IPIHop is the per-hop surcharge on IPI delivery across a clustered
	// 2D mesh: each Manhattan hop between the initiator's cluster and
	// the target's cluster adds this many cycles. Zero hops (any
	// single-cluster machine, the default topology) adds nothing, so
	// flat-interconnect configurations are unaffected.
	IPIHop uint64
	// MemHop is the per-hop cost a remote CPU pays to reach a page's
	// home memory bank while applying page-scoped shootdown maintenance
	// (invalidate + writeback traffic crossing the mesh). Like IPIHop it
	// only applies on multi-cluster topologies.
	MemHop uint64
}

// DefaultCosts returns the baseline cost model used throughout
// EXPERIMENTS.md. The relative magnitudes follow the early-90s
// measurements the paper cites (Anderson et al., Ousterhout): caches hit
// in a cycle, traps cost tens of cycles, disks cost hundreds of thousands.
func DefaultCosts() CostModel {
	return CostModel{
		CacheHit:       1,
		CacheFill:      20,
		Writeback:      20,
		CacheLineFlush: 4,
		OnChipLookup:   1,
		OffChipTLB:     5,
		Trap:           100,
		Install:        10,
		PurgeEntry:     1,
		RegisterWrite:  1,
		PTWalk:         30,
		MemAccess:      20,
		MemCopyPage:    1000,
		DiskRead:       200000,
		DiskWrite:      200000,
		NetRoundTrip:   40000,
		IPI:            150,
		IPIHop:         20,
		MemHop:         10,
	}
}

// FaultKind classifies why a memory reference could not complete in
// hardware and what the kernel must do about it.
type FaultKind uint8

const (
	// FaultNone means the access completed.
	FaultNone FaultKind = iota
	// FaultProtection means the referencing domain lacks sufficient
	// rights to the page. Delivered to the faulting domain's handler (or
	// treated as a violation) — the mechanism user-level VM algorithms
	// are built on.
	FaultProtection
	// FaultPageUnmapped means no virtual-to-physical translation exists
	// for the page: a page fault, resolved by the kernel's pager.
	FaultPageUnmapped
	// FaultNoAuthority means the kernel has no record at all granting the
	// domain access to the page's segment: an addressing error.
	FaultNoAuthority
)

// String returns the fault name.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultProtection:
		return "protection"
	case FaultPageUnmapped:
		return "page-unmapped"
	case FaultNoAuthority:
		return "no-authority"
	default:
		return fmt.Sprintf("FaultKind(%d)", uint8(k))
	}
}

// Outcome is the result of one memory reference issued to a machine.
// Structure misses that the hardware+kernel resolve transparently (PLB
// refill, TLB refill, page-group cache refill, cache fill) do not surface
// here; they are visible in the counters and cycle totals.
type Outcome struct {
	// Fault is FaultNone if the access completed, else the reason it
	// could not.
	Fault FaultKind
}
