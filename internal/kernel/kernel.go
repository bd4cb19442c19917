// Package kernel implements an Opal-style single address space operating
// system kernel over the simulated machines: protection domains, virtual
// segments in a global 64-bit virtual address space, one global
// translation per page, lazy fault handling with user-level segment
// handlers, paging, and portal (RPC) calls between domains.
//
// The kernel is the machine's OS interface: hardware structure misses
// resolve against the kernel's authoritative tables. Protection policy
// lives in a per-model engine (domain-page for the PLB machine, page-group
// for the PA-RISC machine) that translates the kernel's model-independent
// protection operations into the hardware manipulations catalogued in
// Table 1 of the paper.
package kernel

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/iommu"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pgroup"
	"repro/internal/ptable"
	"repro/internal/smp"
	"repro/internal/stats"
)

// Model selects the protection model (and with it, the machine).
type Model uint8

const (
	// ModelDomainPage runs the PLB machine (Figure 1).
	ModelDomainPage Model = iota
	// ModelPageGroup runs the PA-RISC page-group machine (Figure 2).
	ModelPageGroup
	// ModelConventional runs the single address space kernel on a
	// conventional multiple-address-space machine (ASID-tagged combined
	// TLB over per-space views) — the configuration Section 3.1 warns
	// incurs "unnecessary performance costs": duplicated TLB entries for
	// shared pages, per-space protection updates, and whole-TLB scans on
	// mapping changes.
	ModelConventional
	// ModelFlush runs the kernel on a conventional machine without
	// address space identifiers (the i860 regime of Section 2.2): the
	// TLB and virtual cache are flushed on every domain switch. It
	// shares the conventional protection engine; only the machine's
	// switch behaviour differs.
	ModelFlush
)

// String returns the model name used in experiment tables.
func (m Model) String() string {
	switch m {
	case ModelDomainPage:
		return "domain-page"
	case ModelPageGroup:
		return "page-group"
	case ModelConventional:
		return "conventional"
	case ModelFlush:
		return "flush"
	default:
		return fmt.Sprintf("Model(%d)", uint8(m))
	}
}

// DetachPolicy selects how the domain-page engine clears PLB state on
// segment detach (ablation A5; Section 4.1.1 offers both).
type DetachPolicy uint8

const (
	// DetachScan inspects every PLB entry and removes only the
	// detaching (domain, segment) pairs — precise but a full scan.
	DetachScan DetachPolicy = iota
	// DetachPurgeAll flash-clears the entire PLB — one cheap operation,
	// but every domain's rights must fault back in afterwards.
	DetachPurgeAll
)

// Config configures a kernel and its machine.
type Config struct {
	// Model selects the protection model and its machine: domain-page
	// (PLB), page-group (PA-RISC), conventional (ASID-tagged TLB) or
	// flush (untagged TLB, flushed on every switch).
	Model Model
	// PLBDetach selects the detach implementation under ModelDomainPage.
	PLBDetach DetachPolicy
	// AutoEvict enables the page daemon: when physical memory is
	// exhausted, the kernel transparently pages out the oldest resident
	// page (FIFO) to satisfy the fault, instead of failing. Off by
	// default so workloads that manage residency themselves (compression
	// paging) keep full control.
	AutoEvict bool
	// Frames is the physical memory size in frames.
	Frames int
	// PLB configures the PLB machine (ModelDomainPage).
	PLB machine.PLBConfig
	// PG configures the page-group machine (ModelPageGroup).
	PG machine.PGConfig
	// Conv configures the conventional machine (ModelConventional and
	// ModelFlush).
	Conv machine.ConvConfig
	// CPUs is the number of simulated processors. Each CPU owns private
	// protection and translation structures (PLB, TLBs, page-group
	// checker, cache) over the shared kernel state; protection changes
	// reach remote CPUs through the shootdown subsystem (internal/smp).
	// Zero or one means a uniprocessor with no shootdown traffic.
	// Residency is tracked in growable bitsets, so counts beyond 64 are
	// fine; NewChecked rejects counts above MaxCPUs with a *ConfigError.
	CPUs int
	// Topology arranges the CPUs on a clustered 2D mesh of memory banks
	// (internal/smp): cross-cluster IPIs and page-scoped remote
	// maintenance pay per-hop surcharges (CostModel.IPIHop, MemHop). The
	// zero value is a single cluster — every hop count is zero, matching
	// the flat interconnect earlier experiments were calibrated on.
	Topology smp.Topology
	// Devices attaches device translation agents (internal/iommu): DMA
	// engines, NICs and scanner accelerators that access memory through
	// their own IOTLB + protection check and occupy shootdown seats
	// above the CPU range. NewChecked validates the seat budget and each
	// entry's cluster with a *ConfigError.
	Devices []DeviceConfig
}

// DefaultConfig returns a kernel configuration for the given model with
// 4096 frames (16 MB) and the default machine configurations.
func DefaultConfig(m Model) Config {
	return Config{
		Model:  m,
		Frames: 4096,
		PLB:    machine.DefaultPLBConfig(),
		PG:     machine.DefaultPGConfig(),
		Conv:   machine.DefaultConvConfig(),
	}
}

const (
	// vaBase is the first virtual address handed out to segments.
	vaBase = addr.VA(1) << 32
	// maxFaultRetries bounds the access-fault-retry loop; a reference
	// that cannot be satisfied within this many handled faults is a bug
	// in a fault handler.
	maxFaultRetries = 8
)

// Segment is a virtual segment: a fixed contiguous range of the global
// virtual address space, allocated at creation and never overlapping any
// other segment. Segments are the unit of attachment, sharing and storage
// management (Section 4.1.1).
type Segment struct {
	ID   addr.SegmentID
	Name string
	// Range is the segment's fixed global address range.
	Range addr.Range

	kern    *kernel
	handler FaultHandler
	// attached is the set of attached domain IDs; rights live in their vectors.
	attached smp.CPUSet
	// group is the segment's primary page-group (page-group model).
	group addr.GroupID
	// groupRights is the primary group's rights field: the union of the
	// attachment rights of all attached domains (page-group model).
	groupRights addr.Rights
	// protShift is the super-page protection shift (domain-page model;
	// zero when the segment uses base-page protection). Section 4.3.
	protShift uint
	// pages holds the record of every page of the segment, indexed by
	// page offset: made at creation, dropped on destroy.
	pages []page
}

// NumPages returns the number of translation pages the segment spans.
func (s *Segment) NumPages() uint64 {
	return s.kern.geo.PagesSpanned(s.Range.Start, s.Range.Length)
}

// Base returns the segment's first address.
func (s *Segment) Base() addr.VA { return s.Range.Start }

// PageVA returns the address of the segment's i'th page.
func (s *Segment) PageVA(i uint64) addr.VA {
	return addr.VA(uint64(s.Range.Start) + i*s.kern.geo.PageSize())
}

// PageVPN returns the VPN of the segment's i'th page.
func (s *Segment) PageVPN(i uint64) addr.VPN { return s.kern.geo.PageNumber(s.PageVA(i)) }

// record returns the record of the segment's page vpn.
func (s *Segment) record(vpn addr.VPN) *page {
	return &s.pages[vpn-s.kern.geo.PageNumber(s.Range.Start)]
}

// HasHandler reports whether the segment has a user-level fault handler
// installed. Handlers may grant rights during fault delivery, so
// differential verdict checks (internal/oracle) skip handled segments.
func (s *Segment) HasHandler() bool { return s.handler != nil }

// HasAttached reports whether the segment's own attachment record lists
// domain id (the domain's record is Domain.Attached).
func (s *Segment) HasAttached(id addr.DomainID) bool { return s.attached.Has(int(id)) }

// Domain is a protection domain: a set of access rights to segments and
// pages of the single global address space. It is the analog of a process
// address space, except it defines privileges, not names (Section 1).
type Domain struct {
	ID addr.DomainID

	// attached, overrides and groups are lazily initialized: an empty
	// domain is a near-zero-allocation object (the multi-tenant churn
	// target creates and destroys millions of them). attached is kept
	// ascending by segment ID; it and the groups bitset keep their
	// storage in the pooled struct across incarnations. A nil override
	// table reads as empty; writers go through overridesRW.
	attached []attachment
	// overrides may be shared copy-on-write with fork relatives
	// (ForkDomain); the table's own referent count decides whether a
	// mutation must clone first (overridesRW).
	overrides *ptable.ProtTable
	// groups is the domain's page-group set (page-group model): the
	// authoritative record behind the PID registers / group cache.
	groups pgroup.Membership[addr.GroupID]
	// forkedAt is the page-group engine's clock at the domain's last
	// fork, as parent or child (pgEngine.reusable).
	forkedAt uint64
	// execSite is the domain's current execution address, for
	// execution-keyed protection (see exec.go).
	execSite addr.VA
	// cpus is the domain's residency set: CPU i is a member while it may
	// cache the domain's protection entries (it ran the domain, or
	// hardware installed an entry naming it there). Unlike the old
	// monotonic one-word mask, membership is withdrawn when a CPU is
	// bulk-invalidated (purgeSeat, rejoin), when a flush-model CPU
	// switches away, and when a removal shootdown provably drops the
	// domain's last entry on a CPU — so shootdowns for domain-keyed
	// state track live sharers, not the domain's lifetime CPU history.
	cpus smp.CPUSet
}

// attachment is one entry of a domain's attachment vector.
type attachment struct {
	seg *Segment
	r   addr.Rights
}

// Attached reports whether the domain is attached to segment s and with
// what rights.
func (d *Domain) Attached(s *Segment) (addr.Rights, bool) {
	if i, ok := d.findAttached(s.ID); ok {
		return d.attached[i].r, true
	}
	return addr.None, false
}

// findAttached returns segment id's index in d's vector, or its insertion point.
func (d *Domain) findAttached(id addr.SegmentID) (int, bool) {
	return slices.BinarySearchFunc(d.attached, id, func(a attachment, id addr.SegmentID) int {
		return cmp.Compare(a.seg.ID, id)
	})
}

// checkLive returns ErrDomainDestroyed, wrapped, unless d is the live
// incarnation of its ID: a destroyed domain's struct is pooled for the
// ID's next incarnation, so nothing may write through a stale handle.
func (k *Kernel) checkLive(d *Domain, op string) error {
	if k.doms.get(d.ID) != d {
		return fmt.Errorf("%w: %s of domain %d", ErrDomainDestroyed, op, d.ID)
	}
	return nil
}

// checkSegment returns ErrSegmentDestroyed, wrapped, unless s is live.
// Segments are never pooled, so s is live exactly when it is the
// segment at its own base. A destroyed one's page records are gone, and
// its range and group number may already belong to another.
func (k *Kernel) checkSegment(s *Segment, op string) error {
	if k.FindSegment(s.Base()) != s {
		return fmt.Errorf("%w: %s of segment %d", ErrSegmentDestroyed, op, s.ID)
	}
	return nil
}

// overridesRW returns d's override table ready for mutation: a missing
// table is materialized, and a table shared copy-on-write with a fork
// relative is cloned first. The clone is the fork's deferred cost,
// charged like refilling the copied protection entries (Install each)
// rather than like duplicating a page table.
func (k *Kernel) overridesRW(d *Domain) *ptable.ProtTable {
	if d.overrides == nil {
		d.overrides = ptable.NewProtTable()
	} else if d.overrides.Shared() {
		old := d.overrides
		d.overrides = old.Clone()
		old.Release()
		k.cycles.Add(uint64(d.overrides.Len()) * k.cost.Install)
		k.hCOWCopies.Inc()
	}
	return d.overrides
}

// PageOverride reports the domain's per-page rights override for vpn, if
// one is set. Overrides take precedence over attachment rights; the
// protection oracle (internal/oracle) rebuilds authority from these
// records independently of ResolveRights.
func (d *Domain) PageOverride(vpn addr.VPN) (addr.Rights, bool) {
	return d.overrides.Get(vpn)
}

// Fault describes a protection fault delivered to a segment's user-level
// handler — the mechanism the paper's workloads (GC, DSM, transactions,
// checkpointing) are built on (Table 1).
type Fault struct {
	// K is the kernel, for protection manipulation from the handler.
	K *Kernel
	// Domain is the faulting domain.
	Domain *Domain
	// VA is the faulting address.
	VA addr.VA
	// Kind is the access that faulted.
	Kind addr.AccessKind
	// Segment is the segment containing VA.
	Segment *Segment
}

// FaultHandler resolves a protection fault, typically by manipulating
// rights through the kernel, and returns nil to retry the access. A
// non-nil error aborts the access (a true violation).
type FaultHandler func(f Fault) error

// Errors returned by kernel operations.
var (
	// ErrProtection is a protection violation no handler resolved.
	ErrProtection = errors.New("kernel: protection violation")
	// ErrNoAuthority is a reference outside every segment.
	ErrNoAuthority = errors.New("kernel: address outside all segments")
	// ErrNotAttached is an operation on a segment the domain has not
	// attached.
	ErrNotAttached = errors.New("kernel: domain not attached to segment")
	// ErrFaultLoop is an access that kept faulting after handling.
	ErrFaultLoop = errors.New("kernel: access did not converge after fault handling")
	// ErrUnrepresentable is a rights assignment the page-group model
	// cannot express with a single rights field and write-disable bits
	// (Section 4.1.2 discusses the model's limits).
	ErrUnrepresentable = errors.New("kernel: rights vector unrepresentable in page-group model")
)

// kernel is the shared state; Kernel is the public face (one type, split
// for documentation clarity).
type kernel struct {
	cfg    Config
	geo    addr.Geometry
	memory *mem.Memory
	disk   *mem.Disk

	doms     domainTable
	segOrder []*Segment // live segments, sorted by Range.Start

	nextDomain  addr.DomainID
	nextSegment addr.SegmentID
	nextGroup   addr.GroupID
	nextVA      addr.VA
	freeVA      []addr.Range
	// freeDomains pools destroyed Domain structs for ID recycling
	// (lifecycle.go): LIFO, emptied for reuse. freeGroups recycles dead
	// page-group numbers.
	freeDomains []*Domain
	freeGroups  []addr.GroupID
	// maxDomain/maxGroup narrow the ID allocators for exhaustion tests
	// (SetIDLimits); zero means the ID type's natural bound.
	maxDomain addr.DomainID
	maxGroup  addr.GroupID
	// residentFIFO orders mapped pages for the page daemon's FIFO
	// eviction; entries may be stale (skipped when popped).
	residentFIFO []addr.VPN
	// hooks forces failures at the kernel's hook points
	// (SetFaultInjector); the zero value forces none.
	hooks FaultInjector
	// cut is SetSegmentRights' scratch: the overrides it cleared, put
	// back if the engine refuses the change.
	cut []pageRights

	ctrs   stats.Counters
	cycles stats.Cycles
	// cost is the cost model all CPUs share; kernel charges read it in place.
	cost cpu.CostModel

	// Pre-resolved handles for the fault/paging path (touch.go), the only
	// kernel counters bumped per simulated reference rather than per
	// management operation.
	hPageFaults, hZeroFills, hAutoEvictions stats.Handle
	hProtFaults, hHandlerUpcalls            stats.Handle
	hPageouts, hPageins, hUnmaps, hRPCCalls stats.Handle
	hDupWalks                               stats.Handle
	// Injection hooks fire on the same per-reference paths, so their
	// counters are handles too (inject.go).
	hInjFrameFails, hInjHandlerErrs, hInjSpurious stats.Handle
	hInjPageinFails, hInjPageoutFails             stats.Handle
	hHWRecoveries                                 stats.Handle
	hCPURecoveries, hCPURejoins                   stats.Handle
	hDevRejoins                                   stats.Handle
	// Lifecycle-churn handles (lifecycle.go): resolved at construction
	// so the million-session workloads never hash a counter name.
	hDomainsCreated, hDomainsDestroyed stats.Handle
	hDomainsForked, hDomainsRecycled   stats.Handle
	// Management-operation handles: attachment, rights, segment and
	// execution-site bookkeeping.
	hAttach, hDetach, hSetPageRights, hClearPageRights stats.Handle
	hSetSegmentRights, hCOWCopies, hProtShiftUnsup     stats.Handle
	hSegmentsCreated, hSegmentsDestroyed, hVAReuse     stats.Handle
	hExecGrants, hExecRevokes, hExecSites, hExecPurges stats.Handle
}

// pageRights is one page's rights override.
type pageRights struct {
	vpn addr.VPN
	r   addr.Rights
}

// page is the kernel's per-page record; its segment holds one per page.
type page struct {
	// frame is the page's translation while mapped is set: the one
	// mapping every domain shares (§2).
	frame addr.PFN
	// group and groupRights are the page-group model's per-page state:
	// the AID in the page's TLB entry and its shared rights field.
	group       addr.GroupID
	groupRights addr.Rights
	// dirty is the translation's dirty bit, a per-page fact (§3.2.1,
	// footnote 6), clear whenever the page is unmapped. onDisk notes
	// that the page's contents live in the backing store; it is never
	// set together with mapped.
	mapped, dirty, onDisk bool
	// sharers is the sharer directory's page axis: the seats that
	// installed hardware state for the page (trans-TLB, PG-TLB, ASID-TLB,
	// PLB or IOTLB entries) since their last bulk invalidation. It is a
	// superset of live residency — deliveries never withdraw (a PLB
	// protection entry or cache line outlives the translation entry an
	// Unmap drops), only purgeSeat/rejoin and flush-model switch-away do
	// — which keeps page-scoped shootdowns sound while still tracking
	// sharers, not history.
	sharers smp.CPUSet
}

// Kernel is a single address space operating system instance bound to
// one machine per CPU. Construct with New. mach always points at the
// current CPU's machine (see SetCPU).
type Kernel struct {
	kernel
	mach       machine.Machine
	engine     engine
	pager      Pager
	execGrants []execGrant

	// machs holds every CPU's machine (index = CPU number).
	machs []machine.Machine
	// seats is the interconnect's seat table: the CPUs' machines, then
	// the devices. Organization and seat kind stay behind the
	// machine.Seat contract: the kernel applies smp.Requests to CPU and
	// device seats alike, by seat number.
	seats []machine.Seat

	// cur is the current CPU.
	cur int
	// topo is the normalized mesh topology (see Config.Topology).
	topo smp.Topology
	// shoot is the shootdown subsystem; nil on a uniprocessor with no
	// devices (devices are shootdown targets, so attaching any forces
	// the subsystem on).
	shoot *smp.Shootdown
	// devs holds the attached device translation agents (device.go);
	// device i occupies interconnect seat len(machs)+i.
	devs []*iommu.Device
	// executing[id] is the set of seats executing domain id: CPUs whose
	// machine has it switched in, and devices programmed on its behalf.
	// It is indexed by ID, not by *Domain: a destroyed domain stays
	// switched in on its CPU until that CPU next switches, and the
	// recycled ID must still reach it there. Kept only when shoot is
	// non-nil; shootExecuting is its one reader.
	executing []smp.CPUSet
	// deferDepth counts open DeferShootdowns windows; per-operation IPI
	// flushing is suspended while it is nonzero (lazy shootdown), and
	// windows nest — only the outermost FlushShootdowns delivers.
	deferDepth int
}

// New creates a kernel and its machine for the configured model. It
// panics on an invalid configuration (a bad protection page shift
// list, too many CPUs); NewChecked returns the
// typed error instead — command-line front ends that build configs
// from user flags should prefer it.
func New(cfg Config) *Kernel {
	k, err := NewChecked(cfg)
	if err != nil {
		panic(err)
	}
	return k
}

// NewChecked creates a kernel and its machines for the configured
// model, returning the construction error (a *ConfigError or a
// *plb.ConfigError, each wrapping its package's ErrConfig sentinel)
// instead of panicking when a configuration value is rejected.
func NewChecked(cfg Config) (*Kernel, error) {
	if cfg.Frames <= 0 {
		cfg.Frames = 4096
	}
	if cfg.CPUs < 1 {
		cfg.CPUs = 1
	}
	if cfg.CPUs > MaxCPUs {
		return nil, &ConfigError{Field: "CPUs", Value: cfg.CPUs,
			Reason: fmt.Sprintf("exceeds MaxCPUs (%d)", MaxCPUs)}
	}
	if err := cfg.Topology.Validate(cfg.CPUs); err != nil {
		return nil, &ConfigError{Field: "Topology", Value: cfg.CPUs,
			Reason: err.Error()}
	}
	devcfgs, err := validateDevices(cfg)
	if err != nil {
		return nil, err
	}
	cfg.Devices = devcfgs
	k := &Kernel{}
	k.topo = cfg.Topology.Normalize(cfg.CPUs)
	var geo addr.Geometry
	switch cfg.Model {
	case ModelPageGroup:
		geo = cfg.PG.Geometry
	case ModelConventional, ModelFlush:
		geo = cfg.Conv.Geometry
	default:
		geo = cfg.PLB.Geometry
	}
	if geo == (addr.Geometry{}) {
		geo = addr.BaseGeometry()
	}
	k.kernel = kernel{
		cfg:         cfg,
		geo:         geo,
		memory:      mem.NewMemory(geo, cfg.Frames),
		nextDomain:  1,
		nextSegment: 1,
		nextGroup:   1,
		nextVA:      vaBase,
	}
	h := k.ctrs.Handle
	k.hPageFaults, k.hZeroFills = h("kernel.page_faults"), h("kernel.zero_fills")
	k.hAutoEvictions, k.hProtFaults = h("kernel.auto_evictions"), h("kernel.prot_faults")
	k.hHandlerUpcalls, k.hUnmaps = h("kernel.handler_upcalls"), h("kernel.unmaps")
	k.hPageouts, k.hPageins = h("kernel.pageouts"), h("kernel.pageins")
	k.hRPCCalls, k.hDupWalks = h("kernel.rpc_calls"), h("conv.duplicated_walks")
	k.hInjFrameFails = h("kernel.injected_frame_failures")
	k.hInjHandlerErrs = h("kernel.injected_handler_errors")
	k.hInjSpurious = h("kernel.injected_spurious_traps")
	k.hInjPageinFails = h("kernel.injected_pagein_failures")
	k.hInjPageoutFails = h("kernel.injected_pageout_failures")
	k.hHWRecoveries, k.hDevRejoins = h("kernel.hw_recoveries"), h("kernel.dev_rejoins")
	k.hCPURecoveries, k.hCPURejoins = h("kernel.cpu_recoveries"), h("kernel.cpu_rejoins")
	k.hDomainsCreated, k.hDomainsDestroyed = h("kernel.domains_created"), h("kernel.domains_destroyed")
	k.hDomainsForked, k.hDomainsRecycled = h("kernel.domains_forked"), h("kernel.domain_ids_recycled")
	k.hAttach, k.hDetach = h("kernel.attach"), h("kernel.detach")
	k.hSetPageRights, k.hClearPageRights = h("kernel.set_page_rights"), h("kernel.clear_page_rights")
	k.hSetSegmentRights, k.hVAReuse = h("kernel.set_segment_rights"), h("kernel.va_reuse")
	k.hCOWCopies, k.hProtShiftUnsup = h("kernel.cow_override_copies"), h("kernel.protshift_unsupported")
	k.hSegmentsCreated, k.hSegmentsDestroyed = h("kernel.segments_created"), h("kernel.segments_destroyed")
	k.hExecGrants, k.hExecRevokes = h("kernel.exec_grants"), h("kernel.exec_revokes")
	k.hExecSites, k.hExecPurges = h("kernel.exec_site_changes"), h("kernel.exec_site_purges")
	for i := 0; i < cfg.CPUs; i++ {
		var m machine.Machine
		switch cfg.Model {
		case ModelPageGroup:
			m = machine.NewPG(cfg.PG, k)
		case ModelConventional:
			m = machine.NewConventional(cfg.Conv, k)
		case ModelFlush:
			m = machine.NewFlush(cfg.Conv, k)
		default:
			pm, err := machine.NewPLB(cfg.PLB, k)
			if err != nil {
				return nil, err
			}
			m = pm
		}
		k.machs = append(k.machs, m)
		k.seats = append(k.seats, m)
	}
	k.cost = k.machs[0].Costs()
	k.disk = mem.NewDisk()
	switch cfg.Model {
	case ModelPageGroup:
		k.engine = newPGEngine(k)
	case ModelConventional, ModelFlush:
		k.engine = newConvEngine(k)
	default:
		k.engine = &dpEngine{k: k}
	}
	k.SetCPU(0)
	if cfg.CPUs > 1 || len(devcfgs) > 0 {
		k.shoot = smp.New(cfg.CPUs, k, &k.cost, &k.ctrs, &k.cycles)
		k.shoot.SetTopology(cfg.Topology)
		k.shoot.SetInitiator(k.cur)
	}
	if len(devcfgs) > 0 {
		k.attachDevices(devcfgs)
	}
	if newHook != nil {
		newHook(k)
	}
	return k, nil
}

// newHook, when set, observes every kernel New returns. It exists for
// the chaos campaign runner, which must reach kernels that experiments
// construct internally (to arm fault injectors and to verify them
// against the protection oracle afterwards). Production code never sets
// it.
var newHook func(*Kernel)

// SetNewHook installs (or, with nil, removes) the package-level kernel
// construction hook. The hook must be set and cleared from the same
// goroutine that constructs kernels; it is a test/chaos facility, not a
// concurrency-safe registration point.
func SetNewHook(fn func(*Kernel)) { newHook = fn }

// Model returns the kernel's protection model.
func (k *Kernel) Model() Model { return k.cfg.Model }

// NumCPUs returns the number of simulated processors.
func (k *Kernel) NumCPUs() int { return len(k.machs) }

// SetCPU moves the kernel's execution to CPU i: subsequent switches,
// accesses and protection operations run against that CPU's private
// machine. Kernel tables are shared; only the hardware view changes.
// A quarantined, degraded or stale CPU is fenced out of domain
// execution: before it runs anything it is rejoined — its private
// structures bulk-invalidated and its residency withdrawn — so stale
// authority it accumulated while unreachable can never be exercised.
func (k *Kernel) SetCPU(i int) {
	if k.shoot != nil && !k.shoot.Trusted(i) {
		k.rejoinCPU(i)
	}
	k.cur = i
	if k.shoot != nil {
		k.shoot.SetInitiator(i)
	}
	k.mach = k.machs[i]
}

// Machine returns the current CPU's machine.
func (k *Kernel) Machine() machine.Machine { return k.mach }

// MachineAt returns CPU i's machine. Callers that need an
// organization's structures type-switch on it.
func (k *Kernel) MachineAt(i int) machine.Machine { return k.machs[i] }

// Geometry returns the translation page geometry.
func (k *Kernel) Geometry() addr.Geometry { return k.geo }

// Memory returns the physical memory.
func (k *Kernel) Memory() *mem.Memory { return k.memory }

// Counters returns the kernel's own event counters (machine counters are
// separate; see Machine().Counters()).
func (k *Kernel) Counters() *stats.Counters { return &k.ctrs }

// Cycles returns kernel-charged cycles (handler work, paging, copies);
// machine cycles are separate.
func (k *Kernel) Cycles() uint64 { return k.cycles.Total() }

// TotalCycles returns kernel cycles plus every seat's: each CPU's
// machine cycles and each device agent's.
func (k *Kernel) TotalCycles() uint64 {
	total := k.cycles.Total()
	for _, st := range k.seats {
		total += st.Cycles()
	}
	return total
}

// Charge adds kernel-side cycles (used by user-level servers and custom
// pagers to account work the cost model does not see directly).
func (k *Kernel) Charge(n uint64) { k.cycles.Add(n) }

// SegmentOptions customize segment creation.
type SegmentOptions struct {
	// Name labels the segment in diagnostics.
	Name string
	// Handler receives protection faults on the segment's pages.
	Handler FaultHandler
	// AlignShift, if nonzero, aligns the segment's base to 2^AlignShift
	// bytes (needed for super-page PLB entries, Section 4.3).
	AlignShift uint
	// ProtShift, if above the translation page shift, makes the
	// domain-page machine cover the segment with super-page PLB entries
	// of 2^ProtShift bytes — one entry per domain for a constant-rights
	// segment (Section 4.3). The shift must be listed in the PLB
	// configuration's size classes; otherwise it is ignored (counted
	// under kernel.protshift_unsupported). Pages with per-domain
	// overrides fall back to base-shift entries automatically. The
	// page-group model ignores it.
	ProtShift uint
}

// CreateSegment allocates a virtual segment of npages translation pages
// at a fresh, globally unique address range. It panics when the
// page-group model's group numbers are exhausted; CreateSegmentChecked
// returns the typed error instead.
func (k *Kernel) CreateSegment(npages uint64, opts SegmentOptions) *Segment {
	s, err := k.CreateSegmentChecked(npages, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// CreateSegmentChecked is CreateSegment returning the typed allocation
// error (ErrGroupIDsExhausted wrapped, under the page-group model)
// instead of panicking; on error no segment state is retained.
func (k *Kernel) CreateSegmentChecked(npages uint64, opts SegmentOptions) (*Segment, error) {
	if npages == 0 {
		npages = 1
	}
	length := npages * k.geo.PageSize()
	alignShift := opts.AlignShift
	protShift := uint(0)
	if opts.ProtShift > k.geo.Shift() {
		if k.plbSupportsShift(opts.ProtShift) {
			protShift = opts.ProtShift
			if alignShift < opts.ProtShift {
				alignShift = opts.ProtShift
			}
		} else {
			k.hProtShiftUnsup.Inc()
		}
	}
	base := uint64(k.allocVA(length, alignShift))
	s := &Segment{
		ID:        k.nextSegment,
		Name:      opts.Name,
		Range:     addr.Range{Start: addr.VA(base), Length: length},
		kern:      &k.kernel,
		handler:   opts.Handler,
		protShift: protShift,
	}
	// Engine allocation (the page-group model mints the segment's
	// primary group here) can fail on ID exhaustion; run it before the
	// segment is registered anywhere, so failure leaves only a free-list
	// entry behind.
	if err := k.engine.onCreateSegment(s); err != nil {
		k.freeVAInsert(s.Range)
		return nil, err
	}
	k.nextSegment++
	// Every page's record exists from creation, in the primary group.
	s.pages = make([]page, s.NumPages())
	for i := range s.pages {
		s.pages[i].group = s.group
	}
	// Insert into the address-ordered index.
	i := sort.Search(len(k.segOrder), func(i int) bool {
		return k.segOrder[i].Range.Start > s.Range.Start
	})
	k.segOrder = slices.Insert(k.segOrder, i, s)
	k.hSegmentsCreated.Inc()
	return s, nil
}

// Domains returns every live protection domain, sorted by ID.
func (k *Kernel) Domains() []*Domain {
	out := make([]*Domain, 0, k.doms.len())
	k.doms.forEach(func(d *Domain) { out = append(out, d) })
	return out
}

// Segments returns every live segment in address order.
func (k *Kernel) Segments() []*Segment {
	return append([]*Segment(nil), k.segOrder...)
}

// ExecutorRights returns the rights domain d derives from execution-keyed
// grants at vpn (exec.go), for external authority reconstruction.
func (k *Kernel) ExecutorRights(d *Domain, vpn addr.VPN) (addr.Rights, bool) {
	return k.execRights(d, vpn)
}

// RecoverHardware flash-clears every cached protection and translation
// structure on every CPU — the kernel's recovery action when cached
// hardware state is suspected of diverging from authority (e.g. after a
// detected corruption): all entries fault back in from the authoritative
// tables. In-flight shootdown requests are discarded too (the state they
// would have invalidated is gone). Returns the number of entries
// dropped.
func (k *Kernel) RecoverHardware() int {
	n := 0
	for t := range k.NumSeats() {
		n += k.purgeSeat(t)
	}
	if k.shoot != nil {
		k.shoot.Reset()
	}
	k.deferDepth = 0
	k.hHWRecoveries.Inc()
	k.cycles.Add(k.cost.Trap)
	return n
}

// Seat returns interconnect seat t's hardware: CPU t's machine, or a
// device agent for seats at and above NumCPUs.
func (k *Kernel) Seat(t int) machine.Seat { return k.seats[t] }

// NumSeats returns the interconnect seat count: CPUs, then devices.
func (k *Kernel) NumSeats() int { return len(k.seats) }

// SeatName names seat t in reports: "cpu N" for a CPU, the device's
// name for a device.
func (k *Kernel) SeatName(t int) string {
	if t < len(k.machs) {
		return fmt.Sprintf("cpu %d", t)
	}
	return k.devs[t-len(k.machs)].Name()
}

// purgeSeat bulk-invalidates seat t (machine.Seat.PurgeAll), returning
// the number of entries dropped. The seat provably holds nothing
// afterwards, so it is withdrawn from the sharer directory: no further
// shootdowns target it until it reinstalls.
func (k *Kernel) purgeSeat(t int) int {
	n := k.seats[t].PurgeAll()
	k.withdrawSeat(t)
	return n
}

// recoverCPU is per-CPU epoch recovery, the single-CPU generalization
// of RecoverHardware: CPU i's private structures are bulk-invalidated
// (which withdraws it from every directory sharer set — it holds no
// state worth invalidating until it executes again), and shootdowns
// still queued for it are discarded as moot. Charges one trap. Returns
// the number of entries dropped.
func (k *Kernel) recoverCPU(i int) int {
	n := k.purgeSeat(i)
	if k.shoot != nil {
		k.shoot.DropPending(i)
	}
	k.hCPURecoveries.Inc()
	k.cycles.Add(k.cost.Trap)
	return n
}

// rejoinCPU readmits an untrusted (quarantined, degraded or stale) CPU:
// epoch recovery wipes whatever stale authority it held, then the
// shootdown layer lifts the fence. Degraded CPUs stay fenced — for them
// this is the flush-on-switch path, paid on every entry.
func (k *Kernel) rejoinCPU(i int) {
	k.recoverCPU(i)
	k.shoot.Rejoin(i)
	k.hCPURejoins.Inc()
}

// ConvergeProtection drives protection maintenance to a convergent
// state: any open defer window is closed and every queued shootdown
// delivered (or its target quarantined, under the acknowledged
// protocol), then every untrusted CPU is rejoined with a bulk
// invalidation. With the acknowledged protocol enabled, no CPU holds
// stale authority on return — the shadow oracle's differential sweep
// must report zero violations — and the cycles consumed are bounded by
// ConvergenceBound as computed immediately before the call. Returns
// the cycles consumed. A uniprocessor converges trivially at zero cost.
func (k *Kernel) ConvergeProtection() uint64 {
	if k.shoot == nil {
		return 0
	}
	start := k.TotalCycles()
	k.deferDepth = 0
	k.shoot.Flush()
	for i := range k.machs {
		if !k.shoot.Trusted(i) {
			k.rejoinCPU(i)
		}
	}
	for i := range k.devs {
		if !k.SeatTrusted(k.DeviceSeat(i)) {
			k.RejoinDevice(i)
		}
	}
	return k.TotalCycles() - start
}

// ConvergenceBound returns an upper bound, in cycles, on what
// ConvergeProtection may consume from the current queue and health
// state. Per seat with pending work the acknowledged protocol sends at
// most MaxRetries+1 volleys, each charging at most one IPI plus one
// timeout capped at the seat's backoff limit (scaled for devices, which
// drain in-flight DMA before acking), and applies each pending request
// at most once (retransmitted copies are sequence-suppressed) at no more
// than the seat's worst-case apply (machine.Seat.MaxCycles); any seat
// may need a rejoin, one trap plus one worst-case PurgeAll. Zero on a
// uniprocessor.
func (k *Kernel) ConvergenceBound() uint64 {
	if k.shoot == nil {
		return 0
	}
	c := &k.cost
	// Mesh surcharges at worst-case distance: every IPI may cross the
	// full diameter, and every applied request may reach a maximally
	// distant home memory bank.
	diam := uint64(k.topo.Diameter())
	ipi := c.IPI + diam*c.IPIHop
	volleys := uint64(k.shoot.Protocol().MaxRetries + 1)
	var bound uint64
	for t := range k.NumSeats() {
		apply, purge := k.Seat(t).MaxCycles()
		if pending := uint64(k.shoot.Pending(t)); pending > 0 {
			_, backoff := k.shoot.TargetTimeouts(t)
			bound += volleys*(ipi+backoff) + pending*(apply+diam*c.MemHop)
		}
		// Quarantine can happen during the convergence flush itself.
		bound += c.Trap + purge
	}
	return bound
}

// FindSegment returns the segment containing va, or nil.
func (k *Kernel) FindSegment(va addr.VA) *Segment {
	i := sort.Search(len(k.segOrder), func(i int) bool {
		return k.segOrder[i].Range.Start > va
	})
	if i == 0 {
		return nil
	}
	s := k.segOrder[i-1]
	if s.Range.Contains(va) {
		return s
	}
	return nil
}

// segmentOf returns the segment containing the page, or nil.
func (k *Kernel) segmentOf(vpn addr.VPN) *Segment { return k.FindSegment(k.geo.Base(vpn)) }

// pageRecord returns the kernel's record for a page that lies in a
// segment, or nil for addresses outside all segments.
func (k *Kernel) pageRecord(vpn addr.VPN) *page {
	if s := k.segmentOf(vpn); s != nil {
		return s.record(vpn)
	}
	return nil
}

// mappedPage returns the record of a mapped page, or nil when the page
// has no translation.
func (k *Kernel) mappedPage(vpn addr.VPN) *page {
	if p := k.pageRecord(vpn); p != nil && p.mapped {
		return p
	}
	return nil
}

// Attach grants domain d rights r over segment s. Under the domain-page
// model this is pure bookkeeping — PLB entries fault in lazily. Under the
// page-group model the segment's group is added to the domain's group set
// (Table 1, row 1). Re-attaching with other rights replaces the old ones,
// and entries cached at the old rights are purged as on a detach;
// re-attaching with the same rights changes nothing.
//
// Page-group refuses with ErrUnrepresentable, changing nothing, an
// attachment that would leave the segment's primary group or one of its
// pages with a rights vector one rights field and a write-disable bit
// per member cannot express (Section 4.1.2): say, one domain attached
// r-x beside another attached r--. Attachments and overrides of None,
// Read and RW only are always expressible. It refuses with
// ErrGroupIDsExhausted, changing nothing, an attachment whose re-derived
// pages may need more fresh group numbers than are free. Attaching
// through a destroyed domain's or segment's handle is a programmer
// error: it panics with ErrDomainDestroyed or ErrSegmentDestroyed
// (wrapped).
func (k *Kernel) Attach(d *Domain, s *Segment, r addr.Rights) error {
	if err := cmp.Or(k.checkLive(d, "attach"), k.checkSegment(s, "attach")); err != nil {
		panic(err)
	}
	i, renewed := d.findAttached(s.ID)
	prev := r
	switch {
	case !renewed:
		d.attached = slices.Insert(d.attached, i, attachment{seg: s, r: r})
		s.attached.Add(int(d.ID))
	case d.attached[i].r == r:
		return nil
	default:
		prev, d.attached[i].r = d.attached[i].r, r
	}
	k.hAttach.Inc()
	err := k.engine.onAttach(d, s, r, renewed)
	switch {
	case err == nil:
	case renewed:
		d.attached[i].r = prev
	default:
		d.attached = slices.Delete(d.attached, i, i+1)
		s.attached.Remove(int(d.ID))
	}
	k.flushIPIs()
	return err
}

// Detach revokes domain d's attachment to s and clears any per-page
// overrides d held in the segment (Table 1, row 2).
func (k *Kernel) Detach(d *Domain, s *Segment) error {
	if err := k.checkLive(d, "detach"); err != nil {
		return err
	}
	i, ok := d.findAttached(s.ID)
	if !ok {
		return ErrNotAttached
	}
	d.attached = slices.Delete(d.attached, i, i+1)
	s.attached.Remove(int(d.ID))
	if d.overrides.Len() > 0 {
		startVPN := k.geo.PageNumber(s.Range.Start)
		k.overridesRW(d).ClearRange(startVPN, s.NumPages())
	}
	k.hDetach.Inc()
	k.engine.onDetach(d, s)
	k.flushIPIs()
	return nil
}

// Switch schedules domain d on the current CPU's machine.
func (k *Kernel) Switch(d *Domain) {
	if old := k.mach.Domain(); old != d.ID {
		if k.shoot != nil {
			k.moveExecuting(k.cur, old, d.ID)
			if k.cfg.Model == ModelFlush {
				// The flush machine purges its TLB and cache on the way
				// in (no ASIDs), so the switching CPU provably drops every
				// entry it held: withdraw it from the sharer directory
				// instead of letting residency accrete switch after
				// switch.
				k.withdrawSeat(k.cur)
			}
		}
		k.mach.SwitchDomain(d.ID)
	}
	d.cpus.Add(k.cur)
}

// --- machine.OS implementation: the tables hardware refills from ---

// Translate implements machine.OS.
func (k *Kernel) Translate(vpn addr.VPN) (addr.PFN, bool) {
	if p := k.mappedPage(vpn); p != nil {
		return p.frame, true
	}
	return 0, false
}

// ResolveRights implements machine.OS: override, else attachment rights,
// else None for pages inside segments; no authority outside them. The
// cacheable flag is set only when the domain holds a record (override or
// attachment) for the page, so protection hardware never caches denials
// for unattached domains.
func (k *Kernel) ResolveRights(d addr.DomainID, vpn addr.VPN) (addr.Rights, bool, bool) {
	dom := k.doms.get(d)
	if dom == nil {
		return addr.None, false, false
	}
	s := k.segmentOf(vpn)
	if s == nil {
		return addr.None, false, false
	}
	r, cacheable := k.rightsIn(dom, s, vpn)
	return r, cacheable, true
}

// rightsIn is ResolveRights for a live domain and the segment s that
// holds vpn.
func (k *Kernel) rightsIn(dom *Domain, s *Segment, vpn addr.VPN) (r addr.Rights, cacheable bool) {
	execR, execOK := k.execRights(dom, vpn)
	if r, ok := dom.overrides.Get(vpn); ok {
		return r | execR, true
	}
	if r, ok := dom.Attached(s); ok {
		return r | execR, true
	}
	if execOK {
		// Execution-keyed rights apply even to unattached domains; they
		// are cacheable because SetExecutionSite purges them on site
		// changes.
		return execR, true
	}
	return addr.None, false
}

// PageInfo implements machine.OS (page-group TLB refill).
func (k *Kernel) PageInfo(vpn addr.VPN) (addr.GroupID, addr.Rights, bool) {
	p := k.pageRecord(vpn)
	if p == nil {
		return 0, addr.None, false
	}
	return p.group, p.groupRights, true
}

// DomainGroup implements machine.OS.
func (k *Kernel) DomainGroup(d addr.DomainID, g addr.GroupID) (bool, bool) {
	dom := k.doms.get(d)
	if dom == nil {
		return false, false
	}
	return dom.groups.Get(g)
}

// plbSupportsShift reports whether the PLB configuration lists the shift.
func (k *Kernel) plbSupportsShift(shift uint) bool {
	return k.cfg.Model == ModelDomainPage && slices.Contains(k.cfg.PLB.PLB.Shifts, shift)
}

// ProtShift implements machine.ProtShifter: segments created with a
// super-page protection shift install one PLB entry per 2^shift bytes,
// except for pages of a super-page that runs past the segment's end (its
// entry would cover the next segment) or holds a page the domain
// overrides. Those are tracked at base granularity: an override's base
// entry shadows a covering super-page entry only while it is resident,
// and an eviction, a purge or another CPU's refill can leave the
// super-page entry without it.
func (k *Kernel) ProtShift(d addr.DomainID, vpn addr.VPN) uint {
	s := k.segmentOf(vpn)
	if s == nil || s.protShift == 0 {
		return k.geo.Shift()
	}
	if end := (uint64(k.geo.Base(vpn)) | (1<<s.protShift - 1)) + 1; end > uint64(s.Range.End()) {
		return k.geo.Shift()
	}
	if dom := k.doms.get(d); dom != nil {
		n := uint64(1) << (s.protShift - k.geo.Shift())
		overridden := false
		dom.overrides.Range(vpn&^addr.VPN(n-1), n, func(addr.VPN, addr.Rights) bool {
			overridden = true
			return false
		})
		if overridden {
			return k.geo.Shift()
		}
	}
	return s.protShift
}

// DomainGroups implements machine.OS, listing the group set ascending.
func (k *Kernel) DomainGroups(d addr.DomainID) []machine.GroupAccess {
	dom := k.doms.get(d)
	if dom == nil {
		return nil
	}
	out := make([]machine.GroupAccess, 0, dom.groups.Count())
	dom.groups.ForEach(func(g addr.GroupID, wd bool) {
		out = append(out, machine.GroupAccess{Group: g, WriteDisable: wd})
	})
	return out
}

// Walk implements machine.MultiOS for ModelConventional: the per-space
// page-table view a multiple-address-space machine forces on a single
// address space OS. Each domain's "page table" holds the SAME global
// translation duplicated per space, with the domain's rights attached.
// ok is false when the page is unmapped or the domain has no protection
// record for it (outside its page tables entirely).
func (k *Kernel) Walk(as addr.ASID, vpn addr.VPN) (ptable.LinearPTE, bool) {
	dom, s := k.doms.get(addr.DomainID(as)), k.segmentOf(vpn)
	if dom == nil || s == nil {
		return ptable.LinearPTE{}, false
	}
	p := s.record(vpn)
	if !p.mapped {
		return ptable.LinearPTE{}, false
	}
	r, cacheable := k.rightsIn(dom, s, vpn)
	if !cacheable {
		return ptable.LinearPTE{}, false
	}
	k.hDupWalks.Inc()
	return ptable.LinearPTE{PFN: p.frame, Rights: r}, true
}

var (
	_ machine.OS      = (*Kernel)(nil)
	_ machine.MultiOS = (*Kernel)(nil)
)
