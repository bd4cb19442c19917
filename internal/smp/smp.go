// Package smp is the multiprocessor shootdown subsystem: the mechanism
// a single-address-space kernel uses to keep per-CPU protection and
// translation structures (PLB, TLBs, page-group registers/cache)
// consistent when kernel state changes on one CPU.
//
// The paper's single-CPU cost argument (§4.1.1, §4.1.4) extends
// directly to a multiprocessor: a protection change must now reach
// every CPU that may cache stale authority, and the amount of remote
// state to invalidate is exactly what distinguishes the machine
// organizations. On the PLB machine a change touches only the affected
// (PD, page) entries on CPUs the domain ran on; a conventional
// ASID-tagged machine must hunt down per-space duplicates with
// full-TLB scans on every CPU holding them.
//
// The subsystem models the classic TLB-shootdown protocol
// (Black et al., "Translation Lookaside Buffer Consistency", 1989)
// with two cost-relevant refinements:
//
//   - Targeting: requests go only to CPUs named by the kernel's sharer
//     directory (per-domain residency sets for domain-keyed state,
//     per-page sharer sets for page-keyed translation state), never
//     blindly to all CPUs. Residency is withdrawn on bulk invalidation
//     and on provable last-entry removal, so per-op IPI count tracks
//     the live sharer count rather than the domain's lifetime CPU set.
//   - Batching and coalescing: all requests raised by one kernel
//     operation are queued and flushed together; identical requests to
//     the same CPU coalesce, and each target CPU is interrupted once
//     per flush (one IPI covers the whole batch).
//
// # Acknowledged delivery
//
// Fire-and-forget shootdown is only correct on a lossless interconnect.
// With EnableProtocol the subsystem runs an acknowledged protocol:
// every flush to a target is a sequence-numbered volley, the initiator
// tracks per-request acknowledgements, an unacknowledged volley charges
// a timeout and is retransmitted with capped exponential backoff (the
// same reliable-delivery cost discipline as the netsim transport), and
// a target that exhausts the retry budget is quarantined — fenced from
// further volleys until the kernel rejoins it with a bulk invalidation.
// A target that has already applied a request but whose ack was lost
// detects the retransmission by sequence number and suppresses the
// duplicate apply (all request kinds are idempotent, so suppression is
// purely a cost-accounting matter).
//
// Per-CPU health runs healthy → suspect (consecutive timeout volleys)
// → quarantined (retry budget exhausted); after DegradeAfter
// quarantines the CPU is permanently degraded and the kernel is
// expected to fall back to flush-on-switch semantics for it rather
// than wedging the machine on a dead responder.
//
// On a fault-free run the protocol adds no cycles and no counters over
// fire-and-forget: every volley is acknowledged immediately, so there
// are no timeouts, no retransmissions, and the IPI accounting is
// identical.
//
// Cycle charging goes through cpu.CostModel: CostModel.IPI per
// interrupt that actually reaches its target on the initiator's kernel
// account (a fully dropped volley is a lost interrupt — the target
// never traps, so no IPI cycles are spent there; the initiator instead
// pays the ack timeout when the protocol is on), plus whatever
// per-entry maintenance cycles the remote CPU's structures charge
// themselves (read back through the Handler so the cross-CPU burden is
// visible separately from local work).
package smp

import (
	"fmt"
	"math/bits"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/stats"
)

// Kind names a remote maintenance operation. Each kind corresponds to
// one hardware-maintenance primitive of a machine organization; the
// Handler (the kernel) maps it onto the target CPU's structures.
type Kind uint8

const (
	// InvalRights drops the (Domain, VPN) protection entry: PLB entry
	// invalidate at every size class, or (ASID, page) TLB invalidate.
	InvalRights Kind = iota
	// UpdateRights rewrites the (Domain, VPN) protection entry in place
	// to Rights, if resident.
	UpdateRights
	// RangeRights rewrites every resident entry of Domain within Range
	// to Rights (PLB scan).
	RangeRights
	// RangeDetach purges every resident entry of Domain within Range
	// (PLB detach scan, §4.1.1).
	RangeDetach
	// RangePurge purges every domain's entries within Range (segment
	// destruction).
	RangePurge
	// PurgeAllProt flash-clears the CPU's protection structure (the
	// DetachPurgeAll policy).
	PurgeAllProt
	// PurgePage purges every domain's protection entries for VPN.
	PurgePage
	// Unmap drops the translation and flushes cache lines for VPN
	// (page-out); domain-agnostic, delivered to all active CPUs.
	Unmap
	// GroupLoad loads group Group (write-disable WD) into the CPU's
	// checker, if Domain is executing there.
	GroupLoad
	// GroupRevoke removes group Group from the CPU's checker, if Domain
	// is executing there.
	GroupRevoke
	// GroupUpdate rewrites the page-group TLB entry for VPN with the
	// page's new group/rights (regrouping traffic).
	GroupUpdate
	// DomainPurge drops every protection entry of Domain on the target
	// (domain destruction): PLB purge-by-domain, or an ASID-wide TLB
	// purge. One scan replaces the per-page invalidation storm a
	// destroy would otherwise send.
	DomainPurge
)

// PageScoped reports whether the kind names a single page whose
// maintenance must reach the page's home memory bank: applying it
// remotely pays MemHop cycles per mesh hop between the target CPU's
// cluster and the page's home cluster. Range- and group-scoped kinds
// are structure scans with no single home bank, so they price flat.
func (k Kind) PageScoped() bool {
	switch k {
	case InvalRights, UpdateRights, PurgePage, Unmap, GroupUpdate:
		return true
	}
	return false
}

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case InvalRights:
		return "inval-rights"
	case UpdateRights:
		return "update-rights"
	case RangeRights:
		return "range-rights"
	case RangeDetach:
		return "range-detach"
	case RangePurge:
		return "range-purge"
	case PurgeAllProt:
		return "purge-all-prot"
	case PurgePage:
		return "purge-page"
	case Unmap:
		return "unmap"
	case GroupLoad:
		return "group-load"
	case GroupRevoke:
		return "group-revoke"
	case GroupUpdate:
		return "group-update"
	case DomainPurge:
		return "domain-purge"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Request is one remote maintenance operation. The struct is comparable
// and doubles as the coalescing key: two identical requests queued for
// the same CPU within one batch are delivered once.
type Request struct {
	Kind   Kind
	Domain addr.DomainID
	VPN    addr.VPN
	Range  addr.Range
	Group  addr.GroupID
	Rights addr.Rights
	WD     bool
}

// Fault is a chaos-injection verdict for one IPI-delivered request.
type Fault uint8

const (
	// FaultNone delivers the request normally.
	FaultNone Fault = iota
	// FaultDrop loses the request in transit: the remote CPU keeps
	// stale state. Under fire-and-forget this is the bug class the
	// shadow oracle must catch; under the acknowledged protocol the
	// missing ack triggers a retransmission.
	FaultDrop
	// FaultDelay models a slow responder: the request is applied, but
	// the acknowledgement arrives after the initiator's timeout, so the
	// initiator retransmits anyway. Like FaultAckLoss it faults only an
	// ack: fire-and-forget has none, so there the request is applied at
	// once (the delay is still counted).
	FaultDelay
	// FaultAckLoss delivers and applies the request but loses the
	// acknowledgement on the way back. Only meaningful under the
	// acknowledged protocol; fire-and-forget has no acks to lose, so
	// there it behaves like FaultNone (the loss is still counted).
	FaultAckLoss
)

// FaultHook decides, per (target CPU, request), whether delivery is
// faulted. Nil means no injection. Under the acknowledged protocol the
// hook is consulted again for every retransmission, so a hook that
// always faults a target models a dead CPU.
type FaultHook func(target int, r Request) Fault

// Health is the initiator's view of a target CPU's responsiveness.
type Health uint8

const (
	// Healthy: volleys are being acknowledged within the timeout.
	Healthy Health = iota
	// Suspect: SuspectAfter consecutive volleys have timed out; the CPU
	// is still being retried.
	Suspect
	// Quarantined: the retry budget was exhausted. The CPU is fenced —
	// no further volleys are sent to it — until the kernel rejoins it
	// with a bulk invalidation of its private structures.
	Quarantined
	// Degraded: the CPU has been quarantined DegradeAfter times. It
	// stays fenced permanently; the kernel falls back to
	// flush-on-switch semantics (purge on every entry) for it instead
	// of paying endless retry storms.
	Degraded
)

// String returns the health-state name.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Quarantined:
		return "quarantined"
	case Degraded:
		return "degraded"
	}
	return fmt.Sprintf("Health(%d)", uint8(h))
}

// ProtocolConfig tunes the acknowledged shootdown protocol. Zero
// fields take the defaults of DefaultProtocolConfig; zero timeouts are
// derived from the IPI cost of the shootdown's own cost model.
type ProtocolConfig struct {
	// AckTimeout is the cycle cost the initiator pays waiting out one
	// unacknowledged volley before retransmitting; zero means two IPI
	// flight times.
	AckTimeout uint64
	// MaxRetries bounds retransmission volleys per batch; when a target
	// still has unacknowledged requests after MaxRetries retransmits it
	// is quarantined.
	MaxRetries int
	// BackoffLimit caps the doubling timeout (the netsim transport's
	// backoff discipline); zero means sixteen IPI flight times.
	BackoffLimit uint64
	// SuspectAfter is the number of consecutive timed-out volleys after
	// which a healthy target is marked suspect.
	SuspectAfter int
	// DegradeAfter is the number of quarantines after which a CPU is
	// permanently degraded to flush-on-switch semantics.
	DegradeAfter int
}

// DefaultProtocolConfig returns the protocol tuning used by the
// experiments: four retransmissions, suspicion after two consecutive
// timeouts, degradation after three quarantines. Its timeouts are left
// zero, so EnableProtocol derives them from the shootdown's IPI cost: a
// timeout of two IPI flight times, backoff capped at 8× the base
// timeout.
func DefaultProtocolConfig() ProtocolConfig {
	return ProtocolConfig{MaxRetries: 4, SuspectAfter: 2, DegradeAfter: 3}
}

// fill replaces zero fields with defaults, pricing the timeouts at ipi
// cycles per IPI flight.
func (c *ProtocolConfig) fill(ipi uint64) {
	d := DefaultProtocolConfig()
	if c.AckTimeout == 0 {
		c.AckTimeout = 2 * ipi
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = d.MaxRetries
	}
	if c.BackoffLimit == 0 {
		c.BackoffLimit = 16 * ipi
	}
	if c.SuspectAfter == 0 {
		c.SuspectAfter = d.SuspectAfter
	}
	if c.DegradeAfter == 0 {
		c.DegradeAfter = d.DegradeAfter
	}
}

// Handler applies delivered requests; the kernel implements it over the
// target CPU's private machine. Device seats (targets at and above the
// CPU count) route to the corresponding device agent's IOTLB instead.
type Handler interface {
	// ApplyShootdown performs r on target cpu's structures and returns
	// how many resident entries it invalidated, rewrote or loaded.
	ApplyShootdown(cpu int, r Request) int
	// CPUCycles returns target cpu's accumulated machine cycles, so the
	// flush can attribute remote maintenance work to the shootdown.
	CPUCycles(cpu int) uint64
}

// DeviceSpec seats one device translation agent on the shootdown
// interconnect. Devices occupy targets above the CPU range: the first
// attached device is target ncpu, the next ncpu+1, and so on.
type DeviceSpec struct {
	// Cluster is the mesh cluster the device is wired into; its IPIs
	// and DMA traffic are hop-priced from there.
	Cluster int
}

// deviceTimeoutScale multiplies the protocol's ack timeout and backoff
// cap for every device seat: devices must drain in-flight DMA before
// acknowledging an invalidation, so they are granted a longer window
// before the initiator retransmits or quarantines.
const deviceTimeoutScale = 4

// Shootdown queues targeted invalidations and delivers them in batches
// via simulated IPIs. It is not safe for concurrent use; the simulator
// is single-threaded per kernel.
type Shootdown struct {
	ncpu    int
	handler Handler
	costs   *cpu.CostModel
	cycles  *stats.Cycles // initiator-side kernel cycles (IPI cost)

	// q[t] is target t's pending batch with its coalescing index, and
	// done is flushAcked's record of which unacknowledged requests the
	// target has performed. Both keep their buffers across flushes, so a
	// steady-state flush allocates nothing.
	q    []batchQueue
	done []bool

	fault FaultHook

	// topo prices IPI delivery and remote memory-bank traffic by mesh
	// hop count; initiator is the CPU charged for outgoing volleys
	// (kernel.SetCPU keeps it current). mesh records that topo has more
	// than one cluster: on one cluster every hop count is zero, so the
	// charges skip the hop arithmetic.
	topo      Topology
	mesh      bool
	initiator int

	// Device seats: targets [ncpu, ncpu+len(devCluster)) are device
	// translation agents, each with its own mesh cluster.
	devCluster []int

	// Acknowledged-protocol state; proto == nil means fire-and-forget.
	proto     *ProtocolConfig
	seq       []uint64 // per-target volley sequence numbers
	health    []Health
	consecTO  []int  // consecutive timed-out volleys (suspect tracking)
	quarCount []int  // quarantines so far (degradation pressure)
	stale     []bool // missed an invalidation while fenced

	nRequests  stats.Handle
	nCoalesced stats.Handle
	nIPIs      stats.Handle
	nDelivered stats.Handle
	nRemoteInv stats.Handle
	nDropped   stats.Handle
	nDelayed   stats.Handle
	ipiCycles  stats.Handle
	remCycles  stats.Handle

	nAcks        stats.Handle
	nAckLost     stats.Handle
	nRetrans     stats.Handle
	nTimeouts    stats.Handle
	nDupSup      stats.Handle
	nSuspects    stats.Handle
	nQuar        stats.Handle
	nDegraded    stats.Handle
	nFencedDisc  stats.Handle
	nFencedSkips stats.Handle
	toCycles     stats.Handle
	retransCyc   stats.Handle
	hopCycles    stats.Handle

	// Device-seat splits of the delivery counters, so device shootdown
	// traffic is attributable separately from CPU traffic.
	nDevIPIs        stats.Handle
	nDevDelivered   stats.Handle
	nDevDropped     stats.Handle
	nDevRetrans     stats.Handle
	nDevTimeouts    stats.Handle
	nDevQuar        stats.Handle
	nDevFencedSkips stats.Handle
}

// New creates a shootdown subsystem for ncpu CPUs. costs is the cost
// model its charges read in place; counters register under "smp." in
// ctrs; cycles receives the initiator-side IPI cost.
func New(ncpu int, h Handler, costs *cpu.CostModel, ctrs *stats.Counters, cycles *stats.Cycles) *Shootdown {
	if ncpu < 1 {
		panic("smp: need at least one CPU")
	}
	s := &Shootdown{
		ncpu:      ncpu,
		handler:   h,
		costs:     costs,
		cycles:    cycles,
		topo:      SingleCluster(ncpu),
		q:         make([]batchQueue, ncpu),
		seq:       make([]uint64, ncpu),
		health:    make([]Health, ncpu),
		consecTO:  make([]int, ncpu),
		quarCount: make([]int, ncpu),
		stale:     make([]bool, ncpu),
	}
	s.nRequests = ctrs.Handle("smp.requests")
	s.nCoalesced = ctrs.Handle("smp.coalesced")
	s.nIPIs = ctrs.Handle("smp.ipis")
	s.nDelivered = ctrs.Handle("smp.delivered")
	s.nRemoteInv = ctrs.Handle("smp.remote_invalidations")
	s.nDropped = ctrs.Handle("smp.ipi_dropped")
	s.nDelayed = ctrs.Handle("smp.ipi_delayed")
	s.ipiCycles = ctrs.Handle("smp.ipi_cycles")
	s.remCycles = ctrs.Handle("smp.remote_cycles")
	s.nAcks = ctrs.Handle("smp.acks")
	s.nAckLost = ctrs.Handle("smp.ack_lost")
	s.nRetrans = ctrs.Handle("smp.retransmits")
	s.nTimeouts = ctrs.Handle("smp.timeouts")
	s.nDupSup = ctrs.Handle("smp.dup_suppressed")
	s.nSuspects = ctrs.Handle("smp.suspects")
	s.nQuar = ctrs.Handle("smp.quarantines")
	s.nDegraded = ctrs.Handle("smp.degraded")
	s.nFencedDisc = ctrs.Handle("smp.fenced_discards")
	s.nFencedSkips = ctrs.Handle("smp.fenced_skips")
	s.toCycles = ctrs.Handle("smp.timeout_cycles")
	s.retransCyc = ctrs.Handle("smp.retransmit_cycles")
	s.hopCycles = ctrs.Handle("smp.hop_cycles")
	s.nDevIPIs = ctrs.Handle("smp.dev_ipis")
	s.nDevDelivered = ctrs.Handle("smp.dev_delivered")
	s.nDevDropped = ctrs.Handle("smp.dev_dropped")
	s.nDevRetrans = ctrs.Handle("smp.dev_retransmits")
	s.nDevTimeouts = ctrs.Handle("smp.dev_timeouts")
	s.nDevQuar = ctrs.Handle("smp.dev_quarantines")
	s.nDevFencedSkips = ctrs.Handle("smp.dev_fenced_skips")
	return s
}

// AttachDevices seats device translation agents above the CPU range:
// with n CPUs and k devices, targets [n, n+k) address the devices in
// spec order. Each call appends; the per-target queue, health and
// sequence state grows to cover the new seats.
func (s *Shootdown) AttachDevices(specs []DeviceSpec) {
	for _, sp := range specs {
		s.devCluster = append(s.devCluster, sp.Cluster)
		s.q = append(s.q, batchQueue{})
		s.seq = append(s.seq, 0)
		s.health = append(s.health, Healthy)
		s.consecTO = append(s.consecTO, 0)
		s.quarCount = append(s.quarCount, 0)
		s.stale = append(s.stale, false)
	}
}

// IsDevice reports whether target t is a device seat.
func (s *Shootdown) IsDevice(t int) bool { return t >= s.ncpu }

// clusterOf returns the mesh cluster of target t: CPU seats map through
// the topology, device seats sit at their configured cluster (clamped
// to the mesh, so a stale cluster index under a narrower topology still
// prices finitely).
func (s *Shootdown) clusterOf(t int) int {
	if t < s.ncpu {
		return s.topo.ClusterOf(t)
	}
	c := s.devCluster[t-s.ncpu]
	if max := s.topo.Clusters() - 1; c > max {
		c = max
	}
	if c < 0 {
		c = 0
	}
	return c
}

// TargetTimeouts returns the acknowledged-protocol timing for target t:
// the base ack timeout and the backoff cap, with the device timeout
// scale applied for device seats. Zero values if the protocol is off.
// The kernel's convergence bound uses these so a slow-draining device
// is charged its full grant.
func (s *Shootdown) TargetTimeouts(t int) (ack, backoff uint64) {
	if s.proto == nil {
		return 0, 0
	}
	ack, backoff = s.proto.AckTimeout, s.proto.BackoffLimit
	if t >= s.ncpu {
		ack *= deviceTimeoutScale
		backoff *= deviceTimeoutScale
	}
	return ack, backoff
}

// SetFault installs (or with nil removes) the chaos-injection hook.
func (s *Shootdown) SetFault(fn FaultHook) { s.fault = fn }

// FaultArmed reports whether a chaos-injection hook is installed.
// Experiments with cross-model assertions consult this: fault
// injection perturbs per-model traffic independently, so comparisons
// calibrated on fault-free runs do not hold under it.
func (s *Shootdown) FaultArmed() bool { return s.fault != nil }

// SetTopology installs the mesh topology used to price IPI delivery
// and remote memory-bank traffic. The topology is normalized against
// the CPU count; New starts with SingleCluster (all hop counts zero).
func (s *Shootdown) SetTopology(t Topology) {
	s.topo = t.Normalize(s.ncpu)
	s.mesh = s.topo.Clusters() > 1
}

// SetInitiator records the CPU that originates subsequent volleys, so
// hop-priced IPI costs measure the right mesh distance. The kernel
// calls it from SetCPU.
func (s *Shootdown) SetInitiator(cpu int) { s.initiator = cpu }

// EnableProtocol switches delivery from fire-and-forget to the
// acknowledged protocol with the given tuning (zero fields default, the
// timeouts priced by the cost model's IPI as it stands now).
func (s *Shootdown) EnableProtocol(cfg ProtocolConfig) {
	cfg.fill(s.costs.IPI)
	s.proto = &cfg
}

// ProtocolEnabled reports whether acknowledged delivery is on.
func (s *Shootdown) ProtocolEnabled() bool { return s.proto != nil }

// Protocol returns the active protocol tuning (zero value if the
// protocol is off).
func (s *Shootdown) Protocol() ProtocolConfig {
	if s.proto == nil {
		return ProtocolConfig{}
	}
	return *s.proto
}

// SeatHealth returns the initiator's health view of seat t: a CPU, or
// a device seated above the CPU range.
func (s *Shootdown) SeatHealth(t int) Health { return s.health[t] }

// Fenced reports whether CPU t is excluded from delivery (quarantined
// or degraded). The kernel must not rely on shootdowns reaching a
// fenced CPU: EnqueueSet marks it stale instead of queueing, and the
// kernel bulk-invalidates it on rejoin.
func (s *Shootdown) Fenced(t int) bool {
	return s.health[t] == Quarantined || s.health[t] == Degraded
}

// Trusted reports whether CPU t's private structures can be believed:
// it holds no missed invalidations. A quarantined CPU is always stale
// (quarantine marks it so) and hence untrusted until rejoined; a
// degraded CPU alternates — untrusted whenever a shootdown had to skip
// it, trusted again right after each rejoin purge (flush-on-switch
// semantics: it stays fenced from delivery, but a freshly purged CPU
// holds no stale authority).
func (s *Shootdown) Trusted(t int) bool { return !s.stale[t] }

// skipFenced records that EnqueueSet suppressed an invalidation to
// fenced seat t: the seat is marked stale and the skip is counted
// ("smp.fenced_skips") so overhead and convergence accounting see
// every invalidation the fence swallowed, not only the delivered ones.
func (s *Shootdown) skipFenced(t int) {
	s.nFencedSkips.Inc()
	if s.IsDevice(t) {
		s.nDevFencedSkips.Inc()
	}
	s.stale[t] = true
}

// Rejoin readmits CPU t after the kernel bulk-invalidated its private
// structures: the CPU holds no state, so it is no longer stale, and a
// quarantine is lifted. A degraded CPU stays degraded — the purge makes
// it safe to execute on, but it is never again trusted to acknowledge
// volleys (flush-on-switch semantics).
func (s *Shootdown) Rejoin(t int) {
	s.stale[t] = false
	s.consecTO[t] = 0
	if s.health[t] == Quarantined || s.health[t] == Suspect {
		s.health[t] = Healthy
	}
}

// DropPending discards everything queued for CPU t (the kernel is
// about to bulk-invalidate t's structures, so in-flight invalidations
// for it are moot).
func (s *Shootdown) DropPending(t int) { s.q[t].discard() }

// EnqueueSet queues r for delivery at the next Flush to every seat in
// targets but skip, in ascending seat order; the kernel passes the
// current CPU as skip, since it applied r itself. A fenced seat cannot
// be reached by IPI, so it is not queued: skipFenced marks it stale
// instead, and its rejoin purge will subsume r. Identical requests
// already pending for a seat coalesce away. r is hashed once, at its
// first queued seat, for every queue it joins.
func (s *Shootdown) EnqueueSet(targets *CPUSet, skip int, r *Request) {
	var h uint64
	hashed := false
	for wi, w := range targets.words {
		for ; w != 0; w &= w - 1 {
			t := wi<<6 | bits.TrailingZeros64(w)
			switch {
			case t == skip:
			case s.Fenced(t):
				s.skipFenced(t)
			default:
				if !hashed {
					h, hashed = r.hash(), true
				}
				s.nRequests.Inc()
				if s.enqueue(t, r, h) {
					s.nCoalesced.Inc()
				}
			}
		}
	}
}

// enqueue adds r, whose hash is h, to target's batch; reports whether it
// coalesced into an already-pending identical request. The coalesced
// request takes the newest copy's position: when other requests were
// queued since the earlier copy (A, B, A — say a group revoked,
// re-minted and revoked again in one deferred window), the earlier copy
// is dropped and r appended, so the target ends in the state the last
// request leaves.
func (s *Shootdown) enqueue(target int, r *Request, h uint64) bool {
	q := &s.q[target]
	if 2*(len(q.items)+1) > len(q.slots) {
		q.grow()
	}
	i, dup := q.lookup(r, h)
	if !dup {
		q.slots[i] = slot{gen: q.gen, pos: uint32(len(q.items))}
		q.items = append(q.items, *r)
		return false
	}
	if pos := int(q.slots[i].pos); pos != len(q.items)-1 {
		copy(q.items[pos:], q.items[pos+1:])
		q.items[len(q.items)-1] = *r
		q.reindex()
	}
	return true
}

// Pending returns the number of requests queued for CPU target.
func (s *Shootdown) Pending(target int) int { return len(s.q[target].items) }

// batchQueue is one target's pending requests in enqueue order, indexed
// for coalescing by an open-addressed table of positions in items. A
// slot is live only while its gen equals the queue's, so the index
// empties by bumping gen instead of clearing slots. takeBatch swaps
// items with spare (the batch it handed out last time, delivered by
// now) rather than giving the array away, so enqueues during or after a
// flush never write into a batch being read.
type batchQueue struct {
	items []Request
	spare []Request
	slots []slot // power-of-two length, at most half live
	shift uint8  // 64 - log2(len(slots)): a hash's top bits pick its slot
	gen   uint32
}

type slot struct {
	gen uint32
	pos uint32 // index into items
}

// lookup returns the slot indexing r, whose hash is h, and true, or the
// free slot r would take and false.
func (q *batchQueue) lookup(r *Request, h uint64) (int, bool) {
	mask := len(q.slots) - 1
	for i := int(h >> q.shift); ; i = (i + 1) & mask {
		sl := q.slots[i]
		if sl.gen != q.gen {
			return i, false
		}
		if q.items[sl.pos] == *r {
			return i, true
		}
	}
}

// grow doubles the index (16 slots at first) and rebuilds it.
func (q *batchQueue) grow() {
	n := max(16, 2*len(q.slots))
	q.slots = make([]slot, n)
	q.shift = uint8(bits.LeadingZeros64(uint64(n)) + 1)
	q.reindex()
}

// reindex rebuilds the index over items, after a grow or after a
// coalesced request moved behind the ones queued since its first copy.
func (q *batchQueue) reindex() {
	q.forget()
	for j := range q.items {
		i, _ := q.lookup(&q.items[j], q.items[j].hash())
		q.slots[i] = slot{gen: q.gen, pos: uint32(j)}
	}
}

// forget empties the index in O(1); only a wrapped generation pays for
// clearing the slots.
func (q *batchQueue) forget() {
	q.gen++
	if q.gen == 0 {
		clear(q.slots)
		q.gen = 1
	}
}

// discard drops everything pending, keeping the buffers.
func (q *batchQueue) discard() {
	q.items = q.items[:0]
	q.forget()
}

// hash mixes every field of r by Fibonacci hashing: a product's top
// bits depend on every bit of its operand, so the index takes its slot
// number from them. Equal requests hash equally; the index confirms each
// candidate with ==.
func (r *Request) hash() uint64 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(r.Kind) | uint64(r.Rights)<<8 | uint64(r.Domain)<<16 | uint64(r.Group)<<32
	if r.WD {
		h = ^h
	}
	h = (h ^ uint64(r.VPN)) * m
	return (h ^ uint64(r.Range.Start) ^ r.Range.Length<<17) * m
}

// Flush delivers every pending batch: one IPI per target CPU that
// receives at least one request, the batch applied in enqueue order on
// that CPU's structures. Fire-and-forget mode sends each batch in one
// volley whose faults are final; the acknowledged protocol instead
// retries unacknowledged requests inline with capped exponential backoff
// and quarantines targets that exhaust the budget.
func (s *Shootdown) Flush() {
	for t := range s.q {
		if s.proto != nil {
			s.flushAcked(t)
		} else if batch := s.takeBatch(t); len(batch) > 0 {
			s.volley(t, batch, nil, false)
		}
	}
}

// takeBatch claims CPU t's queued batch and empties the queue. The
// batch stays valid until the next takeBatch for t.
func (s *Shootdown) takeBatch(t int) []Request {
	q := &s.q[t]
	batch := q.items
	if len(batch) == 0 {
		return nil
	}
	q.items, q.spare = q.spare[:0], batch
	q.forget()
	return batch
}

// chargeIPI charges one delivered interrupt to the initiator: the base
// IPI cost plus IPIHop cycles per mesh hop between the initiator's
// cluster and target t's cluster (none on a single-cluster topology).
// retrans marks it as a retransmission volley for the overhead split.
func (s *Shootdown) chargeIPI(t int, retrans bool) {
	s.nIPIs.Inc()
	if s.IsDevice(t) {
		s.nDevIPIs.Inc()
	}
	ipi := s.costs.IPI
	if s.mesh {
		if h := s.topo.ClusterHops(s.topo.ClusterOf(s.initiator), s.clusterOf(t)); h > 0 {
			extra := uint64(h) * s.costs.IPIHop
			ipi += extra
			s.hopCycles.Add(extra)
		}
	}
	s.cycles.Add(ipi)
	s.ipiCycles.Add(ipi)
	if retrans {
		s.retransCyc.Add(ipi)
	}
}

// chargeMemHops charges the mesh distance from target t to the home
// memory bank of a page-scoped request it just applied: invalidation
// and writeback traffic crosses the mesh to the page's home cluster.
// Zero-hop (same cluster) is free. The caller checks s.mesh, since on
// one cluster every request is zero-hop.
func (s *Shootdown) chargeMemHops(t int, r *Request) {
	if !r.Kind.PageScoped() {
		return
	}
	h := s.topo.MemHopsFrom(s.clusterOf(t), r.VPN)
	if h == 0 {
		return
	}
	extra := uint64(h) * s.costs.MemHop
	s.cycles.Add(extra)
	s.hopCycles.Add(extra)
}

// volley delivers reqs to target t as one interrupt, in order. Each
// request's step is its fault verdict, the apply and the apply's hop
// charge; the delivered, acknowledged and remote-invalidation counts,
// the remote cycles and the IPI are charged once for the volley, the IPI
// only if some request arrived (a fully dropped volley is a lost
// interrupt). retry marks a retransmission, for which done[i] says that
// t performed reqs[i] in an earlier volley: the sequence number marks
// the copy a duplicate, and t only resends the ack.
//
// Under the acknowledged protocol the requests left unacknowledged are
// compacted to the front of reqs in order, their done flags with them,
// and their count is returned. Fire-and-forget keeps none: a dropped
// request is lost, and a delay or an ack loss has no ack to fault.
func (s *Shootdown) volley(t int, reqs []Request, done []bool, retry bool) (kept int) {
	acked := s.proto != nil
	arrived := false
	var delivered, acks, affected uint64
	start := s.handler.CPUCycles(t)
	for i := range reqs {
		r := &reqs[i]
		performed := retry && done[i]
		verdict := FaultNone
		if s.fault != nil {
			verdict = s.fault(t, *r)
		}
		if verdict == FaultDrop {
			s.nDropped.Inc()
			if s.IsDevice(t) {
				s.nDevDropped.Inc()
			}
			if acked {
				reqs[kept], done[kept] = *r, performed
				kept++
			}
			continue
		}
		arrived = true
		if performed {
			s.nDupSup.Inc()
		} else {
			affected += uint64(s.handler.ApplyShootdown(t, *r))
			delivered++
			if s.mesh {
				s.chargeMemHops(t, r)
			}
		}
		switch verdict {
		case FaultNone:
			acks++
			continue
		case FaultDelay:
			// Slow responder: performed, but the ack misses the timeout
			// window and the initiator retries anyway.
			s.nDelayed.Inc()
		case FaultAckLoss:
			s.nAckLost.Inc()
		}
		if acked {
			reqs[kept], done[kept] = *r, true
			kept++
		}
	}
	s.remCycles.Add(s.handler.CPUCycles(t) - start)
	if delivered > 0 {
		s.nDelivered.Add(delivered)
		if s.IsDevice(t) {
			s.nDevDelivered.Add(delivered)
		}
		s.nRemoteInv.Add(affected)
	}
	if acked && acks > 0 {
		s.nAcks.Add(acks)
	}
	if arrived {
		s.chargeIPI(t, retry)
	}
	return kept
}

// flushAcked runs the acknowledged protocol for CPU t's batch: volleys
// with per-request ack tracking, timeout + capped-backoff retransmits,
// and quarantine when the retry budget runs out. The loop always
// terminates within MaxRetries+1 volleys: every request is either
// acknowledged or the target is quarantined.
func (s *Shootdown) flushAcked(t int) {
	batch := s.takeBatch(t)
	if len(batch) == 0 {
		return
	}
	if s.Fenced(t) {
		// The kernel normally skips fenced targets before enqueueing;
		// anything that slips through is discarded and the target
		// stays stale until rejoin.
		s.nFencedDisc.Add(uint64(len(batch)))
		s.stale[t] = true
		return
	}
	// Each volley compacts the requests it leaves unacknowledged to the
	// front of pending, the batch itself: takeBatch handed out its array,
	// which nothing reads or writes until t's next takeBatch.
	if len(s.done) < len(batch) {
		s.done = make([]bool, len(batch))
	}
	pending := batch
	// Devices get their scaled ack timeout and backoff cap: draining
	// in-flight DMA before acknowledging takes longer than a CPU trap.
	timeout, backoffCap := s.TargetTimeouts(t)
	for attempt := 0; ; attempt++ {
		if attempt > s.proto.MaxRetries {
			s.quarantine(t, len(pending))
			return
		}
		s.seq[t]++
		if attempt > 0 {
			s.nRetrans.Add(uint64(len(pending)))
			if s.IsDevice(t) {
				s.nDevRetrans.Add(uint64(len(pending)))
			}
		}
		pending = pending[:s.volley(t, pending, s.done, attempt > 0)]
		if len(pending) == 0 {
			// Whole volley acknowledged: the target answered, so any
			// suspicion is cleared.
			s.consecTO[t] = 0
			if s.health[t] == Suspect {
				s.health[t] = Healthy
			}
			return
		}
		// Unacknowledged work remains: the initiator waits out the ack
		// timeout, then retransmits with doubled (capped) backoff.
		s.nTimeouts.Inc()
		if s.IsDevice(t) {
			s.nDevTimeouts.Inc()
		}
		s.cycles.Add(timeout)
		s.toCycles.Add(timeout)
		s.consecTO[t]++
		if s.health[t] == Healthy && s.consecTO[t] >= s.proto.SuspectAfter {
			s.health[t] = Suspect
			s.nSuspects.Inc()
		}
		timeout *= 2
		if timeout > backoffCap {
			timeout = backoffCap
		}
	}
}

// quarantine fences CPU t after it exhausted the retry budget. Its
// unacknowledged requests are discarded (it is stale until rejoin) and
// repeated quarantines degrade it permanently.
func (s *Shootdown) quarantine(t, dropped int) {
	s.nQuar.Inc()
	if s.IsDevice(t) {
		s.nDevQuar.Inc()
	}
	s.quarCount[t]++
	s.stale[t] = true
	s.nFencedDisc.Add(uint64(dropped))
	if s.quarCount[t] >= s.proto.DegradeAfter {
		s.health[t] = Degraded
		s.nDegraded.Inc()
	} else {
		s.health[t] = Quarantined
	}
}

// Reset discards all pending requests and clears transient
// health state (hardware recovery: the kernel is about to rebuild every
// CPU's structures from scratch, so in-flight invalidations are moot
// and nothing is stale afterwards). Degradation is sticky — a CPU that
// proved persistently unresponsive stays on flush-on-switch semantics.
func (s *Shootdown) Reset() {
	for t := range s.q {
		s.q[t].discard()
		s.stale[t] = false
		s.consecTO[t] = 0
		if s.health[t] == Quarantined || s.health[t] == Suspect {
			s.health[t] = Healthy
		}
	}
}
