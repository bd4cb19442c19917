// Package dsm implements Li-style distributed shared virtual memory over
// the simulated machines (Table 1 rows 5-7): N nodes, each a full
// kernel+machine instance with one application domain, share one virtual
// segment kept coherent by a central-manager write-invalidate protocol
// driven entirely by page protection faults.
//
//   - Get Readable: a load on an invalid page traps; the manager fetches a
//     copy from the owner and maps it read-only.
//   - Get Writable: a store on an invalid or read-only page traps; the
//     manager invalidates every other copy and maps the page read-write.
//   - Invalidate: a remote write makes the local copy inaccessible.
//
// Because every node runs the same kernel bootstrap, the shared segment
// occupies the same global virtual addresses on every node — the single
// address space property that lets DSM pass pointers between machines.
//
// All coherence traffic flows through netsim's reliable-delivery layer,
// so the protocol survives a lossy interconnect (configured via
// Config.Net.Faults) and a mid-run node crash (Config.CrashNode): the
// crashed node's owned pages are flushed to a stable checkpoint image at
// failure time and restored — or served to peers — from it while the
// node reboots. On a perfect network the layer short-circuits to plain
// sends, so fault-free runs cost exactly what they always did.
package dsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/addr"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/workload/checkpoint"
)

// ErrOwnerChainDiverged is returned when a probable-owner chain fails to
// reach the true owner within 2·nodes hops. Chains can legitimately go
// stale under the simulated crash/recovery and message-loss faults this
// workload injects, so divergence is a typed error the chaos harness can
// assert on rather than a panic.
var ErrOwnerChainDiverged = errors.New("dsm: probable-owner chain did not converge")

// ManagerKind selects the ownership-location protocol (Li's thesis
// compares both).
type ManagerKind uint8

const (
	// CentralManager routes every coherence request through node 0,
	// which knows each page's owner: a fixed 2-message locate path, but
	// node 0 is a bottleneck.
	CentralManager ManagerKind = iota
	// DistributedManager keeps a per-node "probable owner" hint per page
	// and forwards requests along the hint chain until the true owner is
	// reached, compressing the path afterwards: no central bottleneck,
	// variable-length locate chains.
	DistributedManager
)

// String names the protocol for tables.
func (m ManagerKind) String() string {
	if m == DistributedManager {
		return "distributed"
	}
	return "central"
}

// Config parameterizes the workload.
type Config struct {
	// Model selects the protection model for every node.
	Model kernel.Model
	// Manager selects the ownership-location protocol.
	Manager ManagerKind
	// Nodes is the machine count.
	Nodes int
	// Pages sizes the shared segment.
	Pages uint64
	// OpsPerNode is the number of accesses each node performs.
	OpsPerNode int
	// WritePercent is the probability (0-100) that an access is a store.
	WritePercent int
	// Partitioned, when true, gives each node an affinity region of the
	// segment (mostly-local accesses with occasional remote ones);
	// otherwise accesses are uniform — maximal sharing.
	Partitioned bool
	// RemotePercent is the probability (0-100) of straying outside the
	// affinity region when Partitioned.
	RemotePercent int
	// Net configures the interconnect; Net.Faults injects message loss,
	// duplication, delay and reordering. (Scheduled netsim crash windows
	// are for raw-network experiments — crash a DSM node with CrashNode,
	// which ties the outage to the protocol's own schedule.)
	Net netsim.Config
	// CrashNode, when nonzero, crashes that node immediately after its
	// access in round CrashAtOp and reboots it just before its next
	// access, so every other node runs one full round against the outage.
	// Node 0 cannot crash: it is the central manager and serves the
	// stable checkpoint store.
	CrashNode int
	// CrashAtOp is the round after which CrashNode fails (0-based,
	// < OpsPerNode).
	CrashAtOp int
	// Seed makes runs reproducible.
	Seed int64
}

// DefaultConfig returns a 4-node, uniform-sharing configuration.
func DefaultConfig(m kernel.Model) Config {
	return Config{
		Model:         m,
		Nodes:         4,
		Pages:         32,
		OpsPerNode:    400,
		WritePercent:  30,
		RemotePercent: 10,
		Net:           netsim.DefaultConfig(),
		Seed:          1,
	}
}

// Report summarizes a run. All fields are scalars so reports compare
// with ==.
type Report struct {
	// ReadFaults and WriteFaults count coherence faults taken.
	ReadFaults, WriteFaults uint64
	// Invalidations counts remote-copy invalidations performed.
	Invalidations uint64
	// PageTransfers counts whole-page moves across the network.
	PageTransfers uint64
	// NetMsgs, NetBytes, NetCycles are interconnect totals.
	NetMsgs, NetBytes, NetCycles uint64
	// LocateHops counts ownership-location messages; ManagerLoad counts
	// requests handled by node 0 (the central bottleneck measure).
	LocateHops, ManagerLoad uint64
	// MeanChain and MaxChain describe the per-fault locate chain length
	// distribution (DistributedManager: probable-owner forwarding).
	MeanChain float64
	MaxChain  uint64
	// MachineCycles sums machine cycles across nodes; KernelCycles sums
	// kernel cycles. Both include cycles burned by a crashed node's dead
	// instance.
	MachineCycles, KernelCycles uint64
	// ProtUpdates counts hardware protection-structure updates performed
	// by the coherence protocol (PLB updates / TLB entry updates+moves).
	ProtUpdates uint64

	// Reliable-delivery layer totals (zero on a perfect network).
	Retransmits, Timeouts, Acks, DupSuppressed uint64
	// RetransCycles, TimeoutCycles and AckCycles break down what
	// reliability cost: retransmitted copies, timeout waits, acks.
	RetransCycles, TimeoutCycles, AckCycles uint64
	// Injected network fault counts.
	Drops, Dups, Reorders, Delays, DownDrops uint64

	// Crash-recovery totals.
	Crashes uint64
	// CheckpointSaves counts pages flushed to the stable image at crash
	// time; RecoveredPages counts pages restored into the rebooted node;
	// StoreFetches counts pages served to peers from the stable image
	// while the owner was down.
	CheckpointSaves, RecoveredPages, StoreFetches uint64
	// RecoveryCycles is the cycle cost of the crash flush plus the
	// rebooted instance's restore work.
	RecoveryCycles uint64
}

// node is one DSM machine.
type node struct {
	idx int
	k   *kernel.Kernel
	dom *kernel.Domain
	seg *kernel.Segment
}

// pageMeta is the manager's record for one shared page.
type pageMeta struct {
	owner   int
	copyset map[int]bool // nodes (other than owner) holding read copies
	// ownerWritable notes whether the owner currently holds the page
	// read-write (no read copies outstanding).
	ownerWritable bool
}

// system is the DSM instance.
type system struct {
	cfg   Config
	nodes []*node
	net   *netsim.Network
	rel   *netsim.Reliable
	// stable is the checkpoint image pages are flushed to when a node
	// crashes (served by node 0, keyed by global VPN).
	stable *checkpoint.Image
	base   addr.VA
	meta   map[addr.VPN]*pageMeta
	// probOwner[node][vpn] is the node's probable-owner hint
	// (DistributedManager only).
	probOwner []map[addr.VPN]int
	chains    *stats.Histogram
	rep       *Report
	// down is the currently crashed node (-1: none); detected reports
	// whether its death has been noticed and broadcast yet.
	down     int
	detected bool
	// carry* bank a dead kernel instance's totals so a reboot doesn't
	// erase its costs from the report.
	carryMachine, carryKernel, carryProt uint64
}

// bootNode creates node i's kernel with the standard bootstrap. Reused
// verbatim for crash recovery: identical bootstrap order puts the shared
// segment at the same global addresses.
func (sys *system) bootNode(i int) *node {
	n := &node{idx: i, k: kernel.New(kernel.DefaultConfig(sys.cfg.Model))}
	n.dom = n.k.CreateDomain()
	n.seg = n.k.CreateSegment(sys.cfg.Pages, kernel.SegmentOptions{
		Name:    "dsm-shared",
		Handler: func(f kernel.Fault) error { return sys.handleFault(i, f) },
	})
	return n
}

// nodeUp reports whether a node is live.
func (sys *system) nodeUp(i int) bool { return sys.net.NodeUp(i) }

// send delivers one protocol message reliably (exactly-once, retried
// through loss); on a perfect network it degenerates to a plain send.
func (sys *system) send(from, to, size int) error {
	_, err := sys.rel.Send(from, to, size, nil)
	return err
}

// request charges a reliable request/response exchange.
func (sys *system) request(from, to, reqSize, respSize int) error {
	_, err := sys.rel.Request(from, to, reqSize, respSize, nil)
	return err
}

// noteDown charges the discovery that a node died: the first peer to
// notice pays a full (failed) retry volley against the silent node, then
// broadcasts the death so later requests go straight to the recovery
// paths instead of timing out again.
func (sys *system) noteDown(reporter, dead int) {
	if sys.detected {
		return
	}
	sys.detected = true
	sys.rel.Send(reporter, dead, 0, nil) // the detection volley: fails after the retry cap
	for j := range sys.nodes {
		if j != reporter && j != dead && sys.nodeUp(j) {
			// Death notices are best-effort.
			sys.rel.Send(reporter, j, 0, nil)
		}
	}
}

// locateOwner routes a coherence request from node i to the page's owner,
// charging the protocol's messages, and returns the owner (which may be
// down — callers check).
func (sys *system) locateOwner(i int, vpn addr.VPN, m *pageMeta) (int, error) {
	if sys.cfg.Manager == CentralManager {
		// Request to the manager, forwarded to the owner.
		if err := sys.send(i, 0, 0); err != nil {
			return 0, err
		}
		sys.rep.ManagerLoad++
		sys.rep.LocateHops += 2
		if m.owner != 0 {
			if sys.nodeUp(m.owner) {
				if err := sys.send(0, m.owner, 0); err != nil {
					return 0, err
				}
			} else {
				sys.noteDown(0, m.owner)
			}
		}
		return m.owner, nil
	}
	// Follow the probable-owner chain; compress it to the true owner.
	cur := i
	var chain []int
	hopCount := uint64(0)
	for hops := 0; cur != m.owner; hops++ {
		if hops > len(sys.nodes)*2 {
			return 0, fmt.Errorf("%w: node %d locating %#x after %d hops",
				ErrOwnerChainDiverged, i, uint64(vpn), hops)
		}
		next := sys.probOwner[cur][vpn]
		if next != cur && !sys.nodeUp(next) {
			sys.noteDown(cur, next)
		}
		if next == cur || !sys.nodeUp(next) {
			// Stale self-hint or dead forwarding hop: fall back to a
			// broadcast-style probe of the true owner (charged as one
			// message per live peer).
			for j := range sys.nodes {
				if j != cur && sys.nodeUp(j) {
					if err := sys.send(cur, j, 0); err != nil {
						return 0, err
					}
					sys.rep.LocateHops++
				}
			}
			break
		}
		if err := sys.send(cur, next, 0); err != nil {
			return 0, err
		}
		sys.rep.LocateHops++
		hopCount++
		chain = append(chain, cur)
		cur = next
	}
	sys.chains.Observe(hopCount)
	for _, n := range chain {
		sys.probOwner[n][vpn] = m.owner
	}
	return m.owner, nil
}

// recordOwnerChange updates probable-owner hints after an ownership
// transfer: the participants learn the new owner; everyone else's hints
// age into forwarding chains.
func (sys *system) recordOwnerChange(vpn addr.VPN, oldOwner, newOwner int) {
	if sys.cfg.Manager != DistributedManager {
		return
	}
	sys.probOwner[oldOwner][vpn] = newOwner
	sys.probOwner[newOwner][vpn] = newOwner
}

// Run executes the workload and verifies coherence: after quiescing,
// every node observes identical page contents, which match an oracle of
// the writes performed.
func Run(cfg Config) (Report, error) {
	if cfg.Nodes < 2 || cfg.Pages == 0 || cfg.OpsPerNode < 0 {
		return Report{}, fmt.Errorf("dsm: invalid config %+v", cfg)
	}
	if cfg.CrashNode != 0 {
		if cfg.CrashNode < 1 || cfg.CrashNode >= cfg.Nodes {
			return Report{}, fmt.Errorf("dsm: CrashNode %d out of [1,%d)", cfg.CrashNode, cfg.Nodes)
		}
		if cfg.CrashAtOp < 0 || cfg.CrashAtOp >= cfg.OpsPerNode {
			return Report{}, fmt.Errorf("dsm: CrashAtOp %d out of [0,%d)", cfg.CrashAtOp, cfg.OpsPerNode)
		}
	}
	sys := &system{
		cfg:    cfg,
		net:    netsim.New(cfg.Nodes, cfg.Net),
		meta:   make(map[addr.VPN]*pageMeta),
		chains: stats.NewHistogram(1, 2, 4, 8),
		rep:    &Report{},
		down:   -1,
	}
	sys.rel = netsim.NewReliable(sys.net, netsim.ReliableConfig{})
	// Boot the nodes. Identical bootstrap order gives the shared segment
	// the same address range on every node.
	for i := 0; i < cfg.Nodes; i++ {
		n := sys.bootNode(i)
		if i == 0 {
			sys.base = n.seg.Base()
			// Node 0 initially owns every page read-write.
			n.k.Attach(n.dom, n.seg, addr.RW)
		} else {
			if n.seg.Base() != sys.base {
				return Report{}, fmt.Errorf("dsm: segment base mismatch: %#x vs %#x",
					uint64(n.seg.Base()), uint64(sys.base))
			}
			n.k.Attach(n.dom, n.seg, addr.None)
		}
		sys.nodes = append(sys.nodes, n)
	}
	sys.stable = checkpoint.NewImageFor(sys.nodes[0].k)
	geo := sys.nodes[0].k.Geometry()
	sys.probOwner = make([]map[addr.VPN]int, cfg.Nodes)
	for i := range sys.probOwner {
		sys.probOwner[i] = make(map[addr.VPN]int)
	}
	for p := uint64(0); p < cfg.Pages; p++ {
		vpn := geo.PageNumber(sys.base + addr.VA(p*geo.PageSize()))
		sys.meta[vpn] = &pageMeta{owner: 0, copyset: map[int]bool{}, ownerWritable: true}
		for i := range sys.probOwner {
			sys.probOwner[i][vpn] = 0 // everyone starts believing node 0 owns it
		}
	}

	// The access phase. The oracle tracks the last value written to each
	// word we touch.
	rng := rand.New(rand.NewSource(cfg.Seed))
	oracle := make(map[addr.VA]uint64)
	for op := 0; op < cfg.OpsPerNode; op++ {
		for i, n := range sys.nodes {
			if sys.down == i {
				// The crashed node's turn has come around again: reboot it
				// before its access, so the sequential access order — and
				// therefore the final memory contents — match a fault-free
				// run exactly.
				if err := sys.recoverNode(i); err != nil {
					return *sys.rep, err
				}
				n = sys.nodes[i]
			}
			p := sys.pickPage(rng, i)
			va := sys.base + addr.VA(p*geo.PageSize()) // word 0 of the page
			if rng.Intn(100) < cfg.WritePercent {
				v := uint64(i+1)<<32 | uint64(op+1)
				if err := n.k.Store(n.dom, va, v); err != nil {
					return *sys.rep, fmt.Errorf("dsm: node %d store: %w", i, err)
				}
				oracle[va] = v
			} else {
				if _, err := n.k.Load(n.dom, va); err != nil {
					return *sys.rep, fmt.Errorf("dsm: node %d load: %w", i, err)
				}
			}
			if cfg.CrashNode > 0 && cfg.CrashNode == i && op == cfg.CrashAtOp {
				if err := sys.crashNode(i); err != nil {
					return *sys.rep, err
				}
			}
		}
	}
	if sys.down >= 0 {
		// The run ended inside the outage window; recover before verifying.
		if err := sys.recoverNode(sys.down); err != nil {
			return *sys.rep, err
		}
	}

	// Verification: every node reads every written word and must observe
	// the oracle value (the protocol fetches fresh copies as needed).
	// Iterate deterministically so runs are reproducible.
	vas := make([]addr.VA, 0, len(oracle))
	for va := range oracle {
		vas = append(vas, va)
	}
	sort.Slice(vas, func(a, b int) bool { return vas[a] < vas[b] })
	for _, va := range vas {
		want := oracle[va]
		for i, n := range sys.nodes {
			got, err := n.k.Load(n.dom, va)
			if err != nil {
				return *sys.rep, fmt.Errorf("dsm: verify node %d: %w", i, err)
			}
			if got != want {
				return *sys.rep, fmt.Errorf("dsm: incoherent: node %d sees %#x at %#x, want %#x",
					i, got, uint64(va), want)
			}
		}
	}
	// Cross-check whole pages match across nodes for pages with copies.
	if err := sys.verifyReplicaEquality(); err != nil {
		return *sys.rep, err
	}

	for _, n := range sys.nodes {
		sys.rep.MachineCycles += n.k.Machine().Cycles()
		sys.rep.KernelCycles += n.k.Cycles()
		mc := n.k.Machine().Counters()
		sys.rep.ProtUpdates += mc.Get("plb.update") + mc.Get("pgtlb.update")
	}
	sys.rep.MachineCycles += sys.carryMachine
	sys.rep.KernelCycles += sys.carryKernel
	sys.rep.ProtUpdates += sys.carryProt
	sys.rep.NetMsgs, sys.rep.NetBytes, sys.rep.NetCycles = sys.net.Stats()
	sys.rep.MeanChain = sys.chains.Mean()
	sys.rep.MaxChain = sys.chains.Max()
	ctrs := sys.net.Counters()
	sys.rep.Retransmits = ctrs.Get("reliable.retransmits")
	sys.rep.Timeouts = ctrs.Get("reliable.timeouts")
	sys.rep.Acks = ctrs.Get("reliable.acks")
	sys.rep.DupSuppressed = ctrs.Get("reliable.dup_suppressed")
	sys.rep.Drops = ctrs.Get("net.drops")
	sys.rep.Dups = ctrs.Get("net.dups")
	sys.rep.Reorders = ctrs.Get("net.reorders")
	sys.rep.Delays = ctrs.Get("net.delays")
	sys.rep.DownDrops = ctrs.Get("net.down_drops")
	sys.rep.RetransCycles, sys.rep.TimeoutCycles, sys.rep.AckCycles = sys.rel.OverheadCycles()
	return *sys.rep, nil
}

// pickPage selects a page for node i per the access pattern.
func (sys *system) pickPage(rng *rand.Rand, i int) uint64 {
	if !sys.cfg.Partitioned {
		return uint64(rng.Intn(int(sys.cfg.Pages)))
	}
	per := sys.cfg.Pages / uint64(sys.cfg.Nodes)
	if per == 0 {
		per = 1
	}
	if rng.Intn(100) < sys.cfg.RemotePercent {
		return uint64(rng.Intn(int(sys.cfg.Pages)))
	}
	lo := uint64(i) * per
	return lo + uint64(rng.Intn(int(per)))%sys.cfg.Pages
}

// handleFault is the coherence protocol entry point: a protection fault on
// the shared segment of node i.
func (sys *system) handleFault(i int, f kernel.Fault) error {
	vpn := sys.nodes[i].k.Geometry().PageNumber(f.VA)
	m, ok := sys.meta[vpn]
	if !ok {
		return fmt.Errorf("dsm: fault on unmanaged page %#x", uint64(vpn))
	}
	if f.Kind == addr.Store {
		sys.rep.WriteFaults++
		return sys.getWritable(i, vpn, m)
	}
	sys.rep.ReadFaults++
	return sys.getReadable(i, vpn, m)
}

// getReadable implements Table 1 "Get Readable": fetch a read-only copy.
func (sys *system) getReadable(i int, vpn addr.VPN, m *pageMeta) error {
	owner, err := sys.locateOwner(i, vpn, m)
	if err != nil {
		return err
	}
	if !sys.nodeUp(owner) {
		// The owner died. Fetch its last checkpointed copy from the
		// stable store and let the reader adopt ownership (read-only;
		// surviving read copies stay valid).
		if err := sys.fetchFromStable(i, vpn); err != nil {
			return err
		}
		sys.recordOwnerChange(vpn, owner, i)
		delete(m.copyset, i)
		m.owner = i
		m.ownerWritable = false
		return sys.setNodeRights(i, vpn, addr.Read)
	}
	if err := sys.transferPage(owner, i, vpn); err != nil {
		return err
	}
	// The owner's copy degrades to read-only (it may no longer write
	// without invalidating the new copy).
	if m.ownerWritable {
		if err := sys.setNodeRights(m.owner, vpn, addr.Read); err != nil {
			return err
		}
		m.ownerWritable = false
	}
	m.copyset[i] = true
	return sys.setNodeRights(i, vpn, addr.Read)
}

// getWritable implements Table 1 "Get Writable": take exclusive
// ownership, invalidating all other copies.
func (sys *system) getWritable(i int, vpn addr.VPN, m *pageMeta) error {
	oldOwner, err := sys.locateOwner(i, vpn, m)
	if err != nil {
		return err
	}
	// The ownership-forward response carries the old owner's copyset
	// (one word per member plus the owner record).
	csPayload := 8 * (len(m.copyset) + 1)
	ownerUp := sys.nodeUp(oldOwner)
	if oldOwner != i {
		if ownerUp {
			if err := sys.transferPage(oldOwner, i, vpn); err != nil {
				return err
			}
		} else if err := sys.fetchFromStable(i, vpn); err != nil {
			return err
		}
	}
	// Invalidate every other copy (Table 1 "Invalidate"), in
	// deterministic order. A crashed node's copies died with it.
	holders := make([]int, 0, len(m.copyset))
	for j := range m.copyset {
		holders = append(holders, j)
	}
	sort.Ints(holders)
	for _, j := range holders {
		if j == i || !sys.nodeUp(j) {
			continue
		}
		if err := sys.request(invalidator(sys.cfg.Manager, i), j, 0, 0); err != nil {
			return err
		}
		if err := sys.setNodeRights(j, vpn, addr.None); err != nil {
			return err
		}
		sys.rep.Invalidations++
	}
	if oldOwner != i && ownerUp {
		if err := sys.request(invalidator(sys.cfg.Manager, i), oldOwner, 0, csPayload); err != nil {
			return err
		}
		if err := sys.setNodeRights(oldOwner, vpn, addr.None); err != nil {
			return err
		}
		sys.rep.Invalidations++
	}
	sys.recordOwnerChange(vpn, oldOwner, i)
	m.owner = i
	m.ownerWritable = true
	clear(m.copyset)
	return sys.setNodeRights(i, vpn, addr.RW)
}

// transferPage moves the page's bytes from one node's memory to
// another's over the (reliable) network.
func (sys *system) transferPage(from, to int, vpn addr.VPN) error {
	if from == to {
		return nil
	}
	// Peek, not read: the destination kernel's KernelWritePage copies
	// the bytes into its own frame, and the two kernels never share
	// frames, so no host-side intermediate buffer is needed.
	data, err := sys.nodes[from].k.KernelPeekPage(vpn)
	if err != nil {
		return err
	}
	if err := sys.send(from, to, len(data)); err != nil {
		return err
	}
	sys.rep.PageTransfers++
	return sys.nodes[to].k.KernelWritePage(vpn, data)
}

// fetchFromStable serves a page whose owner is down: node 0 reads the
// crashed node's checkpoint image from the stable store and ships the
// page to the requester.
func (sys *system) fetchFromStable(to int, vpn addr.VPN) error {
	data, err := sys.stable.Read(vpn)
	if err != nil {
		return fmt.Errorf("dsm: owner of page %#x is down and the stable store has no copy: %w",
			uint64(vpn), err)
	}
	sys.nodes[0].k.Charge(sys.nodes[0].k.Machine().Costs().DiskRead)
	if to != 0 {
		if err := sys.send(0, to, len(data)); err != nil {
			return err
		}
	}
	sys.rep.StoreFetches++
	sys.rep.PageTransfers++
	return sys.nodes[to].k.KernelWritePage(vpn, data)
}

// crashNode fails node x: flush the pages it owns to the stable
// checkpoint image (write-through at failure time — the mechanism of
// workload/checkpoint), bank the dying instance's cycle totals, drop its
// read copies and connection state, and take it off the network.
func (sys *system) crashNode(x int) error {
	n := sys.nodes[x]
	cyc0 := n.k.TotalCycles()
	vpns := sys.sortedVPNs()
	for _, vpn := range vpns {
		if sys.meta[vpn].owner != x {
			continue
		}
		if err := sys.stable.SavePage(n.k, vpn); err != nil {
			return fmt.Errorf("dsm: crash flush: %w", err)
		}
		sys.rep.CheckpointSaves++
	}
	sys.rep.RecoveryCycles += n.k.TotalCycles() - cyc0
	sys.carryMachine += n.k.Machine().Cycles()
	sys.carryKernel += n.k.Cycles()
	mc := n.k.Machine().Counters()
	sys.carryProt += mc.Get("plb.update") + mc.Get("pgtlb.update")
	for _, vpn := range vpns {
		delete(sys.meta[vpn].copyset, x)
	}
	sys.rel.ResetNode(x)
	sys.net.CrashNode(x)
	sys.down = x
	sys.rep.Crashes++
	return nil
}

// recoverNode reboots node x with the identical bootstrap (the single
// address space guarantees the shared segment reappears at the same
// global addresses), restores the pages it still owns from the stable
// image, resynchronizes ownership knowledge, and rejoins the network.
func (sys *system) recoverNode(x int) error {
	n := sys.bootNode(x)
	if n.seg.Base() != sys.base {
		return fmt.Errorf("dsm: recovery segment base mismatch: %#x vs %#x",
			uint64(n.seg.Base()), uint64(sys.base))
	}
	n.k.Attach(n.dom, n.seg, addr.None)
	sys.nodes[x] = n
	sys.net.RecoverNode(x)
	sys.down = -1
	sys.detected = false
	vpns := sys.sortedVPNs()
	for _, vpn := range vpns {
		m := sys.meta[vpn]
		if m.owner != x {
			continue // ownership seized while down; the page lives elsewhere now
		}
		if err := sys.stable.RestorePage(n.k, vpn); err != nil {
			return fmt.Errorf("dsm: recovery restore: %w", err)
		}
		r := addr.Read
		if m.ownerWritable {
			r = addr.RW
		}
		if err := sys.setNodeRights(x, vpn, r); err != nil {
			return err
		}
		sys.rep.RecoveredPages++
	}
	// Resynchronize ownership knowledge: the manager replays the page
	// directory (one word per page) to the rebooted node; under the
	// distributed protocol each live peer shares its hint table instead.
	dirBytes := 8 * len(sys.meta)
	if sys.cfg.Manager == CentralManager {
		if err := sys.request(x, 0, 0, dirBytes); err != nil {
			return err
		}
	} else {
		for j := range sys.nodes {
			if j != x && sys.nodeUp(j) {
				if err := sys.request(x, j, 0, dirBytes); err != nil {
					return err
				}
			}
		}
		for _, vpn := range vpns {
			sys.probOwner[x][vpn] = sys.meta[vpn].owner
		}
	}
	sys.rep.RecoveryCycles += n.k.TotalCycles()
	return nil
}

// sortedVPNs returns the managed pages in deterministic order.
func (sys *system) sortedVPNs() []addr.VPN {
	vpns := make([]addr.VPN, 0, len(sys.meta))
	for vpn := range sys.meta {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(a, b int) bool { return vpns[a] < vpns[b] })
	return vpns
}

// setNodeRights applies a protection change on one node's kernel. The
// single address space makes this trivial: the page's VA is the same on
// every node.
func (sys *system) setNodeRights(i int, vpn addr.VPN, r addr.Rights) error {
	n := sys.nodes[i]
	return n.k.SetPageRights(n.dom, n.k.Geometry().Base(vpn), r)
}

// verifyReplicaEquality checks that every node holding a readable copy of
// a page has bytes identical to the owner's.
func (sys *system) verifyReplicaEquality() error {
	for _, vpn := range sys.sortedVPNs() {
		m := sys.meta[vpn]
		ownerData, err := sys.nodes[m.owner].k.KernelPeekPage(vpn)
		if err != nil {
			return err
		}
		for j := range m.copyset {
			data, err := sys.nodes[j].k.KernelPeekPage(vpn)
			if err != nil {
				return err
			}
			if !bytes.Equal(ownerData, data) {
				return fmt.Errorf("dsm: replica divergence on page %#x between nodes %d and %d",
					uint64(vpn), m.owner, j)
			}
		}
	}
	return nil
}

// invalidator returns the node that issues invalidations: the central
// manager under CentralManager, the requester itself under
// DistributedManager.
func invalidator(m ManagerKind, requester int) int {
	if m == DistributedManager {
		return requester
	}
	return 0
}
