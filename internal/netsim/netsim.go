// Package netsim models the interconnect of the distributed shared
// virtual memory workload (Li-style DSM, Table 1 rows 5-7): an in-process
// message-passing network between simulated nodes with latency and
// traffic accounting. Coherence protocol messages (page fetches,
// invalidations, ownership transfers) are function calls between node
// structures; the network charges their costs.
//
// The network is perfect by default. A FaultPlan makes it unreliable —
// seeded, deterministic drop/duplicate/delay/reorder injection and
// scheduled node crashes — and the Reliable layer restores exactly-once
// application-level delivery on top, charging what that robustness
// costs (retransmissions, timeouts, acks) in cycles and counters.
package netsim

import (
	"fmt"

	"repro/internal/stats"
)

// Config sets the network's cost parameters.
type Config struct {
	// MsgLatency is the one-way latency of a small control message, in
	// cycles.
	MsgLatency uint64
	// ByteCycles is the additional per-byte transfer cost (page moves
	// dominate with 4 KB payloads).
	ByteCycles uint64
	// Faults injects deterministic unreliability (see FaultPlan); the
	// zero value keeps the interconnect perfect.
	Faults FaultPlan
}

// DefaultConfig returns latencies matching the DefaultCosts network round
// trip: a 20k-cycle one-way message and 4 cycles/byte, so a 4 KB page
// fetch round trip is ~56k cycles.
func DefaultConfig() Config {
	return Config{MsgLatency: 20000, ByteCycles: 4}
}

// Network accounts for message traffic between nodes. The zero value is
// unusable; construct with New.
type Network struct {
	cfg   Config
	nodes int

	msgs   uint64
	bytes  uint64
	cycles uint64

	faults *faultState
	ctrs   stats.Counters

	// Pre-resolved handles for the per-message fault and reliability
	// counters (fault.go, reliable.go), bumped on every send.
	hCrashes, hRecoveries, hDownDrops, hDrops stats.Handle
	hDups, hDelays, hReorders                 stats.Handle
	hRetransmits, hDupSuppressed, hAcks       stats.Handle
	hTimeouts, hFailures                      stats.Handle
}

// New creates a network connecting n nodes.
func New(n int, cfg Config) *Network {
	if n < 1 {
		panic("netsim: need at least one node")
	}
	net := &Network{cfg: cfg, nodes: n}
	if cfg.Faults.Enabled() {
		net.faults = newFaultState(cfg.Faults, n)
	}
	net.hCrashes = net.ctrs.Handle("net.crashes")
	net.hRecoveries = net.ctrs.Handle("net.recoveries")
	net.hDownDrops = net.ctrs.Handle("net.down_drops")
	net.hDrops = net.ctrs.Handle("net.drops")
	net.hDups = net.ctrs.Handle("net.dups")
	net.hDelays = net.ctrs.Handle("net.delays")
	net.hReorders = net.ctrs.Handle("net.reorders")
	net.hRetransmits = net.ctrs.Handle("reliable.retransmits")
	net.hDupSuppressed = net.ctrs.Handle("reliable.dup_suppressed")
	net.hAcks = net.ctrs.Handle("reliable.acks")
	net.hTimeouts = net.ctrs.Handle("reliable.timeouts")
	net.hFailures = net.ctrs.Handle("reliable.failures")
	return net
}

func (n *Network) check(node int) {
	if node < 0 || node >= n.nodes {
		panic(fmt.Sprintf("netsim: node %d out of range (%d nodes)", node, n.nodes))
	}
}

// Send charges one one-way message of the given payload size from one
// node to another and returns its latency in cycles. Sending to self is
// free (local call).
func (n *Network) Send(from, to, size int) uint64 {
	n.check(from)
	n.check(to)
	if from == to {
		return 0
	}
	lat := n.cfg.MsgLatency + uint64(size)*n.cfg.ByteCycles
	n.msgs++
	n.bytes += uint64(size)
	n.cycles += lat
	return lat
}

// Stats returns total messages, bytes, and cycles charged.
func (n *Network) Stats() (msgs, bytes, cycles uint64) { return n.msgs, n.bytes, n.cycles }

// Counters returns the network's fault and reliability event counters
// (net.drops, net.dups, reliable.retransmits, ...).
func (n *Network) Counters() *stats.Counters { return &n.ctrs }
