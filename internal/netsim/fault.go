package netsim

import (
	"fmt"
	"math/rand"
)

// FaultPlan describes deterministic, seeded fault injection for the
// network: per-message drop/duplicate/delay/reorder probabilities and
// scheduled node crash windows. All randomness comes from Seed via a
// private generator consumed in a fixed order per transmission attempt,
// so a given (plan, traffic) pair replays byte-identically — no
// wall-clock anywhere. The zero value is a perfect network.
type FaultPlan struct {
	// Seed feeds the plan's private random stream.
	Seed int64
	// DropPercent is the probability (0-100) that a message vanishes in
	// transit.
	DropPercent int
	// DupPercent is the probability (0-100) that a delivered message
	// arrives twice (the wire duplicates it).
	DupPercent int
	// ReorderPercent is the probability (0-100) that a delivered message
	// is held back behind later traffic (arrives out of order, charged
	// one extra message latency).
	ReorderPercent int
	// DelayPercent is the probability (0-100) that a message is delayed
	// by an extra 1..DelayMaxCycles cycles.
	DelayPercent int
	// DelayMaxCycles bounds injected delays (default MsgLatency when
	// zero and DelayPercent > 0).
	DelayMaxCycles uint64
	// Crashes schedules node outages by global transmission count.
	Crashes []CrashWindow
}

// CrashWindow takes one node down for a half-open window of global
// transmission attempts [From, To); To == 0 means "never recovers by
// itself". Attempt counting is the network's own deterministic clock, so
// windows are reproducible without wall time.
type CrashWindow struct {
	Node     int
	From, To uint64
}

// Enabled reports whether the plan can inject any fault at all.
func (p FaultPlan) Enabled() bool {
	return p.DropPercent > 0 || p.DupPercent > 0 || p.ReorderPercent > 0 ||
		p.DelayPercent > 0 || len(p.Crashes) > 0
}

// validate panics on nonsense percentages (configuration bugs, not
// runtime conditions).
func (p FaultPlan) validate() {
	for _, v := range []struct {
		name string
		pct  int
	}{
		{"DropPercent", p.DropPercent},
		{"DupPercent", p.DupPercent},
		{"ReorderPercent", p.ReorderPercent},
		{"DelayPercent", p.DelayPercent},
	} {
		if v.pct < 0 || v.pct > 100 {
			panic(fmt.Sprintf("netsim: %s = %d out of [0,100]", v.name, v.pct))
		}
	}
}

// Outcome describes one unreliable transmission attempt.
type Outcome struct {
	// Delivered reports whether the primary copy reached a live receiver.
	Delivered bool
	// Duplicated reports whether the wire delivered a second copy too.
	Duplicated bool
	// Reordered reports whether the copy arrived out of order.
	Reordered bool
	// Latency is the cycles charged for the attempt, including injected
	// delay.
	Latency uint64
}

// faultState is the network's fault-injection runtime.
type faultState struct {
	plan FaultPlan
	rng  *rand.Rand
	// attempts counts every unreliable transmission attempt: the
	// deterministic clock crash windows are scheduled against.
	attempts uint64
	// forcedDown marks nodes crashed by the application (DSM's mid-run
	// crash) rather than by a scheduled window.
	forcedDown []bool
}

func newFaultState(plan FaultPlan, nodes int) *faultState {
	plan.validate()
	if plan.DelayPercent > 0 && plan.DelayMaxCycles == 0 {
		plan.DelayMaxCycles = 1
	}
	return &faultState{
		plan:       plan,
		rng:        rand.New(rand.NewSource(plan.Seed)),
		forcedDown: make([]bool, nodes),
	}
}

// roll consumes one random draw and reports whether a pct-probable fault
// fires. Draws are consumed even for pct == 0 so the random stream stays
// aligned across configurations that share a seed.
func (f *faultState) roll(pct int) bool {
	return f.rng.Intn(100) < pct
}

// NodeUp reports whether the node is currently live: not inside any
// scheduled crash window and not crashed by the application.
func (n *Network) NodeUp(node int) bool {
	n.check(node)
	if n.faults == nil {
		return true
	}
	if n.faults.forcedDown[node] {
		return false
	}
	for _, w := range n.faults.plan.Crashes {
		if w.Node != node {
			continue
		}
		if n.faults.attempts >= w.From && (w.To == 0 || n.faults.attempts < w.To) {
			return false
		}
	}
	return true
}

// CrashNode takes a node down until RecoverNode (application-driven
// crash injection, e.g. DSM's mid-run node failure).
func (n *Network) CrashNode(node int) {
	n.check(node)
	n.ensureFaults()
	n.faults.forcedDown[node] = true
	n.hCrashes.Inc()
}

// RecoverNode brings an application-crashed node back up.
func (n *Network) RecoverNode(node int) {
	n.check(node)
	n.ensureFaults()
	n.faults.forcedDown[node] = false
	n.hRecoveries.Inc()
}

// ensureFaults lazily creates fault state for networks configured
// perfect (needed when the application injects crashes directly).
func (n *Network) ensureFaults() {
	if n.faults == nil {
		n.faults = newFaultState(n.cfg.Faults, n.nodes)
	}
}

// Faulty reports whether any fault source is active: a non-trivial plan
// or an application-crashed node. Reliability layers use it to decide
// whether acknowledgment traffic is worth modeling.
func (n *Network) Faulty() bool {
	if n.faults == nil {
		return false
	}
	if n.faults.plan.Enabled() {
		return true
	}
	for _, d := range n.faults.forcedDown {
		if d {
			return true
		}
	}
	return false
}

// SendUnreliable transmits one message under the fault plan and returns
// what happened to it. The sender always pays the transmission cost —
// dropped messages still consumed the wire — and per-attempt random
// draws happen in a fixed order (drop, dup, delay, reorder) so outcomes
// are reproducible from the seed. Sending to self is free and always
// delivered (local call).
func (n *Network) SendUnreliable(from, to, size int) Outcome {
	n.check(from)
	n.check(to)
	if from == to {
		return Outcome{Delivered: true}
	}
	n.ensureFaults()
	f := n.faults
	f.attempts++

	lat := n.cfg.MsgLatency + uint64(size)*n.cfg.ByteCycles
	out := Outcome{}

	// Fixed-order draws keep the random stream aligned regardless of
	// which faults fire.
	dropped := f.roll(f.plan.DropPercent)
	duplicated := f.roll(f.plan.DupPercent)
	delayed := f.roll(f.plan.DelayPercent)
	reordered := f.roll(f.plan.ReorderPercent)
	var delay uint64
	if delayed {
		delay = 1 + uint64(f.rng.Int63n(int64(f.plan.DelayMaxCycles)))
	}

	// The sender transmits regardless of the message's fate.
	n.msgs++
	n.bytes += uint64(size)

	receiverUp := n.NodeUp(to)
	switch {
	case !receiverUp:
		n.hDownDrops.Inc()
	case dropped:
		n.hDrops.Inc()
	default:
		out.Delivered = true
		if duplicated {
			out.Duplicated = true
			n.hDups.Inc()
			// The duplicate copy occupies the wire too.
			n.msgs++
			n.bytes += uint64(size)
			lat += n.cfg.MsgLatency
		}
		if delayed {
			lat += delay
			n.hDelays.Inc()
		}
		if reordered {
			out.Reordered = true
			// Held back one message slot: arrives after traffic sent
			// later, charged as one extra message latency.
			lat += n.cfg.MsgLatency
			n.hReorders.Inc()
		}
	}
	out.Latency = lat
	n.cycles += lat
	return out
}
