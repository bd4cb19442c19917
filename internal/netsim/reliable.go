package netsim

import (
	"errors"
	"fmt"
)

// ReliableConfig parameterizes the reliable-delivery layer.
type ReliableConfig struct {
	// MaxRetries caps retransmissions of one message; the attempt budget
	// is MaxRetries+1. Exceeding it surfaces ErrDeliveryFailed — the
	// layer never loses a message silently. Zero picks a generous 16: at
	// a 20% drop rate the chance of 17 consecutive losses is negligible,
	// so experiments fail only when a node is genuinely unreachable.
	MaxRetries int
}

// ErrDeliveryFailed is returned when a message exhausts its retry budget
// without an acknowledged delivery (typically: the receiver is down).
var ErrDeliveryFailed = errors.New("netsim: delivery failed after retry cap")

// link identifies a directed sender→receiver pair.
type link struct{ from, to int }

// Reliable provides exactly-once application-level delivery over the
// unreliable network: per-link sequence numbers, positive acks,
// retransmission with timeout + exponential backoff + a retry cap, and
// receiver-side duplicate suppression. Every retransmission, timeout and
// ack is charged in cycles on the network and surfaced as named
// counters, so experiments can quantify what reliability costs.
//
// On a perfect network (no fault plan, no crashed nodes) the layer
// short-circuits to plain sends — acks are not modeled — so fault-free
// runs cost exactly what they did before the layer existed.
type Reliable struct {
	net *Network
	cfg ReliableConfig

	nextSeq   map[link]uint64
	delivered map[link]map[uint64]bool

	retransCycles uint64
	timeoutCycles uint64
	ackCycles     uint64
}

// NewReliable wraps the network in a reliable-delivery layer. The
// sender's first retransmission timeout is two of the network's one-way
// latencies; it doubles on every retry up to 16 times that, so a failed
// volley against a dead node costs a bounded number of cycles rather
// than 2^MaxRetries timeouts.
func NewReliable(n *Network, cfg ReliableConfig) *Reliable {
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 16
	}
	return &Reliable{
		net:       n,
		cfg:       cfg,
		nextSeq:   make(map[link]uint64),
		delivered: make(map[link]map[uint64]bool),
	}
}

// OverheadCycles returns the cycles the layer spent on reliability
// alone: retransmitted copies, timeout waits, and acknowledgments.
func (r *Reliable) OverheadCycles() (retrans, timeouts, acks uint64) {
	return r.retransCycles, r.timeoutCycles, r.ackCycles
}

// markDelivered records the sequence number at the receiver, reporting
// whether this is its first arrival.
func (r *Reliable) markDelivered(l link, seq uint64) bool {
	seen := r.delivered[l]
	if seen == nil {
		seen = make(map[uint64]bool)
		r.delivered[l] = seen
	}
	if seen[seq] {
		return false
	}
	seen[seq] = true
	return true
}

// ResetNode discards all sequence state on links touching the node: a
// crashed node loses its connection state, and its peers restart their
// sequence spaces when it rejoins. Safe in the synchronous model because
// a crash leaves no messages in flight.
func (r *Reliable) ResetNode(node int) {
	for l := range r.nextSeq {
		if l.from == node || l.to == node {
			delete(r.nextSeq, l)
		}
	}
	for l := range r.delivered {
		if l.from == node || l.to == node {
			delete(r.delivered, l)
		}
	}
}

// Send delivers one application message from→to with exactly-once
// semantics: deliver (if non-nil) runs at most once, on the message's
// first arrival at the receiver. Returns the total latency charged. On
// error (retry cap exhausted) the message may or may not have been
// delivered — the caller knows delivery is unconfirmed, never silently
// lost or duplicated.
func (r *Reliable) Send(from, to, size int, deliver func()) (uint64, error) {
	if from == to {
		if deliver != nil {
			deliver()
		}
		return 0, nil
	}
	if !r.net.Faulty() {
		lat := r.net.Send(from, to, size)
		if deliver != nil {
			deliver()
		}
		return lat, nil
	}

	l := link{from, to}
	seq := r.nextSeq[l]
	r.nextSeq[l] = seq + 1

	var total uint64
	first := 2 * r.net.cfg.MsgLatency
	timeout := first
	for attempt := 0; attempt <= r.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			r.net.hRetransmits.Inc()
		}
		out := r.net.SendUnreliable(from, to, size)
		total += out.Latency
		if attempt > 0 {
			r.retransCycles += out.Latency
		}
		if out.Delivered {
			if r.markDelivered(l, seq) {
				if deliver != nil {
					deliver()
				}
			} else {
				r.net.hDupSuppressed.Inc()
			}
			if out.Duplicated {
				// The wire's second copy hits the suppression cache too.
				r.net.hDupSuppressed.Inc()
			}
			ack := r.net.SendUnreliable(to, from, 0) // an ack carries no payload
			total += ack.Latency
			r.ackCycles += ack.Latency
			r.net.hAcks.Inc()
			if ack.Delivered {
				return total, nil
			}
		}
		// Lost message or lost ack: the sender waits out the timeout and
		// retransmits with doubled backoff.
		r.net.hTimeouts.Inc()
		r.net.cycles += timeout
		r.timeoutCycles += timeout
		total += timeout
		if timeout *= 2; timeout > 16*first {
			timeout = 16 * first
		}
	}
	r.net.hFailures.Inc()
	return total, fmt.Errorf("%w: %d->%d (%d attempts)", ErrDeliveryFailed, from, to, r.cfg.MaxRetries+1)
}

// Request performs a reliable request/response exchange: the request
// carries reqSize bytes, handle (if non-nil) runs exactly once at the
// receiver, and the response carries respSize bytes back. Returns total
// latency charged across both directions.
func (r *Reliable) Request(from, to, reqSize, respSize int, handle func()) (uint64, error) {
	lat, err := r.Send(from, to, reqSize, handle)
	if err != nil {
		return lat, err
	}
	respLat, err := r.Send(to, from, respSize, nil)
	return lat + respLat, err
}
