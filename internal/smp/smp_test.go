package smp

import (
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/stats"
)

// fakeHandler records deliveries and charges 7 fake machine cycles per
// applied request, so remote-cycle attribution is observable.
type fakeHandler struct {
	applied map[int][]Request
	cycles  []uint64
}

func newFakeHandler(n int) *fakeHandler {
	return &fakeHandler{applied: make(map[int][]Request), cycles: make([]uint64, n)}
}

func (h *fakeHandler) ApplyShootdown(c int, r Request) int {
	h.applied[c] = append(h.applied[c], r)
	h.cycles[c] += 7
	return 1
}

func (h *fakeHandler) CPUCycles(c int) uint64 { return h.cycles[c] }

// Enqueue queues r for target alone: one seat of an EnqueueSet pass,
// with no fence check.
func (s *Shootdown) Enqueue(target int, r Request) {
	s.nRequests.Inc()
	if s.enqueue(target, &r, r.hash()) {
		s.nCoalesced.Inc()
	}
}

// testCosts is the cost model every test shootdown charges.
var testCosts = cpu.DefaultCosts()

func newTestShootdown(n int) (*Shootdown, *fakeHandler, *stats.Counters, *stats.Cycles) {
	h := newFakeHandler(n)
	ctrs := &stats.Counters{}
	cyc := &stats.Cycles{}
	s := New(n, h, &testCosts, ctrs, cyc)
	return s, h, ctrs, cyc
}

func req(k Kind, d addr.DomainID, vpn addr.VPN) Request {
	return Request{Kind: k, Domain: d, VPN: vpn}
}

func TestCoalescingAndBatching(t *testing.T) {
	s, h, ctrs, cyc := newTestShootdown(4)
	// Three requests to CPU 1, two identical; one request to CPU 2.
	s.Enqueue(1, req(InvalRights, 3, 0x10))
	s.Enqueue(1, req(InvalRights, 3, 0x10)) // coalesces
	s.Enqueue(1, req(Unmap, 0, 0x20))
	s.Enqueue(2, req(Unmap, 0, 0x20))
	if got := s.Pending(1); got != 2 {
		t.Fatalf("Pending(1) = %d, want 2", got)
	}
	s.Flush()
	if len(h.applied[1]) != 2 || len(h.applied[2]) != 1 || len(h.applied[0]) != 0 {
		t.Fatalf("applied = %v", h.applied)
	}
	// Delivery order is enqueue order.
	if h.applied[1][0].Kind != InvalRights || h.applied[1][1].Kind != Unmap {
		t.Fatalf("order = %v", h.applied[1])
	}
	if ctrs.Get("smp.requests") != 4 || ctrs.Get("smp.coalesced") != 1 ||
		ctrs.Get("smp.delivered") != 3 || ctrs.Get("smp.remote_invalidations") != 3 {
		t.Fatalf("counters: %v", ctrs.Snapshot())
	}
	// One IPI per target CPU with pending work, regardless of batch size.
	if ctrs.Get("smp.ipis") != 2 {
		t.Fatalf("ipis = %d, want 2", ctrs.Get("smp.ipis"))
	}
	ipi := cpu.DefaultCosts().IPI
	if cyc.Total() != 2*ipi || ctrs.Get("smp.ipi_cycles") != 2*ipi {
		t.Fatalf("ipi cycles = %d/%d, want %d", cyc.Total(), ctrs.Get("smp.ipi_cycles"), 2*ipi)
	}
	// Remote work: 7 fake cycles per applied request.
	if ctrs.Get("smp.remote_cycles") != 3*7 {
		t.Fatalf("remote_cycles = %d", ctrs.Get("smp.remote_cycles"))
	}
	// Flush with nothing pending is free.
	s.Flush()
	if ctrs.Get("smp.ipis") != 2 {
		t.Fatal("empty flush sent an IPI")
	}
}

// TestCoalesceAcrossIntervening: a request that coalesces with an
// earlier identical one must still leave the target in the state the
// last request sets. A revoke, a different request for the same target
// state, and the revoke again must deliver the revoke last; an unrelated
// request in between changes nothing but the order.
func TestCoalesceAcrossIntervening(t *testing.T) {
	revoke := Request{Kind: GroupRevoke, Domain: 2, Group: 7}
	load := Request{Kind: GroupLoad, Domain: 2, Group: 7, WD: true}
	other := req(Unmap, 0, 0x30)
	for _, tc := range []struct {
		name string
		in   []Request
		want []Request
	}{
		{"A,B,A delivers A last", []Request{revoke, load, revoke}, []Request{load, revoke}},
		{"A,C,A still coalesces", []Request{revoke, other, revoke}, []Request{other, revoke}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, h, ctrs, _ := newTestShootdown(2)
			for _, r := range tc.in {
				s.Enqueue(1, r)
			}
			s.Flush()
			if !slices.Equal(h.applied[1], tc.want) {
				t.Fatalf("delivered %v, want %v", h.applied[1], tc.want)
			}
			if got := ctrs.Get("smp.coalesced"); got != 1 {
				t.Fatalf("smp.coalesced = %d, want 1", got)
			}
		})
	}
}

func TestRecoalesceAfterFlush(t *testing.T) {
	s, h, ctrs, _ := newTestShootdown(2)
	r := req(UpdateRights, 1, 5)
	s.Enqueue(1, r)
	s.Flush()
	// The same request in a later batch must be delivered again, not
	// treated as a duplicate of the flushed one.
	s.Enqueue(1, r)
	s.Flush()
	if len(h.applied[1]) != 2 {
		t.Fatalf("applied %d times, want 2", len(h.applied[1]))
	}
	if ctrs.Get("smp.coalesced") != 0 {
		t.Fatal("cross-batch coalescing must not happen")
	}
}

func TestFaultDrop(t *testing.T) {
	s, h, ctrs, _ := newTestShootdown(2)
	s.SetFault(func(target int, r Request) Fault {
		if r.VPN == 0x10 {
			return FaultDrop
		}
		return FaultNone
	})
	s.Enqueue(1, req(InvalRights, 1, 0x10))
	s.Enqueue(1, req(InvalRights, 1, 0x11))
	s.Flush()
	if len(h.applied[1]) != 1 || h.applied[1][0].VPN != 0x11 {
		t.Fatalf("applied = %v", h.applied[1])
	}
	if ctrs.Get("smp.ipi_dropped") != 1 || ctrs.Get("smp.delivered") != 1 {
		t.Fatalf("counters: %v", ctrs.Snapshot())
	}
	// The volley still reached the target (one request arrived), so
	// exactly one IPI was charged.
	if ctrs.Get("smp.ipis") != 1 {
		t.Fatalf("ipis = %d, want 1", ctrs.Get("smp.ipis"))
	}
	// The drop is permanent: nothing pending for redelivery.
	if s.Pending(1) != 0 {
		t.Fatal("dropped request still pending")
	}
}

// TestIPICostParity is the fault-path cost-accounting regression test:
// a delayed request charges the IPI cost exactly once, at the flush that
// applies it, and a dropped request not at all — a fully dropped volley
// is a lost interrupt, so the target never traps.
func TestIPICostParity(t *testing.T) {
	ipi := cpu.DefaultCosts().IPI

	// Dropped: zero IPIs, zero initiator cycles.
	s, h, ctrs, cyc := newTestShootdown(2)
	s.SetFault(func(int, Request) Fault { return FaultDrop })
	s.Enqueue(1, req(InvalRights, 1, 0x10))
	s.Flush()
	if len(h.applied[1]) != 0 {
		t.Fatal("dropped request was applied")
	}
	if got := ctrs.Get("smp.ipis"); got != 0 {
		t.Fatalf("dropped volley charged %d IPIs, want 0", got)
	}
	if cyc.Total() != 0 || ctrs.Get("smp.ipi_cycles") != 0 {
		t.Fatalf("dropped volley charged %d cycles, want 0", cyc.Total())
	}

	// Delayed: applied in its own flush, for exactly one IPI.
	s, h, ctrs, cyc = newTestShootdown(2)
	s.SetFault(func(int, Request) Fault { return FaultDelay })
	s.Enqueue(1, req(InvalRights, 1, 0x10))
	s.Flush()
	if len(h.applied[1]) != 1 {
		t.Fatalf("applied = %v", h.applied[1])
	}
	if got := ctrs.Get("smp.ipis"); got != 1 {
		t.Fatalf("delayed volley charged %d IPIs, want exactly 1", got)
	}
	if cyc.Total() != ipi || ctrs.Get("smp.ipi_cycles") != ipi {
		t.Fatalf("delayed volley charged %d cycles, want %d", cyc.Total(), ipi)
	}
}

// TestFaultDelayAppliesWithoutAcks: fire-and-forget has no acks, so a
// delay faults nothing. The request is applied in the flush that sends
// it, as under FaultNone, and only smp.ipi_delayed records the verdict.
func TestFaultDelayAppliesWithoutAcks(t *testing.T) {
	s, h, ctrs, _ := newTestShootdown(2)
	late := req(InvalRights, 1, 0x10)
	s.SetFault(func(target int, r Request) Fault {
		if r == late {
			return FaultDelay
		}
		return FaultNone
	})
	s.Enqueue(1, late)
	s.Enqueue(1, req(Unmap, 0, 0x20))
	s.Flush()
	if len(h.applied[1]) != 2 || h.applied[1][0] != late {
		t.Fatalf("applied = %v", h.applied[1])
	}
	if s.Pending(1) != 0 {
		t.Fatal("delayed request still pending")
	}
	if ctrs.Get("smp.ipi_delayed") != 1 || ctrs.Get("smp.delivered") != 2 || ctrs.Get("smp.ipis") != 1 {
		t.Fatalf("counters: %v", ctrs.Snapshot())
	}
}

func TestResetDiscardsPending(t *testing.T) {
	s, h, _, _ := newTestShootdown(2)
	s.Enqueue(1, req(InvalRights, 1, 0x10))
	s.Enqueue(1, req(Unmap, 0, 0x20))
	s.Reset()
	if s.Pending(1) != 0 {
		t.Fatal("Reset left requests pending")
	}
	s.Flush()
	if len(h.applied[1]) != 0 {
		t.Fatal("Reset did not discard requests")
	}
	// The subsystem still works after Reset.
	s.Enqueue(1, req(Unmap, 0, 0x30))
	s.Flush()
	if len(h.applied[1]) != 1 {
		t.Fatal("shootdown dead after Reset")
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with 0 CPUs did not panic")
		}
	}()
	New(0, newFakeHandler(1), &testCosts, &stats.Counters{}, &stats.Cycles{})
}

// testProto is a small, fast-converging tuning for protocol tests.
func testProto() ProtocolConfig {
	return ProtocolConfig{
		AckTimeout:   100,
		MaxRetries:   2,
		BackoffLimit: 150,
		SuspectAfter: 2,
		DegradeAfter: 2,
	}
}

// TestDefaultTimeoutsFollowIPICost: the default ack timeout and backoff
// cap are two and sixteen IPI flight times of the shootdown's own cost
// model, so a machine whose IPI costs twice the default waits twice as
// long before retransmitting.
func TestDefaultTimeoutsFollowIPICost(t *testing.T) {
	costs := cpu.DefaultCosts()
	costs.IPI *= 2
	s := New(2, newFakeHandler(2), &costs, &stats.Counters{}, &stats.Cycles{})
	s.EnableProtocol(DefaultProtocolConfig())
	if ack, backoff := s.TargetTimeouts(1); ack != 2*costs.IPI || backoff != 16*costs.IPI {
		t.Fatalf("IPI %d: ack timeout %d, backoff cap %d; want %d and %d",
			costs.IPI, ack, backoff, 2*costs.IPI, 16*costs.IPI)
	}
}

// TestProtocolFaultFreeParity: on a lossless interconnect the
// acknowledged protocol must cost exactly the same as fire-and-forget —
// same IPIs, same cycles, no timeouts, no retransmissions.
func TestProtocolFaultFreeParity(t *testing.T) {
	run := func(acked bool) (*stats.Counters, *stats.Cycles, *fakeHandler) {
		s, h, ctrs, cyc := newTestShootdown(4)
		if acked {
			s.EnableProtocol(testProto())
		}
		s.Enqueue(1, req(InvalRights, 3, 0x10))
		s.Enqueue(1, req(Unmap, 0, 0x20))
		s.Enqueue(2, req(Unmap, 0, 0x20))
		s.Flush()
		s.Enqueue(1, req(UpdateRights, 3, 0x11))
		s.Flush()
		return ctrs, cyc, h
	}
	base, baseCyc, baseH := run(false)
	got, gotCyc, gotH := run(true)
	for _, key := range []string{"smp.ipis", "smp.ipi_cycles", "smp.delivered", "smp.remote_cycles"} {
		if base.Get(key) != got.Get(key) {
			t.Errorf("%s: protocol %d, fire-and-forget %d", key, got.Get(key), base.Get(key))
		}
	}
	if baseCyc.Total() != gotCyc.Total() {
		t.Errorf("cycles: protocol %d, fire-and-forget %d", gotCyc.Total(), baseCyc.Total())
	}
	if len(gotH.applied[1]) != len(baseH.applied[1]) {
		t.Errorf("applied: protocol %d, fire-and-forget %d", len(gotH.applied[1]), len(baseH.applied[1]))
	}
	for _, key := range []string{"smp.timeouts", "smp.retransmits", "smp.quarantines", "smp.dup_suppressed", "smp.timeout_cycles", "smp.retransmit_cycles"} {
		if got.Get(key) != 0 {
			t.Errorf("fault-free protocol run has %s = %d, want 0", key, got.Get(key))
		}
	}
	if got.Get("smp.acks") != got.Get("smp.delivered") {
		t.Errorf("acks %d != delivered %d", got.Get("smp.acks"), got.Get("smp.delivered"))
	}
}

// TestProtocolRetryAfterDrop: a request lost in transit is
// retransmitted and acknowledged; the lost volley charges no IPI (the
// target never trapped) but does charge the ack timeout.
func TestProtocolRetryAfterDrop(t *testing.T) {
	s, h, ctrs, cyc := newTestShootdown(2)
	p := testProto()
	s.EnableProtocol(p)
	first := true
	s.SetFault(func(int, Request) Fault {
		if first {
			first = false
			return FaultDrop
		}
		return FaultNone
	})
	s.Enqueue(1, req(InvalRights, 1, 0x10))
	s.Flush()
	if len(h.applied[1]) != 1 {
		t.Fatalf("applied = %v", h.applied[1])
	}
	if ctrs.Get("smp.ipis") != 1 || ctrs.Get("smp.retransmits") != 1 ||
		ctrs.Get("smp.timeouts") != 1 || ctrs.Get("smp.acks") != 1 {
		t.Fatalf("counters: %v", ctrs.Snapshot())
	}
	wantCyc := cpu.DefaultCosts().IPI + p.AckTimeout
	if cyc.Total() != wantCyc {
		t.Fatalf("cycles = %d, want %d (one delivered IPI + one timeout)", cyc.Total(), wantCyc)
	}
	if s.SeatHealth(1) != Healthy {
		t.Fatalf("health = %v, want healthy after successful retry", s.SeatHealth(1))
	}
}

// TestProtocolAckLossSuppressesDuplicate: when only the ack is lost the
// target has already applied the request; the retransmission must be
// sequence-suppressed, not re-applied.
func TestProtocolAckLossSuppressesDuplicate(t *testing.T) {
	s, h, ctrs, _ := newTestShootdown(2)
	s.EnableProtocol(testProto())
	first := true
	s.SetFault(func(int, Request) Fault {
		if first {
			first = false
			return FaultAckLoss
		}
		return FaultNone
	})
	s.Enqueue(1, req(InvalRights, 1, 0x10))
	s.Flush()
	if len(h.applied[1]) != 1 {
		t.Fatalf("applied %d times, want exactly 1 (idempotent dedup)", len(h.applied[1]))
	}
	if ctrs.Get("smp.ack_lost") != 1 || ctrs.Get("smp.dup_suppressed") != 1 ||
		ctrs.Get("smp.acks") != 1 || ctrs.Get("smp.delivered") != 1 {
		t.Fatalf("counters: %v", ctrs.Snapshot())
	}
	// Both volleys reached the target: two IPIs, one a retransmission.
	if ctrs.Get("smp.ipis") != 2 || ctrs.Get("smp.retransmit_cycles") != cpu.DefaultCosts().IPI {
		t.Fatalf("counters: %v", ctrs.Snapshot())
	}
}

// TestProtocolQuarantineAndRejoin: a dead target exhausts the retry
// budget, is quarantined with its requests discarded, is fenced from
// later flushes, and is readmitted by Rejoin.
func TestProtocolQuarantineAndRejoin(t *testing.T) {
	s, h, ctrs, cyc := newTestShootdown(2)
	p := testProto()
	s.EnableProtocol(p)
	s.SetFault(func(target int, _ Request) Fault {
		if target == 1 {
			return FaultDrop
		}
		return FaultNone
	})
	s.Enqueue(1, req(InvalRights, 1, 0x10))
	s.Flush()
	if len(h.applied[1]) != 0 {
		t.Fatal("dead CPU applied a request")
	}
	if s.SeatHealth(1) != Quarantined || !s.Fenced(1) || !s.stale[1] || s.Trusted(1) {
		t.Fatalf("health = %v fenced=%v stale=%v", s.SeatHealth(1), s.Fenced(1), s.stale[1])
	}
	// MaxRetries+1 volleys, all dropped: no IPIs, one timeout each.
	if ctrs.Get("smp.ipis") != 0 || ctrs.Get("smp.timeouts") != uint64(p.MaxRetries+1) ||
		ctrs.Get("smp.quarantines") != 1 || ctrs.Get("smp.fenced_discards") != 1 {
		t.Fatalf("counters: %v", ctrs.Snapshot())
	}
	// Timeout backoff: 100, then 150 (capped), then 150.
	if want := uint64(100 + 150 + 150); cyc.Total() != want || ctrs.Get("smp.timeout_cycles") != want {
		t.Fatalf("timeout cycles = %d, want %d", cyc.Total(), want)
	}
	if ctrs.Get("smp.suspects") != 1 {
		t.Fatalf("suspects = %d, want 1", ctrs.Get("smp.suspects"))
	}
	// Fenced: a later flush discards instead of retrying.
	s.Enqueue(1, req(Unmap, 0, 0x20))
	s.Flush()
	if got := ctrs.Get("smp.fenced_discards"); got != 2 {
		t.Fatalf("fenced_discards = %d, want 2", got)
	}
	// Rejoin readmits it; with the fault cleared delivery works again.
	s.SetFault(nil)
	s.Rejoin(1)
	if !s.Trusted(1) || s.SeatHealth(1) != Healthy {
		t.Fatalf("after rejoin: health = %v trusted=%v", s.SeatHealth(1), s.Trusted(1))
	}
	s.Enqueue(1, req(Unmap, 0, 0x30))
	s.Flush()
	if len(h.applied[1]) != 1 {
		t.Fatal("rejoined CPU did not receive the new request")
	}
}

// TestProtocolDegradation: repeated quarantines permanently degrade the
// CPU; Rejoin and Reset clear staleness but not degradation.
func TestProtocolDegradation(t *testing.T) {
	s, _, ctrs, _ := newTestShootdown(2)
	s.EnableProtocol(testProto()) // DegradeAfter: 2
	s.SetFault(func(target int, _ Request) Fault {
		if target == 1 {
			return FaultDrop
		}
		return FaultNone
	})
	s.Enqueue(1, req(InvalRights, 1, 0x10))
	s.Flush() // quarantine #1
	if s.SeatHealth(1) != Quarantined {
		t.Fatalf("health = %v, want quarantined", s.SeatHealth(1))
	}
	s.Rejoin(1)
	s.Enqueue(1, req(InvalRights, 1, 0x11))
	s.Flush() // quarantine #2 -> degraded
	if s.SeatHealth(1) != Degraded || ctrs.Get("smp.degraded") != 1 {
		t.Fatalf("health = %v degraded=%d, want degraded/1", s.SeatHealth(1), ctrs.Get("smp.degraded"))
	}
	// Degradation survives both Rejoin and Reset; staleness does not.
	s.Rejoin(1)
	if s.SeatHealth(1) != Degraded || s.stale[1] {
		t.Fatalf("rejoin changed degradation: %v stale=%v", s.SeatHealth(1), s.stale[1])
	}
	// Flush-on-switch semantics: the rejoin purge makes the degraded CPU
	// trustworthy again (it holds nothing), though it stays fenced.
	if !s.Trusted(1) {
		t.Fatal("degraded CPU untrusted right after its rejoin purge")
	}
	s.Reset()
	if s.SeatHealth(1) != Degraded {
		t.Fatalf("Reset cleared degradation: %v", s.SeatHealth(1))
	}
	if !s.Fenced(1) {
		t.Fatal("degraded CPU not fenced")
	}
}

// TestProtocolSlowResponder: a delayed ack means the request was
// applied; the retransmission is suppressed and the late ack lands.
func TestProtocolSlowResponder(t *testing.T) {
	s, h, ctrs, _ := newTestShootdown(2)
	s.EnableProtocol(testProto())
	slow := 0
	s.SetFault(func(int, Request) Fault {
		slow++
		if slow == 1 {
			return FaultDelay
		}
		return FaultNone
	})
	s.Enqueue(1, req(InvalRights, 1, 0x10))
	s.Flush()
	if len(h.applied[1]) != 1 {
		t.Fatalf("applied %d times, want 1", len(h.applied[1]))
	}
	if ctrs.Get("smp.ipi_delayed") != 1 || ctrs.Get("smp.dup_suppressed") != 1 ||
		ctrs.Get("smp.acks") != 1 || ctrs.Get("smp.timeouts") != 1 {
		t.Fatalf("counters: %v", ctrs.Snapshot())
	}
}
