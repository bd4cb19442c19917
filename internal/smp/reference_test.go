package smp

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/stats"
)

// refShootdown is the queue Shootdown had before its indexed batch
// queues and per-volley accounting, kept as the reference
// FuzzShootdownMatchesReference holds Shootdown to: per-target request
// slices mirrored as Go map sets, batches handed away at every flush, a
// fresh ack list per acknowledged flush, counters bumped once per
// request, and hop charges computed from the topology on every charge.
// Counters, health and topology are the embedded Shootdown's, whose own
// queues stay empty.
type refShootdown struct {
	*Shootdown
	queue [][]Request
	pend  []map[Request]struct{}
}

// newRefShootdown wraps s, whose device seats must already be attached.
func newRefShootdown(s *Shootdown) *refShootdown {
	n := s.ncpu + len(s.devCluster)
	return &refShootdown{
		Shootdown: s,
		queue:     make([][]Request, n),
		pend:      make([]map[Request]struct{}, n),
	}
}

func (s *refShootdown) DropPending(t int) {
	s.queue[t] = nil
	for k := range s.pend[t] {
		delete(s.pend[t], k)
	}
}

func (s *refShootdown) Enqueue(target int, r Request) {
	s.nRequests.Inc()
	if s.enqueue(target, r) {
		s.nCoalesced.Inc()
	}
}

// EnqueueSet keeps the rule the kernel applied before Shootdown owned
// it: loop over the targets; skip is passed over, a fenced seat gets
// skipFenced, and any other seat gets Enqueue.
func (s *refShootdown) EnqueueSet(targets *CPUSet, skip int, r *Request) {
	targets.ForEach(func(t int) {
		switch {
		case t == skip:
		case s.Fenced(t):
			s.skipFenced(t)
		default:
			s.Enqueue(t, *r)
		}
	})
}

func (s *refShootdown) enqueue(target int, r Request) bool {
	if s.pend[target] == nil {
		s.pend[target] = make(map[Request]struct{})
	}
	q := s.queue[target]
	if _, dup := s.pend[target][r]; dup {
		if q[len(q)-1] != r {
			i := slices.Index(q, r)
			s.queue[target] = append(slices.Delete(q, i, i+1), r)
		}
		return true
	}
	s.pend[target][r] = struct{}{}
	s.queue[target] = append(q, r)
	return false
}

func (s *refShootdown) Pending(target int) int { return len(s.queue[target]) }

func (s *refShootdown) Flush() {
	for t := 0; t < len(s.queue); t++ {
		if s.proto != nil {
			s.flushAcked(t)
		} else {
			s.flushFireAndForget(t)
		}
	}
}

func (s *refShootdown) takeBatch(t int) []Request {
	batch := s.queue[t]
	if len(batch) == 0 {
		return nil
	}
	s.queue[t] = nil
	for k := range s.pend[t] {
		delete(s.pend[t], k)
	}
	return batch
}

func (s *refShootdown) flushFireAndForget(t int) {
	batch := s.takeBatch(t)
	if len(batch) == 0 {
		return
	}
	arrived := false
	start := s.handler.CPUCycles(t)
	for _, r := range batch {
		verdict := FaultNone
		if s.fault != nil {
			verdict = s.fault(t, r)
		}
		switch verdict {
		case FaultDrop:
			s.nDropped.Inc()
			if s.IsDevice(t) {
				s.nDevDropped.Inc()
			}
			continue
		case FaultDelay:
			s.nDelayed.Inc()
		case FaultAckLoss:
			s.nAckLost.Inc()
		}
		arrived = true
		affected := s.handler.ApplyShootdown(t, r)
		s.nDelivered.Inc()
		if s.IsDevice(t) {
			s.nDevDelivered.Inc()
		}
		s.nRemoteInv.Add(uint64(affected))
		s.chargeMemHops(t, r)
	}
	s.remCycles.Add(s.handler.CPUCycles(t) - start)
	if arrived {
		s.chargeIPI(t, false)
	}
}

func (s *refShootdown) flushAcked(t int) {
	batch := s.takeBatch(t)
	if len(batch) == 0 {
		return
	}
	if s.Fenced(t) {
		s.nFencedDisc.Add(uint64(len(batch)))
		s.stale[t] = true
		return
	}
	pending := make([]refAcked, len(batch))
	for i, r := range batch {
		pending[i] = refAcked{req: r}
	}
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
		arrived := false
		var keep []refAcked
		start := s.handler.CPUCycles(t)
		for _, p := range pending {
			verdict := FaultNone
			if s.fault != nil {
				verdict = s.fault(t, p.req)
			}
			if verdict == FaultDrop {
				s.nDropped.Inc()
				if s.IsDevice(t) {
					s.nDevDropped.Inc()
				}
				keep = append(keep, p)
				continue
			}
			arrived = true
			if p.applied {
				s.nDupSup.Inc()
				if verdict == FaultNone {
					s.nAcks.Inc()
					continue
				}
				if verdict == FaultDelay {
					s.nDelayed.Inc()
				} else {
					s.nAckLost.Inc()
				}
				keep = append(keep, p)
				continue
			}
			affected := s.handler.ApplyShootdown(t, p.req)
			s.nDelivered.Inc()
			if s.IsDevice(t) {
				s.nDevDelivered.Inc()
			}
			s.nRemoteInv.Add(uint64(affected))
			s.chargeMemHops(t, p.req)
			switch verdict {
			case FaultNone:
				s.nAcks.Inc()
			case FaultDelay:
				s.nDelayed.Inc()
				keep = append(keep, refAcked{req: p.req, applied: true})
			case FaultAckLoss:
				s.nAckLost.Inc()
				keep = append(keep, refAcked{req: p.req, applied: true})
			}
		}
		s.remCycles.Add(s.handler.CPUCycles(t) - start)
		if arrived {
			s.chargeIPI(t, attempt > 0)
		}
		pending = keep
		if len(pending) == 0 {
			s.consecTO[t] = 0
			if s.health[t] == Suspect {
				s.health[t] = Healthy
			}
			return
		}
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

// refAcked is a request in flight under the acknowledged protocol;
// applied means the target has performed it.
type refAcked struct {
	req     Request
	applied bool
}

// cluster returns target t's mesh cluster: a CPU's through the topology,
// a device's where it is seated, clamped into the mesh.
func (s *refShootdown) cluster(t int) int {
	if t < s.ncpu {
		return s.topo.ClusterOf(t)
	}
	return min(max(s.devCluster[t-s.ncpu], 0), s.topo.Clusters()-1)
}

// chargeIPI charges a delivered interrupt: the base IPI cost plus IPIHop
// per hop from the initiator's cluster to t's.
func (s *refShootdown) chargeIPI(t int, retrans bool) {
	s.nIPIs.Inc()
	if s.IsDevice(t) {
		s.nDevIPIs.Inc()
	}
	ipi := s.costs.IPI
	if h := s.topo.ClusterHops(s.topo.ClusterOf(s.initiator), s.cluster(t)); h > 0 {
		extra := uint64(h) * s.costs.IPIHop
		ipi += extra
		s.hopCycles.Add(extra)
	}
	s.cycles.Add(ipi)
	s.ipiCycles.Add(ipi)
	if retrans {
		s.retransCyc.Add(ipi)
	}
}

// chargeMemHops charges MemHop per hop from t's cluster to the home bank
// of a page-scoped request's page.
func (s *refShootdown) chargeMemHops(t int, r Request) {
	if !r.Kind.PageScoped() {
		return
	}
	if h := s.topo.MemHopsFrom(s.cluster(t), r.VPN); h > 0 {
		extra := uint64(h) * s.costs.MemHop
		s.cycles.Add(extra)
		s.hopCycles.Add(extra)
	}
}

func (s *refShootdown) Reset() {
	s.Shootdown.Reset()
	for t := range s.queue {
		s.DropPending(t)
	}
}

// delivery is one request a recorder saw applied.
type delivery struct {
	target int
	req    Request
}

// recorder is a Handler that logs every delivery in order and charges
// a kind-dependent number of cycles per apply.
type recorder struct {
	log    []delivery
	cycles []uint64
}

func (h *recorder) ApplyShootdown(t int, r Request) int {
	h.log = append(h.log, delivery{t, r})
	h.cycles[t] += 3 + uint64(r.Kind)
	return int(r.Kind) % 3
}

func (h *recorder) CPUCycles(t int) uint64 { return h.cycles[t] }

// fuzzRequest is the i-th of 32 requests a fuzz input draws from: every
// kind, a few domains, pages and groups, both write-disable values and
// a range, so that runs of draws both repeat and differ.
func fuzzRequest(i int) Request {
	i %= 32
	return Request{
		Kind:   Kind(i % 12),
		Domain: addr.DomainID(1 + i%3),
		VPN:    addr.VPN(0x10 + i/4),
		Range:  addr.Range{Start: addr.VA(i%2) << 14, Length: 1 << 13},
		Group:  addr.GroupID(i % 5),
		Rights: addr.Rights(i % 4),
		WD:     i%7 == 0,
	}
}

// side is one Shootdown with its own recorder, counters and cycle
// account.
type side struct {
	s    *Shootdown
	h    *recorder
	ctrs *stats.Counters
	cyc  *stats.Cycles
}

func newSide(ncpu int, proto bool) side {
	sd := side{h: &recorder{cycles: make([]uint64, ncpu+1)}, ctrs: &stats.Counters{}, cyc: &stats.Cycles{}}
	sd.s = New(ncpu, sd.h, &testCosts, sd.ctrs, sd.cyc)
	sd.s.AttachDevices([]DeviceSpec{{Cluster: 3}})
	if proto {
		sd.s.EnableProtocol(testProto())
	}
	return sd
}

// setFaults arms sd with a verdict cycle: pattern holds four 2-bit
// verdicts, consumed one per delivery attempt. Zero disarms.
func (sd side) setFaults(pattern uint8) {
	if pattern == 0 {
		sd.s.SetFault(nil)
		return
	}
	n := 0
	sd.s.SetFault(func(int, Request) Fault {
		v := Fault(pattern >> (2 * (n % 4)) & 3)
		n++
		return v
	})
}

// compareSides fails unless the Shootdown under test and the reference
// delivered the same requests to the same targets in the same order and
// agree on every target's pending count, health and staleness, on every
// counter and on cycles.
func compareSides(t *testing.T, step int, got side, ref *refShootdown, want side) {
	t.Helper()
	if !slices.Equal(got.h.log, want.h.log) {
		t.Fatalf("step %d: delivered\n%v\nreference delivered\n%v", step, got.h.log, want.h.log)
	}
	for tg := 0; tg < got.s.ncpu+len(got.s.devCluster); tg++ {
		if g, w := got.s.Pending(tg), ref.Pending(tg); g != w {
			t.Fatalf("step %d: Pending(%d) = %d, reference %d", step, tg, g, w)
		}
		if g, w := got.s.SeatHealth(tg), want.s.SeatHealth(tg); g != w {
			t.Fatalf("step %d: SeatHealth(%d) = %v, reference %v", step, tg, g, w)
		}
		if g, w := got.s.stale[tg], want.s.stale[tg]; g != w {
			t.Fatalf("step %d: Stale(%d) = %v, reference %v", step, tg, g, w)
		}
	}
	if g, w := got.ctrs.Snapshot(), want.ctrs.Snapshot(); !maps.Equal(g, w) {
		t.Fatalf("step %d: counters %v, reference %v", step, g, w)
	}
	if g, w := got.cyc.Total(), want.cyc.Total(); g != w {
		t.Fatalf("step %d: cycles %d, reference %d", step, g, w)
	}
}

// FuzzShootdownMatchesReference drives Shootdown and the map-based
// reference with the same decoded op stream and requires the same
// behaviour after every op: the (target, request) sequence delivered,
// Pending, health and staleness of every target, every smp.* counter and
// the initiator's cycles.
//
// The input's first byte picks the protocol (bit 0: acknowledged) and
// 2-4 CPUs; a device seat, wired into cluster 3, always follows them.
// Each following 2-byte record (op, arg) is one op, selected by op's low
// 3 bits:
//
//   - 0-2: enqueue a run of 1-3 requests to target arg, starting at
//     fuzzRequest(op>>3), so that runs overlap and repeat (A, B, A);
//   - 3: EnqueueSet fuzzRequest(op>>3) for the targets whose bits are
//     set in arg's low 5 bits, skipping seat arg>>5 (none when it is
//     past the last seat); seats the fault ops quarantined are fenced;
//   - 4: Flush;
//   - 5: DropPending(arg) when op>>3 is even; when it is odd, switch the
//     topology to a 2x2 mesh of one-CPU clusters (arg odd) or to one
//     cluster (arg even), and make CPU arg>>1 the initiator;
//   - 6: Reset when arg is odd, else Rejoin(arg>>1);
//   - 7: arm the fault verdict cycle arg (drop, delay and ack loss), or
//     disarm it when arg is 0.
//
// The seed corpus in testdata names the scenarios it covers: A, B, A
// moves, delays (applied at once under fire-and-forget), ack loss,
// quarantine, degradation, rejoin, Reset and DropPending mid-window,
// the device seat, index growth past 16 slots, a fault-free
// acknowledged volley on each topology, and EnqueueSet passes that skip
// the initiator and a quarantined seat, then reach it after its rejoin.
func FuzzShootdownMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		ncpu, proto := 2+int(data[0]>>1)%3, data[0]&1 != 0
		got, want := newSide(ncpu, proto), newSide(ncpu, proto)
		s, ref := got.s, newRefShootdown(want.s)
		n := s.ncpu + len(s.devCluster)
		data = data[1:]
		for step := 0; len(data) >= 2; step++ {
			op, arg := data[0], data[1]
			data = data[2:]
			switch op % 8 {
			case 0, 1, 2:
				for j := 0; j <= int(op%8); j++ {
					r := fuzzRequest(int(op>>3) + j)
					s.Enqueue(int(arg)%n, r)
					ref.Enqueue(int(arg)%n, r)
				}
			case 3:
				var targets CPUSet
				for tg := range n {
					if arg>>tg&1 != 0 {
						targets.Add(tg)
					}
				}
				r := fuzzRequest(int(op >> 3))
				s.EnqueueSet(&targets, int(arg>>5), &r)
				ref.EnqueueSet(&targets, int(arg>>5), &r)
			case 4:
				s.Flush()
				ref.Flush()
			case 5:
				if op>>3&1 == 0 {
					s.DropPending(int(arg) % n)
					ref.DropPending(int(arg) % n)
					break
				}
				topo := SingleCluster(ncpu)
				if arg&1 != 0 {
					topo = Topology{MeshWidth: 2, MeshHeight: 2, ClusterCPUs: 1}
				}
				for _, sd := range []*Shootdown{s, want.s} {
					sd.SetTopology(topo)
					sd.SetInitiator(int(arg>>1) % ncpu)
				}
			case 6:
				if arg&1 != 0 {
					s.Reset()
					ref.Reset()
				} else {
					s.Rejoin(int(arg>>1) % n)
					ref.Rejoin(int(arg>>1) % n)
				}
			case 7:
				got.setFaults(arg)
				want.setFaults(arg)
			}
			compareSides(t, step, got, ref, want)
		}
	})
}

// countingHandler applies nothing and records nothing, so it allocates
// nothing.
type countingHandler struct{ cycles []uint64 }

func (h *countingHandler) ApplyShootdown(t int, _ Request) int {
	h.cycles[t]++
	return 1
}

func (h *countingHandler) CPUCycles(t int) uint64 { return h.cycles[t] }

// TestFlushZeroAllocs: once a Shootdown's buffers are warm, a round of
// enqueues and an acknowledged flush allocates nothing. The round sends
// 80 requests to each of 4 CPUs and a device seat, then 16 more through
// one EnqueueSet each to every seat but CPU 0.
func TestFlushZeroAllocs(t *testing.T) {
	h := &countingHandler{cycles: make([]uint64, 5)}
	s := New(4, h, &testCosts, &stats.Counters{}, &stats.Cycles{})
	s.AttachDevices([]DeviceSpec{{}})
	s.EnableProtocol(DefaultProtocolConfig())
	var all CPUSet
	for tg := 0; tg < s.ncpu+len(s.devCluster); tg++ {
		all.Add(tg)
	}
	round := func() {
		for tg := 0; tg < s.ncpu+len(s.devCluster); tg++ {
			for i := 0; i < 80; i++ {
				s.Enqueue(tg, Request{Kind: GroupRevoke, Domain: addr.DomainID(1 + i%16), Group: addr.GroupID(i)})
			}
		}
		for i := 0; i < 16; i++ {
			r := Request{Kind: GroupUpdate, VPN: addr.VPN(0x100 + i), Group: addr.GroupID(i), Rights: addr.RW}
			s.EnqueueSet(&all, 0, &r)
		}
		s.Flush()
	}
	round()
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Fatalf("a steady-state round allocates %v times, want 0", n)
	}
}

// BenchmarkShootdownVolley measures the shootdown queue and delivery on
// the host: a warm round of enqueues and an acknowledged, fault-free
// flush to 8 CPUs and 3 device seats on one cluster, revoke-dma's
// machine. Each seat gets 8 requests, page-scoped group updates between
// group loads and revocations, so every volley runs the per-request
// step and the per-volley accounting. Like TestFlushZeroAllocs, a round
// must not allocate.
func BenchmarkShootdownVolley(b *testing.B) {
	h := &countingHandler{cycles: make([]uint64, 11)}
	s := New(8, h, &testCosts, &stats.Counters{}, &stats.Cycles{})
	s.AttachDevices([]DeviceSpec{{}, {}, {}})
	s.EnableProtocol(DefaultProtocolConfig())
	round := func() {
		for tg := 0; tg < s.ncpu+len(s.devCluster); tg++ {
			for i := 0; i < 8; i++ {
				r := Request{Domain: addr.DomainID(1 + (tg+i)%16), Group: addr.GroupID(i)}
				switch i % 3 {
				case 0:
					r = Request{Kind: GroupUpdate, VPN: addr.VPN(0x100 + i), Group: r.Group, Rights: addr.RW}
				case 1:
					r.Kind, r.WD = GroupLoad, i%2 == 0
				default:
					r.Kind = GroupRevoke
				}
				s.Enqueue(tg, r)
			}
		}
		s.Flush()
	}
	// Two warm rounds: takeBatch alternates each queue between two
	// arrays.
	round()
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}
