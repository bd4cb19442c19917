package smp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/addr"
)

// TestQuickDeviceInvalidationExactlyOnce is the acknowledged
// protocol's delivery contract for device seats, as a property over
// random fault plans: whatever mix of drops (lost volleys, retried
// with backoff), delays (late acks, so the initiator retransmits a
// request the device already applied — a wire duplicate) and ack
// losses (the duplicate arrives with a stale sequence number) the
// interconnect serves up,
//
//   - no request is ever applied twice at a device seat (sequence
//     numbers suppress every duplicate), and nothing is applied that
//     was not enqueued;
//   - as long as the device was never quarantined, every enqueued
//     request is applied exactly once — drops are absorbed by
//     retransmission, never silently lost;
//   - when a drop streak does exhaust the retry budget, the loss is
//     loud: the seat is quarantined and marked untrusted, so the
//     kernel knows a bulk invalidation is owed before the device's
//     entries may be believed again;
//   - after the fault clears, Rejoin restores exactly-once delivery.
func TestQuickDeviceInvalidationExactlyOnce(t *testing.T) {
	type plan struct {
		Seed              int64
		Drop, Delay, Loss uint8 // per-delivery fault weights (out of 8 after mod 3)
		Batches, PerBatch uint8
	}
	prop := func(p plan) bool {
		drop, delay, loss := int(p.Drop%3), int(p.Delay%3), int(p.Loss%3)
		batches := 1 + int(p.Batches%5)
		per := 1 + int(p.PerBatch%4)

		s, h, ctrs, _ := newTestShootdown(2)
		s.AttachDevices([]DeviceSpec{{}})
		seat := s.ncpu
		var only CPUSet
		only.Add(seat)
		h.cycles = append(h.cycles, 0) // the handler also covers the device seat
		s.EnableProtocol(testProto())
		rng := rand.New(rand.NewSource(p.Seed))
		s.SetFault(func(target int, _ Request) Fault {
			if target != seat {
				return FaultNone
			}
			switch v := rng.Intn(8); {
			case v < drop:
				return FaultDrop
			case v < drop+delay:
				return FaultDelay
			case v < drop+delay+loss:
				return FaultAckLoss
			default:
				return FaultNone
			}
		})

		want := map[Request]bool{}
		vpn := addr.VPN(0x100)
		for b := 0; b < batches; b++ {
			for i := 0; i < per; i++ {
				r := req(InvalRights, 7, vpn)
				vpn++
				want[r] = true
				// A fenced seat is never queued: EnqueueSet records the
				// suppressed invalidation and marks the seat stale.
				s.EnqueueSet(&only, -1, &r)
			}
			s.Flush()
		}

		seen := map[Request]int{}
		for _, r := range h.applied[seat] {
			if !want[r] {
				return false // applied something never enqueued
			}
			if seen[r]++; seen[r] > 1 {
				return false // duplicate application: dedup failed
			}
		}
		if ctrs.Get("smp.dev_quarantines") == 0 {
			// Never quarantined: exactly-once, and the seat stays trusted.
			if len(seen) != len(want) || !s.Trusted(seat) {
				return false
			}
		} else if len(seen) != len(want) && s.Trusted(seat) {
			return false // silent loss: requests vanished on a trusted seat
		}

		// The fault clears; a rejoined seat is exactly-once again.
		s.SetFault(nil)
		s.DropPending(seat)
		s.Rejoin(seat)
		extra := req(InvalRights, 7, vpn)
		s.Enqueue(seat, extra)
		s.Flush()
		n := 0
		for _, r := range h.applied[seat] {
			if r == extra {
				n++
			}
		}
		return n == 1 && s.Trusted(seat)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
