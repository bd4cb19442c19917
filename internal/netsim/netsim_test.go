package netsim

import "testing"

func TestSendAccounting(t *testing.T) {
	n := New(3, Config{MsgLatency: 100, ByteCycles: 2})
	lat := n.Send(0, 1, 50)
	if lat != 100+100 {
		t.Fatalf("latency = %d", lat)
	}
	msgs, bytes, cycles := n.Stats()
	if msgs != 1 || bytes != 50 || cycles != 200 {
		t.Fatalf("stats = %d,%d,%d", msgs, bytes, cycles)
	}
}

func TestSelfSendFree(t *testing.T) {
	n := New(2, DefaultConfig())
	if lat := n.Send(1, 1, 4096); lat != 0 {
		t.Fatalf("self-send latency = %d", lat)
	}
	if msgs, _, _ := n.Stats(); msgs != 0 {
		t.Fatal("self-send counted as message")
	}
}

func TestRoundTrip(t *testing.T) {
	n := New(2, Config{MsgLatency: 1000, ByteCycles: 1})
	lat := n.Send(0, 1, 16) + n.Send(1, 0, 4096)
	if lat != 1000+16+1000+4096 {
		t.Fatalf("round trip = %d", lat)
	}
	if msgs, bytes, _ := n.Stats(); msgs != 2 || bytes != 4112 {
		t.Fatalf("stats = %d,%d", msgs, bytes)
	}
}

func TestBadNodePanics(t *testing.T) {
	n := New(2, DefaultConfig())
	for _, fn := range []func(){
		func() { n.Send(0, 2, 0) },
		func() { n.Send(-1, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestNewPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0, DefaultConfig())
}
