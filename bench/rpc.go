package main

import (
	"fmt"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/kernel"
	"repro/internal/oracle"
)

// rpc-portal: one op is one portal call on a uniprocessor, in the
// workload/rpc shape. The client stores an argument in the shared page and
// calls; the server loads it and touches one page in each of its 8
// segments; the client then touches its heap. A domain switch every ~10
// references is Section 4.1.4's contrast.
var rpcPortal = workload{
	name:  "rpc-portal",
	batch: 1024,
	gen:   genRPC,
}

const (
	rpcServerSegs = 8
	rpcSegPages   = 4
	rpcArgPages   = 4
	rpcArgSlots   = 32
	rpcHeapPages  = 4
)

type rpcOp struct {
	val    uint64 // the argument the client stores and the server must load
	slot   uint8  // argument word in the shared page
	heap   uint8  // client heap page touched after the call
	stores uint8  // bit s: the server stores to segment s (else loads)
	pages  [rpcServerSegs]uint8
}

type rpcScript struct{ ops []rpcOp }

func genRPC(seed int64, ops int) script {
	rng := rand.New(rand.NewSource(seed))
	s := &rpcScript{ops: make([]rpcOp, ops)}
	for i := range s.ops {
		op := &s.ops[i]
		op.val = rng.Uint64()
		op.slot = uint8(rng.Intn(rpcArgSlots))
		op.heap = uint8(rng.Intn(rpcHeapPages))
		op.stores = uint8(rng.Intn(1 << rpcServerSegs))
		for j := range op.pages {
			op.pages[j] = uint8(rng.Intn(rpcSegPages))
		}
	}
	return s
}

func (s *rpcScript) hash() uint64 {
	h := uint64(0)
	for i := range s.ops {
		op := &s.ops[i]
		h = mix(mix(h, op.val), uint64(op.slot)|uint64(op.heap)<<8|uint64(op.stores)<<16)
		for _, p := range op.pages {
			h = mix(h, uint64(p))
		}
	}
	return h
}

func (s *rpcScript) start(o org) (system, error) {
	k, err := kernel.NewChecked(kernel.DefaultConfig(o.model))
	if err != nil {
		return nil, err
	}
	e := &rpcSystem{k: k, s: s, client: k.CreateDomain(), server: k.CreateDomain()}
	// The argument segment is shared by pointer, never copied (Section 2.1).
	e.args = k.CreateSegment(rpcArgPages, kernel.SegmentOptions{Name: "args"})
	k.Attach(e.client, e.args, addr.RW)
	k.Attach(e.server, e.args, addr.Read)
	for i := range e.segs {
		e.segs[i] = k.CreateSegment(rpcSegPages, kernel.SegmentOptions{Name: fmt.Sprintf("srv%d", i)})
		k.Attach(e.server, e.segs[i], addr.RW)
	}
	e.heap = k.CreateSegment(rpcHeapPages, kernel.SegmentOptions{Name: "client-heap"})
	k.Attach(e.client, e.heap, addr.RW)
	e.work = e.serve
	return e, nil
}

type rpcSystem struct {
	k              *kernel.Kernel
	s              *rpcScript
	client, server *kernel.Domain
	args, heap     *kernel.Segment
	segs           [rpcServerSegs]*kernel.Segment
	work           func() error // e.serve, bound once so calls do not allocate

	// The op the server is serving.
	i  int
	op *rpcOp
	c  *opCtx
}

func (e *rpcSystem) arg(op *rpcOp) addr.VA { return e.args.Base() + addr.VA(8*uint64(op.slot)) }

func (e *rpcSystem) exec(i int, c *opCtx) {
	op := &e.s.ops[i]
	e.i, e.op, e.c = i, op, c
	sp := c.tr.begin(callStore)
	err := e.k.Store(e.client, e.arg(op), op.val)
	c.tr.end(sp, err)
	c.expect(i, allowed, err)

	sp = c.tr.begin(callCall)
	err = e.k.Call(e.client, e.server, e.work)
	c.tr.end(sp, err)
	c.expect(i, allowed, err)

	sp = c.tr.begin(callTouch)
	err = e.k.Touch(e.client, e.heap.PageVA(uint64(op.heap)), addr.Store)
	c.tr.end(sp, err)
	c.expect(i, allowed, err)
}

// serve is the server's side of a call.
func (e *rpcSystem) serve() error {
	op, c := e.op, e.c
	sp := c.tr.begin(callLoad)
	v, err := e.k.Load(e.server, e.arg(op))
	c.tr.end(sp, err)
	c.expectValue(e.i, allowed, op.val, err, v)
	for s, seg := range e.segs {
		kind := addr.Load
		if op.stores>>s&1 == 1 {
			kind = addr.Store
		}
		sp = c.tr.begin(callTouch)
		err = e.k.Touch(e.server, seg.PageVA(uint64(op.pages[s])), kind)
		c.tr.end(sp, err)
		c.expect(e.i, allowed, err)
	}
	return nil
}

func (e *rpcSystem) simCycles() uint64 { return e.k.TotalCycles() }

func (e *rpcSystem) counters(dst map[string]uint64) { addKernelCounters(dst, e.k) }

func (e *rpcSystem) boundary(int, *opCtx) {}

func (e *rpcSystem) finish(c *opCtx) {
	c.oracle(callVerify, func() error { return oracle.Verify(e.k) })
}
