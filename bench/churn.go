package main

import (
	"fmt"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/kernel"
	"repro/internal/oracle"
)

// session-churn: one op is one session on a uniprocessor. It forks from a
// template, touches two shared pages, carries a private segment every
// 128th session and diverges a copy-on-write override every 256th; then
// a random session departs through DestroyDomain once more than 32 are
// live (E18's churn shape; arrivals in bursts of 4 reduce to this order).
var sessionChurn = workload{
	name:  "session-churn",
	batch: 1024,
	gen:   genChurn,
}

const (
	churnMaxLive       = 32
	churnSegments      = 2 // shared segments; index churnSegments is the private one
	churnSegPages      = 8
	churnTouches       = 2
	churnPrivEvery     = 128
	churnPrivPages     = 2
	churnOverrideEvery = 256
)

// churnRef is a page of a shared segment, or of the session's private
// segment when seg == churnSegments.
type churnRef struct{ seg, page uint8 }

type churnOp struct {
	touches  [churnTouches]churnRef
	override churnRef // the page the session restricts, when diverge
	priv     bool
	diverge  bool
	victim   int32 // live-list index of the session departing after this one arrives; -1 for none
}

type churnScript struct{ ops []churnOp }

func genChurn(seed int64, ops int) script {
	rng := rand.New(rand.NewSource(seed))
	s := &churnScript{ops: make([]churnOp, ops)}
	live := 0
	for i := range s.ops {
		born := i + 1
		op := &s.ops[i]
		op.priv = born%churnPrivEvery == 0
		segs := churnSegments
		if op.priv {
			segs++
		}
		ref := func() churnRef {
			seg := rng.Intn(segs)
			pages := churnSegPages
			if seg == churnSegments {
				pages = churnPrivPages
			}
			return churnRef{uint8(seg), uint8(rng.Intn(pages))}
		}
		for t := range op.touches {
			op.touches[t] = ref()
		}
		if born%churnOverrideEvery == 0 {
			op.diverge = true
			op.override = ref()
		}
		live++
		op.victim = -1
		if live > churnMaxLive {
			op.victim = int32(rng.Intn(live))
			live--
		}
	}
	return s
}

func (s *churnScript) hash() uint64 {
	h := uint64(0)
	for i := range s.ops {
		op := &s.ops[i]
		for _, r := range op.touches {
			h = mix(h, uint64(r.seg)<<8|uint64(r.page))
		}
		h = mix(h, uint64(op.override.seg)<<8|uint64(op.override.page))
		h = mix(mix(mix(h, uint64(op.victim)), boolBit(op.priv)), boolBit(op.diverge))
	}
	return h
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (s *churnScript) start(o org) (system, error) {
	k, err := kernel.NewChecked(kernel.DefaultConfig(o.model))
	if err != nil {
		return nil, err
	}
	e := &churnSystem{k: k, s: s, template: k.CreateDomain()}
	for i := range e.segs {
		e.segs[i] = k.CreateSegment(churnSegPages, kernel.SegmentOptions{Name: fmt.Sprintf("shared%d", i)})
		k.Attach(e.template, e.segs[i], addr.RW)
	}
	// A rights-neutral override makes every fork share the template's
	// override table copy-on-write; diverging sessions break it.
	if err := k.SetPageRights(e.template, e.segs[0].PageVA(0), addr.RW); err != nil {
		return nil, fmt.Errorf("template override: %w", err)
	}
	e.recycled0 = k.Counters().Get("kernel.domain_ids_recycled")
	return e, nil
}

type churnSession struct {
	d    *kernel.Domain
	priv *kernel.Segment
}

type churnSystem struct {
	k         *kernel.Kernel
	s         *churnScript
	template  *kernel.Domain
	segs      [churnSegments]*kernel.Segment
	live      []churnSession
	forks     int
	lastDead  addr.DomainID
	recycled0 uint64
}

func (e *churnSystem) va(s churnSession, r churnRef) addr.VA {
	if int(r.seg) == churnSegments {
		return s.priv.PageVA(uint64(r.page))
	}
	return e.segs[r.seg].PageVA(uint64(r.page))
}

func (e *churnSystem) exec(i int, c *opCtx) {
	op := &e.s.ops[i]
	k := e.k
	sp := c.tr.begin(callForkDomain)
	d, err := k.ForkDomain(e.template)
	c.tr.end(sp, err)
	c.expect(i, allowed, err)
	e.forks++
	// A failed fork still takes its live-list slot, so later departures
	// stay aligned with the script.
	sess := churnSession{d: d}
	if d != nil {
		c.observe(uint64(d.ID))
		if op.priv {
			sp = c.tr.begin(callCreateSegment)
			sess.priv = k.CreateSegment(churnPrivPages, kernel.SegmentOptions{Name: "session"})
			c.tr.end(sp, nil)
			sp = c.tr.begin(callAttach)
			k.Attach(d, sess.priv, addr.RW)
			c.tr.end(sp, nil)
		}
		for _, r := range op.touches {
			sp = c.tr.begin(callTouch)
			err = k.Touch(d, e.va(sess, r), addr.Store)
			c.tr.end(sp, err)
			c.expect(i, allowed, err)
		}
		if op.diverge {
			sp = c.tr.begin(callSetPageRights)
			err = k.SetPageRights(d, e.va(sess, op.override), addr.Read)
			c.tr.end(sp, err)
			c.expect(i, allowed, err)
		}
		if sess.priv != nil {
			// Detach now so the segment can be destroyed with the session.
			sp = c.tr.begin(callDetach)
			err = k.Detach(d, sess.priv)
			c.tr.end(sp, err)
			c.expect(i, allowed, err)
		}
	}
	e.live = append(e.live, sess)
	if op.victim >= 0 {
		e.depart(i, int(op.victim), c)
	}
}

// depart destroys the session at live-list index v.
func (e *churnSystem) depart(i, v int, c *opCtx) {
	s := e.live[v]
	e.live[v] = e.live[len(e.live)-1]
	e.live = e.live[:len(e.live)-1]
	if s.d == nil {
		return
	}
	sp := c.tr.begin(callDestroyDomain)
	err := e.k.DestroyDomain(s.d)
	c.tr.end(sp, err)
	c.expect(i, allowed, err)
	e.lastDead = s.d.ID
	if s.priv != nil {
		sp = c.tr.begin(callDestroySegment)
		err = e.k.DestroySegment(s.priv)
		c.tr.end(sp, err)
		c.expect(i, allowed, err)
	}
}

func (e *churnSystem) simCycles() uint64 { return e.k.TotalCycles() }

func (e *churnSystem) counters(dst map[string]uint64) { addKernelCounters(dst, e.k) }

// boundary sweeps every 4th batch for residual authority of the session
// that departed last; its ID is not reused until the next fork.
func (e *churnSystem) boundary(n int, c *opCtx) {
	id := e.lastDead
	if n%4 != 3 || id == 0 || e.k.DomainLive(id) {
		return
	}
	c.oracle(callVerifyDestroyed, func() error { return oracle.VerifyDestroyed(e.k, id) })
}

// finish drains the live sessions and checks that only the template is
// left and that ID recycling carried the churn.
func (e *churnSystem) finish(c *opCtx) {
	for len(e.live) > 0 {
		e.depart(-1, len(e.live)-1, c)
	}
	if n := e.k.LiveDomains(); n != 1 {
		c.fail("%d domains live after drain, want the template only", n)
	}
	recycled := e.k.Counters().Get("kernel.domain_ids_recycled") - e.recycled0
	if floor := e.forks - churnMaxLive - 2; recycled < uint64(max(floor, 0)) {
		c.fail("%d domain IDs recycled over %d sessions, want at least %d", recycled, e.forks, floor)
	}
	c.oracle(callVerify, func() error { return oracle.Verify(e.k) })
}
