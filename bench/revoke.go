package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/addr"
	"repro/internal/iommu"
	"repro/internal/kernel"
	"repro/internal/oracle"
	"repro/internal/smp"
)

// revoke-dma: writes beside reads. 8 CPUs and three devices (NIC, DMA
// engine, GC scanner) under the acknowledged shootdown protocol with no
// faults; 16 worker domains pinned two per CPU share 4 segments of 16
// pages with a device domain. Every batch holds the ops of revokeBlock in
// seeded order: touches on the worker's CPU, device transfers,
// rights-change windows (1-4 changes between DeferShootdowns and
// FlushShootdowns), detach and re-attach, and page-outs. The generator
// keeps a rights model, so every denial is known in advance.
var revokeDMA = workload{
	name:  "revoke-dma",
	batch: len(revokeBlock),
	gen:   genRevoke,
}

// revokeBlock is the op-kind composition of every batch: 70% touches, 10%
// device transfers, 15% rights windows, 3% re-attaches and 2% page-outs.
// Fixed counts keep the simulated work per op from depending on the seed:
// a page-out and the page-in that follows cost 200,000 cycles each.
var revokeBlock = func() []revokeKind {
	counts := [...]int{opTouch: 90, opDevWrite: 5, opDevRead: 4, opDevTouch: 4, opRights: 19, opReattach: 4, opPageOut: 2}
	var block []revokeKind
	for k, n := range counts {
		for i := 0; i < n; i++ {
			block = append(block, revokeKind(k))
		}
	}
	return block
}()

const (
	revokeCPUs     = 8
	revokeWorkers  = 2 * revokeCPUs
	revokeSegs     = 4
	revokeSegPages = 16
	revokePages    = revokeSegs * revokeSegPages
	revokePackets  = 16
	maxWindow      = 4

	devNIC = 0 // DMA-writes packets
	devDMA = 1 // DMA-reads pages
	devGC  = 2 // scans with word beats
)

type revokeKind uint8

const (
	opTouch revokeKind = iota
	opDevWrite
	opDevRead
	opDevTouch
	opRights
	opReattach
	opPageOut
)

// rightsChange is one call in a rights window: SetPageRights or
// ClearPageRights of a worker's page, or SetSegmentRights of the device
// domain (target is then a segment index).
type rightsChange struct {
	call   callID
	worker uint8
	target uint8
	rights addr.Rights
}

type revokeOp struct {
	kind    revokeKind
	worker  uint8
	page    uint8 // global page index; the segment index for opReattach
	access  addr.AccessKind
	rights  addr.Rights // re-attach rights
	want    outcome
	val     int8 // packet written, or the expected page contents (-1: zero page)
	n       uint8
	changes [maxWindow]rightsChange
}

// rightsModel is the generator's view of the kernel: what each domain may
// do to each page, what each page holds, and which pages are surely
// mapped on every organization.
type rightsModel struct {
	attach   [revokeWorkers][revokeSegs]addr.Rights
	override [revokeWorkers][revokePages]addr.Rights
	hasOv    [revokeWorkers][revokePages]bool
	io       [revokeSegs]addr.Rights
	content  [revokePages]int8
	mapped   [revokePages]bool
}

func (m *rightsModel) rights(w, p int) addr.Rights {
	if m.hasOv[w][p] {
		return m.override[w][p]
	}
	return m.attach[w][p/revokeSegPages]
}

type revokeScript struct {
	ops     []revokeOp
	packets [revokePackets][]byte
	zero    []byte
}

func genRevoke(seed int64, ops int) script {
	rng := rand.New(rand.NewSource(seed))
	ps := addr.BaseGeometry().PageSize()
	s := &revokeScript{ops: make([]revokeOp, ops), zero: make([]byte, ps)}
	for i := range s.packets {
		s.packets[i] = make([]byte, ps)
		rng.Read(s.packets[i])
	}
	m := &rightsModel{}
	for seg := range m.io {
		m.io[seg] = addr.RW
		for w := range m.attach {
			m.attach[w][seg] = addr.RW
		}
	}
	for p := range m.content {
		m.content[p] = -1
	}
	kinds := slices.Clone(revokeBlock)
	for i := range s.ops {
		if i%len(kinds) == 0 {
			rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
		}
		genRevokeOp(rng, m, &s.ops[i], kinds[i%len(kinds)])
	}
	return s
}

func genRevokeOp(rng *rand.Rand, m *rightsModel, op *revokeOp, kind revokeKind) {
	op.kind = kind
	op.worker = uint8(rng.Intn(revokeWorkers))
	op.page = uint8(rng.Intn(revokePages))
	w, p := int(op.worker), int(op.page)
	ioWrite := m.io[p/revokeSegPages].Allows(addr.Store)
	switch kind {
	case opTouch:
		genTouch(rng, m, op)
	case opDevWrite:
		op.val, op.want = int8(rng.Intn(revokePackets)), devDenied
		if ioWrite {
			op.want = allowed
			m.content[p], m.mapped[p] = op.val, true
		}
	case opDevRead:
		op.val, op.want = m.content[p], allowed
		m.mapped[p] = true
	case opDevTouch:
		op.access, op.want = addr.Load, allowed
		if rng.Intn(2) == 0 {
			op.access = addr.Store
			if !ioWrite {
				op.want = devDenied
			}
		}
		if op.want == allowed {
			m.mapped[p] = true
		}
	case opRights:
		// Each change of a window is in a different segment. The smp
		// layer coalesces a queued request with an identical later one
		// even when a different request for the same target lies between
		// them, so changing one thing twice in a window (A, B, A) would
		// leave remote structures holding B.
		op.n = uint8(1 + rng.Intn(maxWindow))
		segs := rng.Perm(revokeSegs)
		for j := range op.changes[:op.n] {
			ch := &op.changes[j]
			ch.worker = uint8(rng.Intn(revokeWorkers))
			ch.target = uint8(segs[j]*revokeSegPages + rng.Intn(revokeSegPages))
			cw, cp := int(ch.worker), int(ch.target)
			switch {
			case rng.Intn(4) == 0:
				// Flip the device domain's write access to the segment.
				ch.call, ch.target = callSetSegmentRights, uint8(cp/revokeSegPages)
				ch.rights = addr.RW
				if m.io[ch.target] == addr.RW {
					ch.rights = addr.Read
				}
				m.io[ch.target] = ch.rights
			case m.hasOv[cw][cp]:
				ch.call = callClearPageRights
				m.hasOv[cw][cp] = false
			default:
				ch.call, ch.rights = callSetPageRights, addr.None
				if rng.Intn(2) == 0 {
					ch.rights = addr.Read
				}
				m.hasOv[cw][cp], m.override[cw][cp] = true, ch.rights
			}
		}
	case opReattach:
		seg := p / revokeSegPages
		op.page, op.rights = uint8(seg), addr.RW
		if rng.Intn(5) == 0 {
			op.rights = addr.Read
		}
		m.attach[w][seg] = op.rights
		for q := seg * revokeSegPages; q < (seg+1)*revokeSegPages; q++ {
			m.hasOv[w][q] = false
		}
	case opPageOut:
		// Page out a page every organization surely has mapped; a denied
		// access may map a page on some organizations and not others.
		var mapped []int
		for q, ok := range m.mapped {
			if ok {
				mapped = append(mapped, q)
			}
		}
		if len(mapped) == 0 {
			genTouch(rng, m, op)
			return
		}
		op.page = uint8(mapped[rng.Intn(len(mapped))])
		m.mapped[op.page] = false
	}
}

func genTouch(rng *rand.Rand, m *rightsModel, op *revokeOp) {
	op.kind, op.access = opTouch, addr.Load
	if rng.Intn(10) < 3 {
		op.access = addr.Store
	}
	op.want = denied
	if m.rights(int(op.worker), int(op.page)).Allows(op.access) {
		op.want = allowed
		m.mapped[op.page] = true
	}
}

func (s *revokeScript) hash() uint64 {
	h := uint64(0)
	for i := range s.ops {
		op := &s.ops[i]
		h = mix(h, uint64(op.kind)|uint64(op.worker)<<8|uint64(op.page)<<16|uint64(op.access)<<24|
			uint64(op.rights)<<32|uint64(op.want)<<40|uint64(uint8(op.val))<<48|uint64(op.n)<<56)
		for _, ch := range op.changes[:op.n] {
			h = mix(h, uint64(ch.call)|uint64(ch.worker)<<8|uint64(ch.target)<<16|uint64(ch.rights)<<24)
		}
	}
	for _, p := range s.packets {
		for _, b := range p {
			h = mix(h, uint64(b))
		}
	}
	return h
}

// match is the value an op folds into its digest for a byte comparison:
// id when got holds the expected contents, and a value no id takes
// otherwise.
func match(got, want []byte, id uint64) uint64 {
	if bytes.Equal(got, want) {
		return id
	}
	return ^uint64(0)
}

// contentID numbers page contents for digests: 0 for the zero page, k+1
// for packet k.
func contentID(val int8) uint64 { return uint64(int64(val) + 1) }

func (s *revokeScript) contents(val int8) []byte {
	if val < 0 {
		return s.zero
	}
	return s.packets[val]
}

func (s *revokeScript) start(o org) (system, error) {
	cfg := kernel.DefaultConfig(o.model)
	cfg.CPUs = revokeCPUs
	cfg.Devices = []kernel.DeviceConfig{{Kind: iommu.NIC}, {Kind: iommu.DMAEngine}, {Kind: iommu.GCScanner}}
	k, err := kernel.NewChecked(cfg)
	if err != nil {
		return nil, err
	}
	k.EnableShootdownProtocol(smp.DefaultProtocolConfig())
	e := &revokeSystem{k: k, s: s, io: k.CreateDomain()}
	for i := range e.workers {
		e.workers[i] = k.CreateDomain()
	}
	for i := range e.segs {
		seg := k.CreateSegment(revokeSegPages, kernel.SegmentOptions{Name: fmt.Sprintf("shared%d", i)})
		e.segs[i] = seg
		k.Attach(e.io, seg, addr.RW)
		for _, d := range e.workers {
			k.Attach(d, seg, addr.RW)
		}
	}
	for i := 0; i < k.NumDevices(); i++ {
		k.ProgramDevice(i, e.io)
	}
	return e, nil
}

type revokeSystem struct {
	k       *kernel.Kernel
	s       *revokeScript
	io      *kernel.Domain // the domain the devices act for
	workers [revokeWorkers]*kernel.Domain
	segs    [revokeSegs]*kernel.Segment
}

func (e *revokeSystem) va(p uint8) addr.VA {
	return e.segs[p/revokeSegPages].PageVA(uint64(p % revokeSegPages))
}

func (e *revokeSystem) exec(i int, c *opCtx) {
	op := &e.s.ops[i]
	k := e.k
	var err error
	switch op.kind {
	case opTouch:
		k.SetCPU(int(op.worker) / 2)
		sp := c.tr.begin(callTouch)
		err = k.Touch(e.workers[op.worker], e.va(op.page), op.access)
		c.tr.end(sp, err)
		c.expect(i, op.want, err)
	case opDevWrite:
		pkt := e.s.packets[op.val]
		sp := c.tr.begin(callDeviceWritePage)
		err = k.DeviceWritePage(devNIC, e.va(op.page), pkt)
		c.tr.end(sp, err)
		c.expect(i, op.want, err)
		if err == nil {
			// An approved DMA write is a real write.
			got, perr := k.KernelPeekPage(k.Geometry().PageNumber(e.va(op.page)))
			id := contentID(op.val)
			c.expectValue(i, allowed, id, perr, match(got, pkt, id))
		}
	case opDevRead:
		sp := c.tr.begin(callDeviceReadPage)
		got, err := k.DeviceReadPage(devDMA, e.va(op.page))
		c.tr.end(sp, err)
		id := contentID(op.val)
		c.expectValue(i, op.want, id, err, match(got, e.s.contents(op.val), id))
	case opDevTouch:
		sp := c.tr.begin(callDeviceTouch)
		err = k.DeviceTouch(devGC, e.va(op.page), op.access)
		c.tr.end(sp, err)
		c.expect(i, op.want, err)
	case opRights:
		k.SetCPU(0)
		k.DeferShootdowns()
		for _, ch := range op.changes[:op.n] {
			sp := c.tr.begin(ch.call)
			switch ch.call {
			case callSetPageRights:
				err = k.SetPageRights(e.workers[ch.worker], e.va(ch.target), ch.rights)
			case callClearPageRights:
				err = k.ClearPageRights(e.workers[ch.worker], e.va(ch.target))
			default:
				err = k.SetSegmentRights(e.io, e.segs[ch.target], ch.rights)
			}
			c.tr.end(sp, err)
			c.expect(i, allowed, err)
		}
		sp := c.tr.begin(callFlushShootdowns)
		k.FlushShootdowns()
		c.tr.end(sp, nil)
	case opReattach:
		k.SetCPU(0)
		d, seg := e.workers[op.worker], e.segs[op.page]
		sp := c.tr.begin(callDetach)
		err = k.Detach(d, seg)
		c.tr.end(sp, err)
		c.expect(i, allowed, err)
		sp = c.tr.begin(callAttach)
		k.Attach(d, seg, op.rights)
		c.tr.end(sp, nil)
	case opPageOut:
		k.SetCPU(0)
		sp := c.tr.begin(callPageOut)
		err = k.PageOut(k.Geometry().PageNumber(e.va(op.page)))
		c.tr.end(sp, err)
		c.expect(i, allowed, err)
	}
}

func (e *revokeSystem) simCycles() uint64 { return e.k.TotalCycles() }

func (e *revokeSystem) counters(dst map[string]uint64) { addKernelCounters(dst, e.k) }

func (e *revokeSystem) boundary(int, *opCtx) {}

func (e *revokeSystem) finish(c *opCtx) {
	c.oracle(callVerify, func() error { return oracle.Verify(e.k) })
}
