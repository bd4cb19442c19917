package kernel_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/iommu"
	"repro/internal/kernel"
	"repro/internal/oracle"
	"repro/internal/smp"
)

// FuzzLockstep is the kernel's model-based differential checker. One
// interpreter decodes a byte script into kernel calls and runs each call
// on four kernels of one configuration, one per organization. Every
// kernel carries its own copy of a small authority model — a domain
// holds exactly what it was granted, a forked child starts equal to its
// parent, a recycled ID starts with nothing — which predicts each call's
// outcome. After every call, on each kernel, the outcome must be the
// predicted one, ResolveRights must agree with the model on every live
// domain and page, and the oracle and the bookkeeping checks must pass;
// across kernels the outcomes and loaded values must be identical. The
// one sanctioned divergence is page-group refusing a rights change with
// ErrUnrepresentable: page-group runs each call first, and a call it
// refuses is skipped on every kernel, so all the model copies stay
// equal. A script ends with a full verdict sweep (load, store and fetch),
// the destruction of every live domain and a last audit.
//
// Byte 0 of a script picks the world. Every op after it is an op byte
// and three argument bytes; a deferred-shootdown window is followed by
// the 1-3 protection ops inside it, as many as its first argument says.
// A load whose third argument byte is odd is an instruction fetch.
// Bytes past the end read as zero. A failing script is shrunk by delta
// debugging over its ops and logged as the hex input this target
// replays, one line per op. The tests after the interpreter run it on
// one organization at a time.
func FuzzLockstep(f *testing.F) {
	for seed := range int64(lockstepSeeds) {
		f.Add(genLockstep(seed))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if err := lockstepFailure(lifecycleModels, script); err != nil {
			t.Fatal(err)
		}
	})
}

const (
	// go test replays lockstepSeeds generated scripts of lockstepSeedOps
	// ops each; no script runs more than maxLockstepOps.
	lockstepSeeds, lockstepSeedOps = 192, 48
	maxLockstepOps                 = 64
)

// lockstepWorlds are the configurations a script's first byte picks
// from. Only the first has no shootdown subsystem.
var lockstepWorlds = []struct {
	cpus   int
	device bool
}{{1, false}, {2, true}, {4, true}}

type opKind uint8

const (
	opCreate opKind = iota
	opFork
	opDestroy
	opCreateSeg
	opDestroySeg
	opAttach
	opDetach
	opSetPage
	opClearPage
	opSetSeg
	opLoad
	opStore
	opSetCPU
	opUnmap
	opPageOut
	opWindow
	opProgram
	opDevRead
	opDevWrite
	opDevTouch
	numOpKinds
)

// opSpecs gives each op's name, its arguments — d a domain handle, s a
// segment handle, p a live page, m a page known to be mapped, r rights,
// v the DMA engine — and its weight in generated scripts.
var opSpecs = [numOpKinds]struct {
	name, args string
	weight     int
}{
	{"create", "", 2}, {"fork", "d", 1}, {"destroy", "d", 1}, {"create-seg", "", 1},
	{"destroy-seg", "s", 1}, {"attach", "dsr", 3}, {"detach", "ds", 1}, {"set-page", "dpr", 2},
	{"clear-page", "dp", 1}, {"set-seg", "dsr", 1}, {"load", "dp", 3}, {"store", "dp", 3},
	{"set-cpu", "", 1}, {"unmap", "m", 1}, {"page-out", "m", 1}, {"window", "", 1},
	{"program", "dv", 1}, {"dev-read", "pv", 1}, {"dev-write", "pv", 1}, {"dev-touch", "pv", 1},
}

// windowOps are the protection ops a deferred-shootdown window holds.
var windowOps = []opKind{opAttach, opDetach, opSetPage, opClearPage, opSetSeg}

// lockstepRights are mostly None, Read and RW; RX and RWX come now and
// then, so page-group refusals occur.
var lockstepRights = []addr.Rights{
	addr.None, addr.Read, addr.RW, addr.None, addr.Read, addr.RW,
	addr.None, addr.Read, addr.RW, addr.RX, addr.RWX,
}

// call is one decoded op. d and s are domain and segment handles,
// indexes into every kernel's handle lists (-1 when unused); pg is a
// page of segment s.
type call struct {
	kind   opKind
	d, s   int
	pg     int
	r      addr.Rights
	n      int // the CPU of set-cpu, the page count of create-seg
	super  bool
	access addr.AccessKind
	inner  []call // a window's ops
	desc   string
}

// model is one kernel's copy of the authority model.
type model struct {
	doms []mdom
	free []int // destroyed domain handles; a create revives the last
	segs []mseg
	dev  int // the handle the DMA engine was programmed for, or -1
}

type mdom struct {
	live   bool
	attach map[int]addr.Rights // segment handle -> rights
	over   map[mpage]addr.Rights
}

type mpage struct{ s, pg int }

type mseg struct {
	live   bool
	mapped []bool // pages an allowed access mapped since
}

// rights is domain handle h's authority over page p, and whether it
// holds a record (override or attachment) for it.
func (m *model) rights(h int, p mpage) (addr.Rights, bool) {
	if r, ok := m.doms[h].over[p]; ok {
		return r, true
	}
	r, ok := m.doms[h].attach[p.s]
	return r, ok
}

// next is the handle the next create returns.
func (m *model) next() int {
	if n := len(m.free); n > 0 {
		return m.free[n-1]
	}
	return len(m.doms)
}

// create adds or revives handle next(); a revived one starts with
// nothing, not even the DMA engine acting for it.
func (m *model) create() *mdom {
	h := m.next()
	if h == len(m.doms) {
		m.doms = append(m.doms, mdom{})
	} else {
		m.free = m.free[:len(m.free)-1]
	}
	if m.dev == h {
		m.dev = -1
	}
	m.doms[h] = mdom{live: true, attach: map[int]addr.Rights{}, over: map[mpage]addr.Rights{}}
	return &m.doms[h]
}

// pages lists the live segments' pages, only those known to be mapped
// when mappedOnly.
func (m *model) pages(mappedOnly bool) []mpage {
	var out []mpage
	for s, seg := range m.segs {
		for pg, mapped := range seg.mapped {
			if seg.live && (mapped || !mappedOnly) {
				out = append(out, mpage{s, pg})
			}
		}
	}
	return out
}

// live pairs every live domain handle with every live page.
func (m *model) live() []call {
	var out []call
	pages := m.pages(false)
	for h := range m.doms {
		for _, p := range pages {
			if m.doms[h].live {
				out = append(out, call{d: h, s: p.s, pg: p.pg})
			}
		}
	}
	return out
}

// decode turns one op's bytes into a call, picking handles among live
// and destroyed ones alike and pages among the live segments'; false
// means the op cannot be formed yet (nothing to name, no device).
func (m *model) decode(op []byte, cpus int, device bool) (call, bool) {
	at := func(i int) byte {
		if i < len(op) {
			return op[i]
		}
		return 0
	}
	a, b, x := at(1), at(2), at(3)
	c := call{kind: opKind(at(0) % byte(numOpKinds)), d: -1, s: -1, r: lockstepRights[int(x)%len(lockstepRights)]}
	spec := opSpecs[c.kind]
	has := func(arg string) bool { return strings.Contains(spec.args, arg) }
	pages := m.pages(has("m"))
	if has("v") && !device || has("d") && len(m.doms) == 0 || has("s") && len(m.segs) == 0 ||
		(has("p") || has("m")) && len(pages) == 0 {
		return c, false
	}
	c.desc = spec.name
	if has("d") {
		c.d = int(a) % len(m.doms)
		c.desc += fmt.Sprintf(" d%d", c.d)
	}
	if has("s") {
		c.s = int(b) % len(m.segs)
		c.desc += fmt.Sprintf(" s%d", c.s)
	}
	if has("p") || has("m") {
		p := pages[int(b)%len(pages)]
		c.s, c.pg = p.s, p.pg
		c.desc += fmt.Sprintf(" s%d.%d", c.s, c.pg)
	}
	if has("r") {
		c.desc += " " + c.r.String()
	}
	switch c.kind {
	case opCreateSeg:
		// Bit 3 of a gives a super-page segment 16 more pages: one whole
		// 64 KiB super-page, then pages past it. A shorter one's
		// super-page would run past its end, so its PLB entries stay at
		// base granularity.
		c.n, c.super = 1+int(a)%8, x%4 == 0
		if c.super && a&8 != 0 {
			c.n += 16
		}
		c.desc += fmt.Sprintf(" %d pages super=%v", c.n, c.super)
	case opSetCPU:
		c.n = int(a) % cpus
		c.desc += fmt.Sprint(" ", c.n)
	case opLoad:
		c.access = [2]addr.AccessKind{addr.Load, addr.Fetch}[x%2]
		c.desc = c.access.String() + strings.TrimPrefix(c.desc, spec.name)
	case opDevRead:
		c.access = addr.Load
	case opStore, opDevWrite:
		c.access = addr.Store
	case opDevTouch:
		c.access = addr.AccessKind(x % 2)
		c.desc += " " + c.access.String()
	case opWindow:
		for i := 4; i < 8+4*(int(a)%3); i += 4 {
			in := []byte{byte(windowOps[int(at(i))%len(windowOps)]), at(i + 1), at(i + 2), at(i + 3)}
			if ic, ok := m.decode(in, cpus, device); ok {
				c.inner = append(c.inner, ic)
				c.desc += " [" + ic.desc + "]"
			}
		}
		return c, len(c.inner) > 0
	}
	return c, true
}

// predict returns the outcome the model expects of c — "allow" (naming
// the new handle for create and fork) or the refusing sentinel's text,
// prefixed "panic: " for a call that panics — and, for an allowed call,
// the update it makes to the model.
func (m *model) predict(c call) (string, func()) {
	var d *mdom
	if c.d >= 0 {
		d = &m.doms[c.d]
	}
	deadSeg := c.s >= 0 && !m.segs[c.s].live
	attached := false
	if d != nil && c.s >= 0 {
		_, attached = d.attach[c.s]
	}
	p := mpage{c.s, c.pg}
	allows := func(h int) bool {
		r, _ := m.rights(h, p)
		return r.Allows(c.access)
	}
	allow, mapped := outcome(nil), func() { m.segs[c.s].mapped[c.pg] = true }
	switch {
	case d != nil && !d.live && (c.kind == opAttach || c.kind == opProgram):
		return "panic: " + outcome(kernel.ErrDomainDestroyed), nil
	case d != nil && !d.live:
		return outcome(kernel.ErrDomainDestroyed), nil
	}
	switch c.kind {
	case opCreate:
		return fmt.Sprintf("allow d%d", m.next()), func() { m.create() }
	case opFork:
		return fmt.Sprintf("allow d%d", m.next()), func() {
			parent := *d // create may move m.doms
			child := m.create()
			child.attach, child.over = maps.Clone(parent.attach), maps.Clone(parent.over)
		}
	case opDestroy:
		return allow, func() { *d, m.free = mdom{}, append(m.free, c.d) }
	case opCreateSeg:
		return allow, func() { m.segs = append(m.segs, mseg{live: true, mapped: make([]bool, c.n)}) }
	case opDestroySeg:
		if deadSeg {
			return outcome(kernel.ErrSegmentDestroyed), nil
		}
		for _, o := range m.doms {
			if _, ok := o.attach[c.s]; ok && o.live {
				return outcome(kernel.ErrSegmentBusy), nil
			}
		}
		return allow, func() { m.segs[c.s].live = false }
	case opAttach:
		if deadSeg {
			return "panic: " + outcome(kernel.ErrSegmentDestroyed), nil
		}
		return allow, func() { d.attach[c.s] = c.r }
	case opDetach, opSetSeg, opSetPage:
		switch {
		case deadSeg && c.kind == opSetSeg:
			return outcome(kernel.ErrSegmentDestroyed), nil
		case !attached:
			return outcome(kernel.ErrNotAttached), nil
		case c.kind == opSetPage:
			return allow, func() { d.over[p] = c.r }
		}
		return allow, func() {
			if c.kind == opDetach {
				delete(d.attach, c.s)
			} else {
				d.attach[c.s] = c.r
			}
			maps.DeleteFunc(d.over, func(q mpage, _ addr.Rights) bool { return q.s == c.s })
		}
	case opClearPage:
		return allow, func() { delete(d.over, p) }
	case opLoad, opStore:
		if !allows(c.d) {
			return outcome(kernel.ErrProtection), nil
		}
		return allow, mapped
	case opUnmap, opPageOut:
		return allow, func() { m.segs[c.s].mapped[c.pg] = false }
	case opProgram:
		return allow, func() { m.dev = c.d }
	case opDevRead, opDevWrite, opDevTouch:
		if m.dev < 0 || !m.doms[m.dev].live {
			return outcome(iommu.ErrNoAuthority), nil
		}
		if !allows(m.dev) {
			return outcome(iommu.ErrDenied), nil
		}
		return allow, mapped
	}
	return allow, nil
}

// lane is one organization's kernel with its handles and model copy.
type lane struct {
	k    *kernel.Kernel
	doms []*kernel.Domain
	segs []*kernel.Segment
	m    model
	// misrouted is the first request the device seat was sent that its
	// IOTLB organization does not handle (see routeDevice).
	misrouted error
}

// deviceKinds lists, per IOTLB organization, the request kinds
// iommu.Device applies. It ignores any other kind, so an engine that
// sent one would leave the device holding revoked authority.
var deviceKinds = map[iommu.Org][]smp.Kind{
	iommu.OrgDomainPage: {smp.InvalRights, smp.UpdateRights, smp.RangeRights, smp.RangeDetach,
		smp.DomainPurge, smp.RangePurge, smp.PurgeAllProt, smp.PurgePage, smp.Unmap},
	iommu.OrgPageGroup: {smp.GroupLoad, smp.GroupRevoke, smp.GroupUpdate, smp.Unmap},
}

// routeDevice installs a fault hook that delivers every request and
// records in l.misrouted the first one sent to the lane's device seat
// outside deviceKinds of its organization. Every request reaches a
// device through the hook: a device is never the current seat.
func (l *lane) routeDevice() {
	org, seat := kernel.DeviceOrg(l.k.Model()), l.k.DeviceSeat(0)
	l.k.SetIPIFault(func(t int, r smp.Request) smp.Fault {
		if t == seat && l.misrouted == nil && !slices.Contains(deviceKinds[org], r.Kind) {
			l.misrouted = fmt.Errorf("device seat %d was sent %v, which a %v IOTLB does not apply", t, r.Kind, org)
		}
		return smp.FaultNone
	})
}

// refused is the outcome of a call page-group refuses and the model
// allows: the model skips it.
var refused = outcome(kernel.ErrUnrepresentable)

// step runs c on the lane's kernel, holds the outcome to the model's
// prediction and updates the model. It returns the outcome with any
// value the call read, for comparison across lanes.
func (l *lane) step(c call, op int) (string, error) {
	want, apply := l.m.predict(c)
	got, val := l.run(c, op)
	switch {
	case l.k.Model() == kernel.ModelPageGroup && want == outcome(nil) && got == refused:
	case got != want:
		return "", fmt.Errorf("%v: %s, model predicts %s", l.k.Model(), got, want)
	case apply != nil:
		apply()
	}
	return got + val, nil
}

// run makes c's kernel call, returning its outcome (a recovered panic's
// prefixed "panic: ") and the value it read, if any.
func (l *lane) run(c call, op int) (got, val string) {
	defer func() {
		if p := recover(); p != nil {
			err, _ := p.(error)
			got = "panic: " + outcome(err)
		}
	}()
	k := l.k
	var d *kernel.Domain
	if c.d >= 0 {
		d = l.doms[c.d]
	}
	var s *kernel.Segment
	var va addr.VA
	if c.s >= 0 {
		s = l.segs[c.s]
		va = s.PageVA(uint64(c.pg))
	}
	var err error
	switch c.kind {
	case opCreate:
		d, err = k.CreateDomainChecked()
	case opFork:
		d, err = k.ForkDomain(d)
	case opDestroy:
		err = k.DestroyDomain(d)
	case opCreateSeg:
		opts := kernel.SegmentOptions{}
		if c.super {
			opts.ProtShift, opts.AlignShift = 16, 16
		}
		l.segs = append(l.segs, k.CreateSegment(uint64(c.n), opts))
	case opDestroySeg:
		err = k.DestroySegment(s)
	case opAttach:
		err = k.Attach(d, s, c.r)
	case opDetach:
		err = k.Detach(d, s)
	case opSetPage:
		err = k.SetPageRights(d, va, c.r)
	case opClearPage:
		err = k.ClearPageRights(d, va)
	case opSetSeg:
		err = k.SetSegmentRights(d, s, c.r)
	case opLoad:
		if c.access == addr.Fetch {
			err = k.Touch(d, va, addr.Fetch)
			break
		}
		var v uint64
		if v, err = k.Load(d, va); err == nil {
			val = fmt.Sprintf(" %#x", v)
		}
	case opStore:
		err = k.Store(d, va, uint64(op))
	case opSetCPU:
		k.SetCPU(c.n)
	case opUnmap:
		err = k.Unmap(k.Geometry().PageNumber(va))
	case opPageOut:
		err = k.PageOut(k.Geometry().PageNumber(va))
	case opProgram:
		k.ProgramDevice(0, d)
	case opDevRead:
		var data []byte
		if data, err = k.DeviceReadPage(0, va); err == nil {
			h := fnv.New64a()
			h.Write(data)
			val = fmt.Sprintf(" %#x", h.Sum64())
		}
	case opDevWrite:
		err = k.DeviceWritePage(0, va, bytes.Repeat([]byte{byte(op)}, int(k.Geometry().PageSize())))
	case opDevTouch:
		err = k.DeviceTouch(0, va, c.access)
	}
	if err == nil && (c.kind == opCreate || c.kind == opFork) {
		i := slices.Index(l.doms, d)
		if i < 0 {
			i, l.doms = len(l.doms), append(l.doms, d)
		}
		return fmt.Sprintf("allow d%d", i), ""
	}
	return outcome(err), val
}

// audit holds the lane's kernel to its model and to the oracle.
func (l *lane) audit() error {
	for _, c := range l.m.live() {
		want, rec := l.m.rights(c.d, mpage{c.s, c.pg})
		got, cacheable, ok := l.k.ResolveRights(l.doms[c.d].ID, l.segs[c.s].PageVPN(uint64(c.pg)))
		if !ok || got != want || cacheable != rec {
			return fmt.Errorf("ResolveRights(d%d, s%d.%d) = (%v, cacheable=%v, ok=%v), model (%v, record=%v)",
				c.d, c.s, c.pg, got, cacheable, ok, want, rec)
		}
	}
	return errors.Join(l.misrouted, oracle.Verify(l.k), l.k.CheckAttachmentBookkeeping(),
		l.k.CheckPageGroupBookkeeping(), l.k.CheckTranslationBookkeeping())
}

// finish sweeps every live domain, page and access against the model,
// then destroys every live domain and audits the drained kernel.
func (l *lane) finish() error {
	k := l.k
	for _, c := range l.m.live() {
		for _, kind := range []addr.AccessKind{addr.Load, addr.Store, addr.Fetch} {
			c.kind, c.access = opLoad, kind // predict rules on c.access alone
			want, _ := l.m.predict(c)
			if got := outcome(k.Touch(l.doms[c.d], l.segs[c.s].PageVA(uint64(c.pg)), kind)); got != want {
				return fmt.Errorf("sweep: %v by d%d at s%d.%d: %s, model predicts %s", kind, c.d, c.s, c.pg, got, want)
			}
		}
	}
	for h, d := range l.doms {
		if l.m.doms[h].live {
			if err := errors.Join(k.DestroyDomain(d), oracle.VerifyDestroyed(k, d.ID)); err != nil {
				return fmt.Errorf("drain: %w", err)
			}
		}
	}
	if n := k.LiveDomains(); n != 0 {
		return fmt.Errorf("drained kernel reports %d live domains", n)
	}
	if len(l.doms) > 0 && k.FreeDomainIDs() == 0 {
		return errors.New("drained kernel's free list is empty")
	}
	return errors.Join(l.misrouted, oracle.Verify(k))
}

// splitOps cuts a script's body into ops, a window with the ops inside
// it, keeping at most maxLockstepOps.
func splitOps(b []byte) [][]byte {
	var ops [][]byte
	for len(b) > 0 && len(ops) < maxLockstepOps {
		n := 4
		if opKind(b[0]%byte(numOpKinds)) == opWindow && len(b) > 1 {
			n = 8 + 4*(int(b[1])%3)
		}
		n = min(n, len(b))
		ops, b = append(ops, b[:n]), b[n:]
	}
	return ops
}

// lockstep runs script on the organizations orgs, returning one line
// per op run and the first failure.
func lockstep(orgs []kernel.Model, script []byte) ([]string, error) {
	if len(script) == 0 {
		return nil, nil
	}
	world := lockstepWorlds[int(script[0])%len(lockstepWorlds)]
	if i := slices.Index(orgs, kernel.ModelPageGroup); i > 0 {
		orgs = slices.Clone(orgs)
		orgs[0], orgs[i] = orgs[i], orgs[0]
	}
	lanes := make([]*lane, len(orgs))
	for i, org := range orgs {
		cfg := kernel.DefaultConfig(org)
		cfg.CPUs = world.cpus
		cfg.PLB.PLB.Shifts = []uint{addr.BasePageShift, 16}
		if world.device {
			cfg.Devices = []kernel.DeviceConfig{{Kind: iommu.DMAEngine}}
		}
		lanes[i] = &lane{k: kernel.New(cfg), m: model{dev: -1}}
		if world.device {
			lanes[i].routeDevice()
		}
	}
	log := []string{fmt.Sprintf("world: %d CPUs, device %v", world.cpus, world.device)}
	for op, raw := range splitOps(script[1:]) {
		// Every lane's model is the same, so the first decodes for all.
		c, ok := lanes[0].m.decode(raw, world.cpus, world.device)
		if !ok {
			continue
		}
		log = append(log, fmt.Sprintf("%d: %s", op, c.desc))
		if err := lockstepOp(lanes, c, op); err != nil {
			return log, fmt.Errorf("op %d (%s): %w", op, c.desc, err)
		}
	}
	for _, l := range lanes {
		if err := l.finish(); err != nil {
			return log, fmt.Errorf("end of script: %v: %w", l.k.Model(), err)
		}
	}
	return log, nil
}

// lockstepOp runs one decoded op on every lane and checks the lanes
// against their models, the oracle and each other. The first lane is
// page-group's when it runs: a call it refuses runs on no other lane.
func lockstepOp(lanes []*lane, c call, op int) error {
	calls := []call{c}
	if c.kind == opWindow {
		calls = c.inner
		for _, l := range lanes {
			l.k.DeferShootdowns()
		}
	}
	for _, in := range calls {
		ref, err := lanes[0].step(in, op)
		switch {
		case err != nil:
			return err
		case ref == refused:
			continue // page-group refused the call: it runs nowhere else
		}
		for _, l := range lanes[1:] {
			got, err := l.step(in, op)
			switch {
			case err != nil:
				return err
			case got != ref:
				return fmt.Errorf("%v: %s, %v: %s", l.k.Model(), got, lanes[0].k.Model(), ref)
			}
		}
	}
	for _, l := range lanes {
		if c.kind == opWindow {
			l.k.FlushShootdowns()
		}
		err := l.audit()
		if c.kind == opDestroy && !l.m.doms[c.d].live && err == nil {
			err = oracle.VerifyDestroyed(l.k, l.doms[c.d].ID)
		}
		if err != nil {
			return fmt.Errorf("%v: %w", l.k.Model(), err)
		}
	}
	return nil
}

// lockstepFailure runs script on orgs and, if a check fails, reports the
// failure with the script shrunk, its error and its ops.
func lockstepFailure(orgs []kernel.Model, script []byte) error {
	_, err := lockstep(orgs, script)
	if err == nil {
		return nil
	}
	min := shrinkLockstep(orgs, script)
	log, minErr := lockstep(orgs, min)
	return fmt.Errorf("%v\nshrunk script %x fails with: %v\n  %s", err, min, minErr, strings.Join(log, "\n  "))
}

// shrinkLockstep delta-debugs a script failing on orgs: it removes ever
// smaller runs of ops while the script still fails, keeping the world.
func shrinkLockstep(orgs []kernel.Model, script []byte) []byte {
	join := func(ops [][]byte) []byte { return slices.Concat(append([][]byte{script[:1]}, ops...)...) }
	ops := splitOps(script[1:])
	for n := 2; len(ops) > 0; {
		size, reduced := max(1, len(ops)/n), false
		for start := 0; start < len(ops) && !reduced; start += size {
			cand := slices.Concat(ops[:start], ops[min(start+size, len(ops)):])
			if _, err := lockstep(orgs, join(cand)); err != nil {
				ops, n, reduced = cand, max(n-1, 2), true
			}
		}
		if !reduced {
			if size == 1 {
				break
			}
			n = min(2*n, len(ops))
		}
	}
	return join(ops)
}

// genLockstep generates seed script seed: its world is byte(seed), its
// segments super-page, its ops drawn by opSpecs weight.
func genLockstep(seed int64) []byte {
	var mix []opKind
	for kind, spec := range opSpecs {
		for range spec.weight {
			mix = append(mix, opKind(kind))
		}
	}
	return genScript(seed, byte(seed), prologue(0, 0), mix, lockstepSeedOps)
}

// prologue opens a script with two domains and two segments, made by
// create-seg ops with arguments a|3 and a|7 (4 and 8 pages, 16 more
// each on super-page segments when a is 8) and third byte x (x%4 == 0
// makes them super-page).
func prologue(a, x byte) []byte {
	return []byte{byte(opCreate), 0, 0, 0, byte(opCreate), 0, 0, 0,
		byte(opCreateSeg), a | 3, 0, x, byte(opCreateSeg), a | 7, 0, x}
}

// genScript generates a script in world from seed: the prologue ops,
// then n ops drawn uniformly from mix, a window followed by its inner
// ops.
func genScript(seed int64, world byte, prologue []byte, mix []opKind, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	script := append([]byte{world}, prologue...)
	op := func(kind byte) {
		script = append(script, kind, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	for range n {
		kind := mix[rng.Intn(len(mix))]
		op(byte(kind))
		if kind == opWindow {
			for range 1 + int(script[len(script)-3])%3 {
				op(byte(rng.Intn(len(windowOps))))
			}
		}
	}
	return script
}

// The tests below run the interpreter on one organization at a time, so
// a failure names its organization, over scripts whose op mix
// concentrates on one concern. Each kernel is held to its own model, the
// oracle and the bookkeeping checks after every call, and swept and
// drained at the end, as in FuzzLockstep; a failure is reported the same
// way.

// protectionOps are rights changes, CPU moves and accesses among the
// prologue's domains and segments.
var protectionOps = []opKind{opAttach, opAttach, opDetach, opSetPage, opSetPage, opClearPage,
	opSetSeg, opSetCPU, opLoad, opLoad, opStore, opStore}

// churnOps churn per-page rights under attachments and access the pages.
var churnOps = []opKind{opAttach, opSetPage, opSetPage, opClearPage, opLoad, opStore}

// lifecycleOps make and unmake domains and segments around attachments,
// overrides and accesses.
var lifecycleOps = []opKind{opCreate, opFork, opDestroy, opCreateSeg, opDestroySeg, opAttach,
	opDetach, opSetPage, opLoad, opStore, opSetCPU}

// checkScripts runs n scripts of mix from seed on, on a uniprocessor
// with segments opened by prologue, on organization org alone.
func checkScripts(t *testing.T, org kernel.Model, seed int64, n int, prologue []byte, mix []opKind) {
	t.Helper()
	for s := seed; s < seed+int64(n); s++ {
		if err := lockstepFailure([]kernel.Model{org}, genScript(s, 0, prologue, mix, lockstepSeedOps)); err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
	}
}

// TestHardwareMatchesAuthority is the central soundness property on the
// two single-address-space organizations: after any sequence of
// protection operations, every access is allowed exactly when the
// domain's authority allows it, whatever the PLB, TLB, page-group cache
// or data cache hold and whatever ran before. Allowed-but-revoked is a
// security hole (stale hardware rights); the other direction is a
// lost-rights bug.
func TestHardwareMatchesAuthority(t *testing.T) {
	for _, org := range []kernel.Model{kernel.ModelDomainPage, kernel.ModelPageGroup} {
		t.Run(org.String(), func(t *testing.T) {
			checkScripts(t, org, 0, 8, prologue(0, 1), protectionOps)
		})
	}
}

// The property holds on the conventional organization too.
func TestHardwareMatchesAuthorityConventional(t *testing.T) {
	checkScripts(t, kernel.ModelConventional, 40, 6, prologue(0, 1), protectionOps)
}

// The property holds on domain-page with super-page segments of 20 and
// 24 pages: each has one whole 64 KiB super-page, which the PLB caches
// in one entry unless a per-page override splits it, and pages past it.
func TestHardwareMatchesAuthoritySuperPage(t *testing.T) {
	checkScripts(t, kernel.ModelDomainPage, 20, 4, prologue(8, 0), protectionOps)
}

// TestPLBSubsetOfAuthority churns per-page rights on domain-page: every
// resident PLB entry's rights must equal what the kernel resolves for
// its domain and page (oracle.Verify) after every call.
func TestPLBSubsetOfAuthority(t *testing.T) {
	checkScripts(t, kernel.ModelDomainPage, 99, 8, prologue(0, 1), churnOps)
}

// TestPGTLBMatchesKernelPages is the page-group counterpart: every
// resident page-group TLB entry's AID and rights field must match the
// kernel's page records, and the checker's memberships the group sets.
func TestPGTLBMatchesKernelPages(t *testing.T) {
	checkScripts(t, kernel.ModelPageGroup, 7, 8, prologue(0, 1), churnOps)
}

// TestLifecycleQuick: any interleaving of lifecycle operations, in any
// world, leaves every destroyed domain oracle-clean at its death and the
// bookkeeping consistent after every call, and drains to a kernel with
// no live domain and a non-empty free list. testing/quick draws the
// world and the ops.
func TestLifecycleQuick(t *testing.T) {
	for _, org := range lifecycleModels {
		t.Run(org.String(), func(t *testing.T) {
			prop := func(world byte, ops [24][4]byte) bool {
				script := append([]byte{world}, prologue(0, 1)...)
				for _, op := range ops {
					op[0] = byte(lifecycleOps[int(op[0])%len(lifecycleOps)])
					script = append(script, op[:]...)
				}
				err := lockstepFailure([]kernel.Model{org}, script)
				if err != nil {
					t.Log(err)
				}
				return err == nil
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}
