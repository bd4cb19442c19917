package kernel_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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
// domain and page, and the oracle, the bookkeeping checks and the seat
// checks must pass; across kernels the outcomes and loaded values must
// be identical. The one sanctioned divergence is page-group refusing a
// rights change with ErrUnrepresentable: page-group runs each call
// first, and a call it refuses is skipped on every kernel, so all the
// model copies stay equal.
//
// A partition op arms a fault plan: every delivery to one seat is
// dropped until the acknowledged protocol quarantines it. Whether a
// revocation reaches that seat, and so whether it is fenced, depends on
// the organization, so from a script's first partition on the lanes are
// no longer compared with each other: each kernel is held to its own
// model, in which a DMA by a device its kernel reports fenced fails with
// iommu.ErrFenced. A script that partitioned heals and converges
// (oracle.CheckConvergence) before its end. A script ends with a full
// verdict sweep (load, store and fetch), the destruction of every live
// domain and a last audit.
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

// world is a kernel configuration a script's first byte picks: its CPU
// count, whether a DMA engine is seated above the CPUs, and whether the
// CPUs are a 2×2 mesh of one-CPU clusters with the engine in cluster 3,
// the far corner.
type world struct {
	cpus         int
	device, mesh bool
}

// lockstepWorlds are the worlds scripts run in. Only the first has no
// shootdown subsystem; the others run the acknowledged protocol, under
// which a partitioned seat is quarantined rather than left stale.
var lockstepWorlds = []world{{1, false, false}, {2, true, false}, {4, true, false}, {4, true, true}}

// seats is the world's interconnect seat count: CPUs, then the device.
func (w world) seats() int {
	if w.device {
		return w.cpus + 1
	}
	return w.cpus
}

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
	opPartition
	opRejoinDevice
	opConverge
	opRecover
	opKernelRead
	opKernelWrite
	opClearDirty
	numOpKinds
)

// opSpecs gives each op's name, its arguments — d a domain handle, s a
// segment handle, p a live page, m a page known to be mapped, r rights,
// v the DMA engine — and its weight in generated scripts. A partition
// names a seat, CPU or device, and needs a shootdown subsystem.
var opSpecs = [numOpKinds]struct {
	name, args string
	weight     int
}{
	{"create", "", 2}, {"fork", "d", 1}, {"destroy", "d", 1}, {"create-seg", "", 1},
	{"destroy-seg", "s", 1}, {"attach", "dsr", 3}, {"detach", "ds", 1}, {"set-page", "dpr", 2},
	{"clear-page", "dp", 1}, {"set-seg", "dsr", 1}, {"load", "dp", 3}, {"store", "dp", 3},
	{"set-cpu", "", 4}, {"unmap", "m", 1}, {"page-out", "m", 1}, {"window", "", 1},
	{"program", "dv", 1}, {"dev-read", "pv", 1}, {"dev-write", "pv", 1}, {"dev-touch", "pv", 1},
	{"partition", "", 1}, {"rejoin-device", "v", 1}, {"converge", "", 1}, {"recover", "", 1},
	{"kernel-read", "p", 1}, {"kernel-write", "p", 1}, {"clear-dirty", "p", 1},
}

// dma reports whether kind is one of the three DMA calls.
func dma(kind opKind) bool { return kind == opDevRead || kind == opDevWrite || kind == opDevTouch }

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
	n      int // the CPU of set-cpu, the seat of partition, the page count of create-seg
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
	cpu  int // the current CPU
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

// decode turns one op's bytes into a call in world w, picking handles
// among live and destroyed ones alike and pages among the live
// segments'; false means the op cannot be formed yet (nothing to name,
// no device, no seat to partition).
func (m *model) decode(op []byte, w world) (call, bool) {
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
	if has("v") && !w.device || has("d") && len(m.doms) == 0 || has("s") && len(m.segs) == 0 ||
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
		c.n = int(a) % w.cpus
		c.desc += fmt.Sprint(" ", c.n)
	case opPartition:
		// Any seat but the current CPU, which is sent nothing.
		if w.cpus < 2 {
			return c, false
		}
		c.n = (m.cpu + 1 + int(a)%(w.seats()-1)) % w.seats()
		c.desc += fmt.Sprint(" seat ", c.n)
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
			if ic, ok := m.decode(in, w); ok {
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
	case opKernelRead, opKernelWrite:
		return allow, mapped // kernel mode: no domain check
	case opUnmap, opPageOut:
		return allow, func() { m.segs[c.s].mapped[c.pg] = false }
	case opProgram:
		return allow, func() { m.dev = c.d }
	case opSetCPU:
		return allow, func() { m.cpu = c.n }
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
	// part is the partitioned seat, -1 when none, and partAt the
	// kernel's quarantine count when the partition went up; parted marks
	// every seat the script partitioned.
	part   int
	partAt uint64
	parted []bool
	// misrouted is the first request the device seat was sent that its
	// IOTLB organization does not handle (see hook).
	misrouted error
}

// newLane builds org's kernel for world w. A kernel with a shootdown
// subsystem runs the acknowledged protocol under the lane's fault hook.
func newLane(org kernel.Model, w world) *lane {
	cfg := kernel.DefaultConfig(org)
	cfg.CPUs = w.cpus
	cfg.PLB.PLB.Shifts = []uint{addr.BasePageShift, 16}
	dev := kernel.DeviceConfig{Kind: iommu.DMAEngine}
	if w.mesh {
		cfg.Topology = smp.Topology{MeshWidth: 2, MeshHeight: 2, ClusterCPUs: 1}
		dev.Cluster = 3
	}
	if w.device {
		cfg.Devices = []kernel.DeviceConfig{dev}
	}
	l := &lane{k: kernel.New(cfg), m: model{dev: -1}, part: -1, parted: make([]bool, w.seats())}
	if w.cpus > 1 {
		l.k.EnableShootdownProtocol(smp.DefaultProtocolConfig())
		l.hook()
	}
	return l
}

// deviceKinds lists, per IOTLB organization, the request kinds
// iommu.Device applies. It ignores any other kind, so an engine that
// sent one would leave the device holding revoked authority.
var deviceKinds = map[iommu.Org][]smp.Kind{
	iommu.OrgDomainPage: {smp.InvalRights, smp.UpdateRights, smp.RangeRights, smp.RangeDetach,
		smp.DomainPurge, smp.RangePurge, smp.PurgeAllProt, smp.PurgePage, smp.Unmap},
	iommu.OrgPageGroup: {smp.GroupLoad, smp.GroupRevoke, smp.GroupUpdate, smp.Unmap},
}

// hook installs the lane's one fault hook. It records in l.misrouted
// the first request sent to the device seat outside deviceKinds of its
// organization; every request reaches a device through the hook, since
// a device is never the current seat. And it drops every delivery to
// the partitioned seat until the kernel has quarantined a seat since
// the partition went up (only that seat's deliveries fail), when the
// partition heals.
func (l *lane) hook() {
	org, dev := kernel.DeviceOrg(l.k.Model()), l.k.DeviceSeat(0)
	l.k.SetIPIFault(func(t int, r smp.Request) smp.Fault {
		if t == dev && l.misrouted == nil && !slices.Contains(deviceKinds[org], r.Kind) {
			l.misrouted = fmt.Errorf("device seat %d was sent %v, which a %v IOTLB does not apply", t, r.Kind, org)
		}
		if t == l.part {
			if l.quarantines() == l.partAt {
				return smp.FaultDrop
			}
			l.part = -1
		}
		return smp.FaultNone
	})
}

// quarantines is how many times the lane's kernel quarantined a seat.
func (l *lane) quarantines() uint64 { return l.k.Counters().Get("smp.quarantines") }

// refused is the outcome of a call page-group refuses and the model
// allows: the model skips it.
var refused = outcome(kernel.ErrUnrepresentable)

// step runs c on the lane's kernel, holds the outcome to the model's
// prediction and updates the model. A DMA by a device the kernel reports
// fenced must abort with iommu.ErrFenced instead. It returns the outcome
// with any value the call read, for comparison across lanes.
func (l *lane) step(c call, op int) (string, error) {
	want, apply := l.m.predict(c)
	if dma(c.kind) && l.k.DeviceFenced(0) {
		want, apply = outcome(iommu.ErrFenced), nil
	}
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
	vpn := k.Geometry().PageNumber(va)
	fill := func() []byte { return bytes.Repeat([]byte{byte(op)}, int(k.Geometry().PageSize())) }
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
		err = k.Unmap(vpn)
	case opPageOut:
		err = k.PageOut(vpn)
	case opProgram:
		k.ProgramDevice(0, d)
	case opDevRead, opKernelRead:
		var data []byte
		if c.kind == opDevRead {
			data, err = k.DeviceReadPage(0, va)
		} else {
			data, err = k.KernelReadPage(vpn)
		}
		if err == nil {
			h := fnv.New64a()
			h.Write(data)
			val = fmt.Sprintf(" %#x", h.Sum64())
		}
	case opDevWrite:
		err = k.DeviceWritePage(0, va, fill())
	case opDevTouch:
		err = k.DeviceTouch(0, va, c.access)
	case opPartition:
		l.part, l.partAt, l.parted[c.n] = c.n, l.quarantines(), true
	case opRejoinDevice:
		k.RejoinDevice(0)
	case opConverge:
		_, err = oracle.CheckConvergence(k)
	case opRecover:
		k.RecoverHardware()
	case opKernelWrite:
		err = k.KernelWritePage(vpn, fill())
	case opClearDirty:
		val = fmt.Sprint(" ", k.ClearDirty(vpn))
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

// seatAudit holds the lane's kernel to its fault plan: the current CPU
// is trusted, no fenced seat has a request queued, and no seat the
// script never partitioned is fenced.
func (l *lane) seatAudit() error {
	k := l.k
	if !k.SeatTrusted(l.m.cpu) {
		return fmt.Errorf("current CPU %d is untrusted (%v)", l.m.cpu, k.SeatHealth(l.m.cpu))
	}
	for t := range k.NumSeats() {
		switch h := k.SeatHealth(t); {
		case h != smp.Quarantined && h != smp.Degraded:
		case k.PendingShootdowns(t) > 0:
			return fmt.Errorf("%s is %v with %d requests queued", k.SeatName(t), h, k.PendingShootdowns(t))
		case !l.parted[t]:
			return fmt.Errorf("%s is %v, never partitioned", k.SeatName(t), h)
		}
	}
	return nil
}

// audit holds the lane's kernel to its model, its fault plan and the
// oracle.
func (l *lane) audit() error {
	for _, c := range l.m.live() {
		want, rec := l.m.rights(c.d, mpage{c.s, c.pg})
		got, cacheable, ok := l.k.ResolveRights(l.doms[c.d].ID, l.segs[c.s].PageVPN(uint64(c.pg)))
		if !ok || got != want || cacheable != rec {
			return fmt.Errorf("ResolveRights(d%d, s%d.%d) = (%v, cacheable=%v, ok=%v), model (%v, record=%v)",
				c.d, c.s, c.pg, got, cacheable, ok, want, rec)
		}
	}
	return errors.Join(l.misrouted, l.seatAudit(), oracle.Verify(l.k), l.k.CheckAttachmentBookkeeping(),
		l.k.CheckPageGroupBookkeeping(), l.k.CheckTranslationBookkeeping())
}

// verifyDestroyed holds every destroyed domain whose ID no create has
// revived to the oracle's destroy sweep.
func (l *lane) verifyDestroyed() error {
	var err error
	for _, h := range l.m.free {
		err = errors.Join(err, oracle.VerifyDestroyed(l.k, l.doms[h].ID))
	}
	return err
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
	return errors.Join(l.misrouted, l.seatAudit(), oracle.Verify(k))
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
// per op run and the first failure. after, when not nil, sees every
// lane after each op has run and been audited on all of them.
func lockstep(orgs []kernel.Model, script []byte, after func(call, *lane)) ([]string, error) {
	if len(script) == 0 {
		return nil, nil
	}
	w := lockstepWorlds[int(script[0])%len(lockstepWorlds)]
	if i := slices.Index(orgs, kernel.ModelPageGroup); i > 0 {
		orgs = slices.Clone(orgs)
		orgs[0], orgs[i] = orgs[i], orgs[0]
	}
	lanes := make([]*lane, len(orgs))
	for i, org := range orgs {
		lanes[i] = newLane(org, w)
	}
	log := []string{fmt.Sprintf("world: %d CPUs, device %v, mesh %v", w.cpus, w.device, w.mesh)}
	faulted := false
	run := func(c call, op int) error {
		faulted = faulted || c.kind == opPartition
		if err := lockstepOp(lanes, c, op, faulted); err != nil {
			return fmt.Errorf("op %d (%s): %w", op, c.desc, err)
		}
		if after != nil {
			for _, l := range lanes {
				after(c, l)
			}
		}
		return nil
	}
	ops := splitOps(script[1:])
	for op, raw := range ops {
		// Every lane's model is the same, so the first decodes for all.
		c, ok := lanes[0].m.decode(raw, w)
		if !ok {
			continue
		}
		log = append(log, fmt.Sprintf("%d: %s", op, c.desc))
		if err := run(c, op); err != nil {
			return log, err
		}
	}
	if faulted {
		// The partition heals, and protection maintenance must converge
		// before the sweep.
		for _, l := range lanes {
			l.part = -1
		}
		c := call{kind: opConverge, d: -1, s: -1, desc: "converge"}
		log = append(log, fmt.Sprintf("%d: %s", len(ops), c.desc))
		if err := run(c, len(ops)); err != nil {
			return log, err
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
// against their models, the oracle and, until the script has faulted,
// each other. The first lane is page-group's when it runs: a call it
// refuses runs on no other lane.
func lockstepOp(lanes []*lane, c call, op int, faulted bool) error {
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
			case got != ref && !faulted:
				return fmt.Errorf("%v: %s, %v: %s", l.k.Model(), got, lanes[0].k.Model(), ref)
			}
		}
		if dma(in.kind) {
			// A DMA the fence aborted on some lanes mapped the page on the
			// others only. A page stays known to be mapped where every
			// lane mapped it, so the models, which decode the next op,
			// stay equal.
			mapped := true
			for _, l := range lanes {
				mapped = mapped && l.m.segs[in.s].mapped[in.pg]
			}
			for _, l := range lanes {
				l.m.segs[in.s].mapped[in.pg] = mapped
			}
		}
	}
	for _, l := range lanes {
		var err error
		if c.kind == opWindow {
			err = l.seatAudit() // requests for fenced seats were never queued
			l.k.FlushShootdowns()
		}
		err = errors.Join(err, l.audit())
		switch {
		case err != nil:
		case c.kind == opDestroy && !l.m.doms[c.d].live:
			err = oracle.VerifyDestroyed(l.k, l.doms[c.d].ID)
		case c.kind == opRejoinDevice || c.kind == opConverge || c.kind == opRecover:
			err = l.verifyDestroyed()
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
	_, err := lockstep(orgs, script, nil)
	if err == nil {
		return nil
	}
	min := shrinkLockstep(orgs, script)
	log, minErr := lockstep(orgs, min, nil)
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
			if _, err := lockstep(orgs, join(cand), nil); err != nil {
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
// segments super-page and attached to both domains, so remote seats hold
// authority from the first op on, its ops drawn by opSpecs weight.
func genLockstep(seed int64) []byte {
	var mix []opKind
	for kind, spec := range opSpecs {
		for range spec.weight {
			mix = append(mix, opKind(kind))
		}
	}
	return genScript(seed, byte(seed), attachBoth(prologue(0, 0)), mix, lockstepSeedOps)
}

// prologue opens a script with two domains and two segments, made by
// create-seg ops with arguments a|3 and a|7 (4 and 8 pages, 16 more
// each on super-page segments when a is 8) and third byte x (x%4 == 0
// makes them super-page).
func prologue(a, x byte) []byte {
	return []byte{byte(opCreate), 0, 0, 0, byte(opCreate), 0, 0, 0,
		byte(opCreateSeg), a | 3, 0, x, byte(opCreateSeg), a | 7, 0, x}
}

// attachBoth appends to a prologue the attaches of both its domains to
// both its segments, rw- but for domain 1's r-- on segment 1.
func attachBoth(prologue []byte) []byte {
	return append(prologue, byte(opAttach), 0, 0, 2, byte(opAttach), 1, 0, 2,
		byte(opAttach), 0, 1, 2, byte(opAttach), 1, 1, 1)
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

// faultOps arm partitions among accesses spread over every CPU and the
// DMA engine, and the revocations that send those seats requests.
var faultOps = []opKind{opPartition, opSetCPU, opSetCPU, opSetCPU, opLoad, opLoad, opLoad, opStore, opStore,
	opAttach, opDetach, opSetPage, opSetPage, opSetSeg, opDestroy, opCreate, opFork, opProgram, opDevRead,
	opDevRead, opDevWrite, opDevTouch, opRejoinDevice, opConverge, opWindow}

// TestFaultPlans runs scripts of faultOps on all four organizations in
// lockstep, in the three worlds with a DMA engine. The prologue attaches
// both domains to both segments and programs the engine, so remote seats
// hold authority a partition can strand.
func TestFaultPlans(t *testing.T) {
	pro := append(attachBoth(prologue(0, 1)), byte(opProgram), 0, 0, 0)
	for seed := range int64(48) {
		if err := lockstepFailure(lifecycleModels, genScript(seed, byte(1+seed%3), pro, faultOps, lockstepSeedOps)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// retiredScenarios are the committed corpus scripts that replaced three
// chaos scenarios, each with the organization the scenario ran on and
// the events it checked for. FuzzLockstep replays them on all four
// organizations.
var retiredScenarios = []struct {
	name string
	org  kernel.Model
	want []string
}{
	// Page-group on a 2×2 mesh: a domain executing on CPU 3, in the far
	// corner, loses its attachment into the partition.
	{"cluster-rejoin-mid-revoke", kernel.ModelPageGroup,
		[]string{"cpu 3 quarantined", "skipped while cpu 3 fenced", "cpu 3 trusted again"}},
	// Domain-page: a domain is destroyed while the engine acting for it
	// is partitioned.
	{"destroy-vs-dma", kernel.ModelDomainPage,
		[]string{"dma0 quarantined", "fenced DMA aborted", "dma0 trusted again", "dead domain's DMA denied"}},
	// Page-group on a 2×2 mesh: the engine, seated in the far corner,
	// loses a segment-rights downgrade into the partition.
	{"nic-cluster-partition", kernel.ModelPageGroup,
		[]string{"dma0 quarantined", "fenced DMA aborted", "skipped while dma0 fenced", "dma0 trusted again"}},
}

// TestRetiredChaosScenarios replays each retired scenario's script on
// the organization the scenario ran on and requires every event it
// checked: the partitioned seat was quarantined; a DMA while the engine
// was fenced (which the lockstep holds to iommu.ErrFenced); a request
// for a fenced seat skipped and counted; the seat trusted after its
// rejoin; and a rejoined engine denied DMA for its destroyed domain.
// The lockstep's audits hold the rest after every op: no request queued
// for a fenced seat, oracle.Verify, and VerifyDestroyed after each
// rejoin.
func TestRetiredChaosScenarios(t *testing.T) {
	for _, sc := range retiredScenarios {
		t.Run(sc.name, func(t *testing.T) {
			var seen []string
			note := func(e string) {
				if !slices.Contains(seen, e) {
					seen = append(seen, e)
				}
			}
			// fenced and trusted are every seat's state, and skips the
			// fenced-skip count, after the previous op.
			var fenced, trusted []bool
			var skips uint64
			_, err := lockstep([]kernel.Model{sc.org}, corpusEntry(t, sc.name), func(c call, l *lane) {
				k := l.k
				if fenced == nil {
					fenced, trusted = make([]bool, k.NumSeats()), make([]bool, k.NumSeats())
					for seat := range trusted {
						trusted[seat] = true
					}
				}
				dev := k.DeviceSeat(0)
				switch {
				case dma(c.kind) && fenced[dev]:
					note("fenced DMA aborted")
				case dma(c.kind) && slices.Contains(seen, k.SeatName(dev)+" trusted again") &&
					l.m.dev >= 0 && !l.m.doms[l.m.dev].live:
					note("dead domain's DMA denied")
				}
				n := k.Counters().Get("smp.fenced_skips")
				for seat := range fenced {
					name, h := k.SeatName(seat), k.SeatHealth(seat)
					now := h == smp.Quarantined || h == smp.Degraded
					switch {
					case now && !fenced[seat]:
						note(name + " quarantined")
					case now && n > skips:
						note("skipped while " + name + " fenced")
					}
					if k.SeatTrusted(seat) && !trusted[seat] {
						note(name + " trusted again")
					}
					fenced[seat], trusted[seat] = now, k.SeatTrusted(seat)
				}
				skips = n
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range sc.want {
				if !slices.Contains(seen, e) {
					t.Errorf("%v never saw %q; saw %q", sc.org, e, seen)
				}
			}
		})
	}
}

// corpusEntry reads the script of FuzzLockstep's committed corpus entry
// name.
func corpusEntry(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzLockstep", name))
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	script, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if !ok || err != nil {
		t.Fatalf("corpus entry %s is not one []byte: %v", name, err)
	}
	return []byte(script)
}

// TestKernelWriteMarksDirty: on every organization, a kernel-mode write
// dirties its page as a store does, so the lockstep's kernel-write then
// clear-dirty reads true, and a second clear-dirty false. An incremental
// checkpoint must save a page that txn's rollback, a DSM page install or
// an image restore rewrote.
func TestKernelWriteMarksDirty(t *testing.T) {
	script := append(prologue(0, 1), byte(opKernelWrite), 0, 0, 0,
		byte(opClearDirty), 0, 0, 0, byte(opClearDirty), 0, 0, 0)
	w := lockstepWorlds[0]
	for _, org := range lifecycleModels {
		l := newLane(org, w)
		var got []string
		for op, raw := range splitOps(script) {
			c, ok := l.m.decode(raw, w)
			if !ok {
				t.Fatalf("%v: op %d does not decode", org, op)
			}
			out, err := l.step(c, op)
			if err != nil {
				t.Fatalf("%v: op %d (%s): %v", org, op, c.desc, err)
			}
			got = append(got, out)
		}
		if want := []string{"allow", "allow true", "allow false"}; !slices.Equal(got[len(got)-3:], want) {
			t.Errorf("%v: kernel-write, clear-dirty, clear-dirty = %q, want %q", org, got[len(got)-3:], want)
		}
	}
}
