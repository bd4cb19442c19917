package main

import (
	"errors"

	"repro/internal/addr"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/trace"
)

// access-replay: one op is one machine.Access, with SwitchDomain at quantum
// edges, on each organization's bare machine over trace.OpenOS. No kernel
// is in the loop.
var accessReplay = workload{
	name:  "access-replay",
	batch: 16384,
	gen:   genAccess,
}

// The stream: 8 domains x 12 private pages plus 16 shared pages is 224
// (domain, page) pairs for the 128-entry PLB but only 112 pages for the
// 128-entry page-group TLB (Sections 3.1 and 4.2).
const accessRecords = 1 << 20

func accessMix(records int) trace.SharedMixConfig {
	cfg := trace.DefaultSharedMix()
	cfg.Domains = 8
	cfg.PrivatePages = 12
	cfg.SharedPages = 16
	cfg.SharedPercent = 20
	cfg.StorePercent = 30
	cfg.Quantum = 100
	cfg.OffsetWords = 32
	cfg.Records = records
	return cfg
}

type accessScript struct {
	cfg  trace.SharedMixConfig
	recs []trace.Record // length a power of two; op i replays recs[i&mask]
}

// genAccess builds the stream. A run replays it several times; a run too
// short to need the whole stream gets a shorter one.
func genAccess(seed int64, ops int) script {
	n := 1
	for n < min(ops, accessRecords) {
		n <<= 1
	}
	cfg := accessMix(n)
	return &accessScript{cfg: cfg, recs: trace.NewGen(seed, addr.BaseGeometry()).SharedMix(cfg)}
}

func (s *accessScript) hash() uint64 {
	h := uint64(0)
	for _, r := range s.recs {
		h = mix(mix(mix(h, uint64(r.Domain)), uint64(r.VA)), uint64(r.Kind))
	}
	return h
}

// groupOf gives the shared region one page-group and each domain's private
// region its own.
func (s *accessScript) groupOf(vpn addr.VPN) addr.GroupID {
	geo := addr.BaseGeometry()
	shared := geo.PageNumber(s.cfg.SharedBase)
	if vpn >= shared && uint64(vpn-shared) < s.cfg.SharedPages {
		return 1
	}
	private := geo.PageNumber(s.cfg.PrivateBase)
	return addr.GroupID(2 + uint64(vpn-private)/s.cfg.PrivatePages)
}

func (s *accessScript) start(o org) (system, error) {
	geo := addr.BaseGeometry()
	var m machine.Machine
	switch o.name {
	case "plb":
		pm, err := machine.NewPLB(machine.DefaultPLBConfig(), trace.NewOpenOS(geo, nil))
		if err != nil {
			return nil, err
		}
		m = pm
	case "pg":
		m = machine.NewPG(machine.DefaultPGConfig(), trace.NewOpenOS(geo, s.groupOf))
	case "conv":
		m = machine.NewConventional(machine.DefaultConvConfig(), trace.NewOpenOS(geo, nil))
	default:
		m = machine.NewFlush(machine.DefaultConvConfig(), trace.NewOpenOS(geo, nil))
	}
	return &accessSystem{m: m, recs: s.recs, mask: len(s.recs) - 1}, nil
}

// errFault stands for a machine fault where none may occur.
var errFault = errors.New("unexpected machine fault")

type accessSystem struct {
	m    machine.Machine
	recs []trace.Record
	mask int
	cur  addr.DomainID
}

func (a *accessSystem) exec(i int, c *opCtx) {
	r := &a.recs[i&a.mask]
	if r.Domain != a.cur {
		sp := c.tr.begin(callSwitchDomain)
		a.m.SwitchDomain(r.Domain)
		c.tr.end(sp, nil)
		a.cur = r.Domain
	}
	sp := c.tr.begin(callAccess)
	out := a.m.Access(r.VA, r.Kind)
	c.tr.end(sp, nil)
	// Open authority: every reference must be approved.
	if out.Fault != cpu.FaultNone {
		c.expectValue(i, allowed, 0, errFault, uint64(out.Fault))
	}
}

func (a *accessSystem) simCycles() uint64 { return a.m.Cycles() }

func (a *accessSystem) counters(dst map[string]uint64) {
	addCounters(dst, a.m)
}

func (a *accessSystem) boundary(int, *opCtx) {}

func (a *accessSystem) finish(*opCtx) {}
