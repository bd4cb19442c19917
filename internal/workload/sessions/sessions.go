// Package sessions implements the multi-tenant session-churn workload:
// short-lived protection domains arrive (created fresh or forked from a
// long-lived template), touch a few pages of shared segments, and
// depart through DestroyDomain. A single address space operating system
// that hosts sessions this way (Opal's transient protection domains,
// server-per-request isolation) exercises exactly the lifecycle paths
// the steady-state experiments never do: ID allocation and recycling
// under a narrow architectural ID space, copy-on-write protection
// inheritance, destroy-time revocation that must reach every CPU and
// device seat the departing domain's authority touched, and — in the
// page-group model — group-number recycling when private segments come
// and go with their sessions (the Section 4 group-exhaustion concern).
//
// Arrival and lifetime shape are configurable through Burst (sessions
// arriving per step) and MaxLive (the live-population cap; when arrival
// pushes the population over it, uniformly random victims depart), which
// together give anything from strict LIFO churn (Burst=1, MaxLive=1) to
// a deep pool with exponential-ish residual lifetimes.
package sessions

import (
	"fmt"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/kernel"
)

// Config parameterizes the workload.
type Config struct {
	// Sessions is the total number of session create/destroy cycles.
	Sessions int
	// Burst is how many sessions arrive per arrival step (>=1).
	Burst int
	// MaxLive caps the live session population; arrivals above the cap
	// destroy uniformly random victims first (>=1).
	MaxLive int
	// Segments is the number of long-lived shared segments every session
	// attaches (directly, or by fork inheritance).
	Segments int
	// PagesPerSegment sizes each shared segment.
	PagesPerSegment uint64
	// TouchesPerSession is how many random page touches a session makes
	// while live.
	TouchesPerSession int
	// Fork spawns sessions by forking a template domain (attachments
	// inherited, overrides shared copy-on-write) instead of creating
	// empty domains and attaching each segment.
	Fork bool
	// OverrideEvery, when positive, makes every Nth session set a
	// private page override — under Fork this forces the copy-on-write
	// break of the shared override table.
	OverrideEvery int
	// PrivateSegEvery, when positive, gives every Nth session a private
	// segment destroyed with it — the page-group model mints and must
	// recycle group numbers for these.
	PrivateSegEvery int
	// PrivateSegPages sizes private segments (default 4).
	PrivateSegPages uint64
	// PinCPUs spreads sessions round-robin over the kernel's CPUs, so a
	// session's hardware footprint lands on its own CPU and destroy
	// shootdowns must travel.
	PinCPUs bool
	// Seed makes runs reproducible.
	Seed int64
	// OnDestroy, when set, runs after every sampled destroy with the
	// departed domain's ID — the hook the session experiment uses for
	// in-run residual-authority sweeps. Destroys are sampled every
	// DestroySampleEvery departures (0 = every departure).
	OnDestroy          func(id addr.DomainID) error
	DestroySampleEvery int
}

// DefaultConfig returns a modest churn (tests and smoke runs; E18 scales
// Sessions up by orders of magnitude).
func DefaultConfig() Config {
	return Config{
		Sessions:          2000,
		Burst:             4,
		MaxLive:           32,
		Segments:          4,
		PagesPerSegment:   16,
		TouchesPerSession: 8,
		Fork:              true,
		OverrideEvery:     16,
		PrivateSegEvery:   64,
		PrivateSegPages:   4,
		Seed:              1,
	}
}

// Report summarizes a run.
type Report struct {
	// Sessions is the number of completed create/destroy cycles.
	Sessions uint64
	// Forks counts sessions spawned by ForkDomain.
	Forks uint64
	// Touches counts successful page touches.
	Touches uint64
	// PrivateSegments counts per-session segments created and destroyed.
	PrivateSegments uint64
	// PeakLive is the high-water mark of concurrently live sessions
	// (excluding the template).
	PeakLive int
	// DomainIDsRecycled / GroupsRecycled are the kernel's recycling
	// counters over the run — the evidence that 1M sessions fit a 16-bit
	// ID space.
	DomainIDsRecycled, GroupsRecycled uint64
	// CowCopies counts copy-on-write override-table breaks.
	CowCopies uint64
	// DestroyIPIs counts CPU IPIs sent during DestroyDomain calls, and
	// DestroyRemoteSharers the remote seats the directory listed for the
	// dying domains at that moment: the shootdown-scaling assertion is
	// DestroyIPIs <= DestroyRemoteSharers.
	DestroyIPIs, DestroyRemoteSharers uint64
	// KernelCycles and MachineCycles are total cycle advances.
	KernelCycles, MachineCycles uint64
}

// Run executes the workload on k.
func Run(k *kernel.Kernel, cfg Config) (Report, error) {
	if cfg.Sessions < 1 || cfg.Segments < 1 || cfg.PagesPerSegment == 0 {
		return Report{}, fmt.Errorf("sessions: invalid config %+v", cfg)
	}
	if cfg.Burst < 1 {
		cfg.Burst = 1
	}
	if cfg.MaxLive < 1 {
		cfg.MaxLive = 1
	}
	if cfg.PrivateSegPages == 0 {
		cfg.PrivateSegPages = 4
	}

	segs := make([]*kernel.Segment, cfg.Segments)
	for i := range segs {
		segs[i] = k.CreateSegment(cfg.PagesPerSegment,
			kernel.SegmentOptions{Name: fmt.Sprintf("shared%d", i)})
	}
	var template *kernel.Domain
	if cfg.Fork {
		template = k.CreateDomain()
		for _, s := range segs {
			k.Attach(template, s, addr.RW)
		}
		// Seed one rights-neutral override so every fork shares the
		// template's override table copy-on-write; OverrideEvery sessions
		// then pay the break when they diverge.
		if err := k.SetPageRights(template, segs[0].PageVA(0), addr.RW); err != nil {
			return Report{}, fmt.Errorf("sessions: template override: %w", err)
		}
	}

	// Counter handles, resolved once: destroy reads the IPI counters
	// around every departure. A handle alone does not make a counter
	// visible in snapshots.
	ctrs := k.Counters()
	recycled := ctrs.Handle("kernel.domain_ids_recycled")
	groupsRecycled := ctrs.Handle("pg.groups_recycled")
	cow := ctrs.Handle("kernel.cow_override_copies")
	ipis, devIPIs := ctrs.Handle("smp.ipis"), ctrs.Handle("smp.dev_ipis")
	recycledBefore := recycled.Get()
	groupsRecycledBefore := groupsRecycled.Get()
	cowBefore := cow.Get()

	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := Report{}

	type session struct {
		d   *kernel.Domain
		seg *kernel.Segment // private segment, if any
		cpu int
	}
	live := make([]session, 0, cfg.MaxLive)
	born := 0
	died := 0

	destroy := func(s session) error {
		if cfg.PinCPUs && k.NumCPUs() > 1 {
			// Destroy runs from CPU 0 (the "kernel" CPU), so a pinned
			// session's footprint is remote and the shootdown must travel.
			k.SetCPU(0)
		}
		id := s.d.ID
		remote := uint64(0)
		for c := 0; c < k.NumCPUs()+k.NumDevices(); c++ {
			if c != 0 && k.DomainResident(id, c) {
				remote++
			}
		}
		ipisBefore := ipis.Get() + devIPIs.Get()
		if err := k.DestroyDomain(s.d); err != nil {
			return fmt.Errorf("sessions: destroy: %w", err)
		}
		rep.DestroyIPIs += ipis.Get() + devIPIs.Get() - ipisBefore
		rep.DestroyRemoteSharers += remote
		if s.seg != nil {
			if err := k.DestroySegment(s.seg); err != nil {
				return fmt.Errorf("sessions: destroy private segment: %w", err)
			}
		}
		died++
		if cfg.OnDestroy != nil &&
			(cfg.DestroySampleEvery <= 1 || died%cfg.DestroySampleEvery == 0) {
			if err := cfg.OnDestroy(id); err != nil {
				return err
			}
		}
		rep.Sessions++
		return nil
	}

	for born < cfg.Sessions {
		burst := cfg.Burst
		if left := cfg.Sessions - born; burst > left {
			burst = left
		}
		for b := 0; b < burst; b++ {
			// Lifetime: evict uniformly random victims above the cap.
			for len(live) >= cfg.MaxLive {
				i := rng.Intn(len(live))
				victim := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if err := destroy(victim); err != nil {
					return rep, err
				}
			}

			var (
				d   *kernel.Domain
				err error
			)
			if cfg.Fork {
				d, err = k.ForkDomain(template)
				if err != nil {
					return rep, fmt.Errorf("sessions: fork: %w", err)
				}
				rep.Forks++
			} else {
				d, err = k.CreateDomainChecked()
				if err != nil {
					return rep, fmt.Errorf("sessions: create: %w", err)
				}
				for _, s := range segs {
					k.Attach(d, s, addr.RW)
				}
			}
			born++
			s := session{d: d}
			if cfg.PinCPUs && k.NumCPUs() > 1 {
				s.cpu = born % k.NumCPUs()
			}

			if cfg.PrivateSegEvery > 0 && born%cfg.PrivateSegEvery == 0 {
				s.seg = k.CreateSegment(cfg.PrivateSegPages,
					kernel.SegmentOptions{Name: fmt.Sprintf("priv%d", born)})
				k.Attach(d, s.seg, addr.RW)
				rep.PrivateSegments++
			}

			if cfg.PinCPUs && k.NumCPUs() > 1 {
				k.SetCPU(s.cpu)
			}
			touchSegs := segs
			if s.seg != nil {
				touchSegs = append(append([]*kernel.Segment(nil), segs...), s.seg)
			}
			for t := 0; t < cfg.TouchesPerSession; t++ {
				seg := touchSegs[rng.Intn(len(touchSegs))]
				p := uint64(rng.Intn(int(seg.NumPages())))
				if err := k.Touch(d, seg.PageVA(p), addr.Store); err != nil {
					return rep, fmt.Errorf("sessions: touch: %w", err)
				}
				rep.Touches++
			}
			if cfg.OverrideEvery > 0 && born%cfg.OverrideEvery == 0 {
				seg := touchSegs[rng.Intn(len(touchSegs))]
				p := uint64(rng.Intn(int(seg.NumPages())))
				if err := k.SetPageRights(d, seg.PageVA(p), addr.Read); err != nil {
					return rep, fmt.Errorf("sessions: override: %w", err)
				}
			}
			if s.seg != nil {
				// Detach before departure so the private segment can be
				// destroyed with the session.
				if err := k.Detach(d, s.seg); err != nil {
					return rep, fmt.Errorf("sessions: detach private: %w", err)
				}
			}

			live = append(live, s)
			if n := len(live); n > rep.PeakLive {
				rep.PeakLive = n
			}
		}
	}
	// Drain the pool.
	for len(live) > 0 {
		i := rng.Intn(len(live))
		victim := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		if err := destroy(victim); err != nil {
			return rep, err
		}
	}

	rep.DomainIDsRecycled = recycled.Get() - recycledBefore
	rep.GroupsRecycled = groupsRecycled.Get() - groupsRecycledBefore
	rep.CowCopies = cow.Get() - cowBefore
	rep.KernelCycles = k.Cycles()
	rep.MachineCycles = k.Machine().Cycles()
	return rep, nil
}
