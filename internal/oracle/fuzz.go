package oracle

import (
	"errors"
	"math/rand"

	"repro/internal/addr"
	"repro/internal/kernel"
)

// TB is the testing surface AuthorityFuzz reports through; *testing.T,
// *testing.F's fuzz-target T, and the chaos runner's adapters satisfy
// it.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
}

// FuzzOptions tune AuthorityFuzz. The zero value runs the default
// campaign: 400 operations with an oracle check every 50.
type FuzzOptions struct {
	// SegOpts are applied to every created segment (e.g. super-page
	// protection shifts).
	SegOpts kernel.SegmentOptions
	// Ops is the number of random protection operations (default 400).
	Ops int
	// CheckEvery runs the full oracle (Violations) every n operations,
	// so divergence is caught mid-run near the operation that caused it,
	// not just in the final sweep (default 50).
	CheckEvery int
}

// AuthorityFuzz drives a kernel built by mk through a random (seeded,
// reproducible) sequence of protection operations — attach, detach,
// segment-wide rights changes, per-page overrides, domain switches,
// loads and stores — while shadowing the expected authority in plain
// maps. It fails t on the first divergence:
//
//   - an access verdict that contradicts the shadow model (the central
//     soundness property: stale hardware state granting revoked rights
//     is a security hole; the other direction is a lost-rights bug),
//   - any oracle violation (Violations) at the periodic mid-run checks
//     and after the final sweep.
//
// This is the engine behind the kernel's hardware-matches-authority
// invariant tests across all four machine organizations.
func AuthorityFuzz(t TB, seed int64, mk func() *kernel.Kernel, opts FuzzOptions) {
	t.Helper()
	if opts.Ops <= 0 {
		opts.Ops = 400
	}
	if opts.CheckEvery <= 0 {
		opts.CheckEvery = 50
	}
	rng := rand.New(rand.NewSource(seed))
	k := mk()
	// On a multiprocessor kernel the fuzz stream interleaves CPU
	// migrations, so shootdown delivery to every CPU's private
	// structures is exercised; Violations then audits each CPU's
	// resident entries. The guard consumes no RNG draws on a
	// uniprocessor, so existing single-CPU streams are unchanged.
	ncpu := k.NumCPUs()

	const (
		nDomains  = 4
		nSegments = 3
		segPages  = 6
	)
	domains := make([]*kernel.Domain, nDomains)
	for i := range domains {
		domains[i] = k.CreateDomain()
	}
	segments := make([]*kernel.Segment, nSegments)
	for i := range segments {
		segments[i] = k.CreateSegment(segPages, opts.SegOpts)
	}
	rightsChoices := []addr.Rights{addr.None, addr.Read, addr.RW}

	// The shadow model: what the kernel tables should say. Keyed by
	// (domain index, segment index, page index); absent = no override
	// (attachment rights apply).
	type key struct{ d, s, p int }
	attach := map[[2]int]addr.Rights{} // (d,s) -> rights; absent = detached
	override := map[key]addr.Rights{}

	expected := func(d, s, p int) (addr.Rights, bool) {
		if r, ok := override[key{d, s, p}]; ok {
			return r, true
		}
		r, ok := attach[[2]int{d, s}]
		return r, ok
	}

	check := func(i int) {
		if vs := Violations(k); len(vs) > 0 {
			t.Fatalf("seed %d op %d: oracle violation: %s (and %d more)",
				seed, i, vs[0], len(vs)-1)
		}
	}

	for i := 0; i < opts.Ops; i++ {
		if ncpu > 1 && rng.Intn(4) == 0 {
			k.SetCPU(rng.Intn(ncpu))
		}
		d := rng.Intn(nDomains)
		s := rng.Intn(nSegments)
		p := rng.Intn(segPages)
		dom, seg := domains[d], segments[s]
		va := seg.PageVA(uint64(p))

		switch rng.Intn(10) {
		case 0, 1: // attach / re-attach with random rights
			r := rightsChoices[rng.Intn(len(rightsChoices))]
			if _, attached := attach[[2]int{d, s}]; attached {
				// Re-attach == segment-wide rights change.
				if err := k.SetSegmentRights(dom, seg, r); err != nil {
					t.Fatalf("seed %d op %d: SetSegmentRights: %v", seed, i, err)
				}
				// Segment-wide change clears the domain's overrides.
				for pp := 0; pp < segPages; pp++ {
					delete(override, key{d, s, pp})
				}
			} else {
				k.Attach(dom, seg, r)
			}
			attach[[2]int{d, s}] = r
		case 2: // detach
			if _, attached := attach[[2]int{d, s}]; attached {
				if err := k.Detach(dom, seg); err != nil {
					t.Fatalf("seed %d op %d: Detach: %v", seed, i, err)
				}
				delete(attach, [2]int{d, s})
				for pp := 0; pp < segPages; pp++ {
					delete(override, key{d, s, pp})
				}
			}
		case 3, 4: // per-page rights override
			if _, attached := attach[[2]int{d, s}]; !attached {
				break
			}
			r := rightsChoices[rng.Intn(len(rightsChoices))]
			if err := k.SetPageRights(dom, va, r); err != nil {
				if errors.Is(err, kernel.ErrUnrepresentable) {
					// The page-group model cannot express some vectors;
					// the kernel must refuse rather than misenforce.
					break
				}
				t.Fatalf("seed %d op %d: SetPageRights: %v", seed, i, err)
			}
			override[key{d, s, p}] = r
		case 5: // clear override
			if _, attached := attach[[2]int{d, s}]; !attached {
				break
			}
			if err := k.ClearPageRights(dom, va); err != nil {
				if errors.Is(err, kernel.ErrUnrepresentable) {
					break
				}
				t.Fatalf("seed %d op %d: ClearPageRights: %v", seed, i, err)
			}
			delete(override, key{d, s, p})
		case 6: // switch domains (stresses residual state)
			k.Switch(domains[rng.Intn(nDomains)])
		default: // access
			kind := addr.Load
			if rng.Intn(2) == 0 {
				kind = addr.Store
			}
			err := k.Touch(dom, va, kind)
			want, attached := expected(d, s, p)
			if !attached {
				want = addr.None
			}
			if want.Allows(kind) {
				if err != nil {
					t.Fatalf("seed %d op %d: %v by d%d at seg%d page%d denied (authority %v): %v",
						seed, i, kind, d, s, p, want, err)
				}
			} else {
				if err == nil {
					t.Fatalf("seed %d op %d: %v by d%d at seg%d page%d ALLOWED despite authority %v (stale hardware rights)",
						seed, i, kind, d, s, p, want)
				}
				if !errors.Is(err, kernel.ErrProtection) {
					t.Fatalf("seed %d op %d: wrong denial: %v", seed, i, err)
				}
			}
		}
		if (i+1)%opts.CheckEvery == 0 {
			check(i)
		}
	}

	// Final sweep: check every (domain, page) both ways.
	for d, dom := range domains {
		for s, seg := range segments {
			for p := 0; p < segPages; p++ {
				va := seg.PageVA(uint64(p))
				want, attached := expected(d, s, p)
				if !attached {
					want = addr.None
				}
				for _, kind := range []addr.AccessKind{addr.Load, addr.Store} {
					err := k.Touch(dom, va, kind)
					if want.Allows(kind) && err != nil {
						t.Fatalf("seed %d sweep: %v by d%d seg%d page%d denied (authority %v): %v",
							seed, kind, d, s, p, want, err)
					}
					if !want.Allows(kind) && err == nil {
						t.Fatalf("seed %d sweep: %v by d%d seg%d page%d allowed despite authority %v",
							seed, kind, d, s, p, want)
					}
				}
			}
		}
	}
	check(opts.Ops)
}
