package core

import (
	"fmt"
	"hash/fnv"

	"repro/internal/addr"
	"repro/internal/kernel"
	"repro/internal/oracle"
	"repro/internal/stats"
	"repro/internal/workload/sessions"
)

// E18 session-cycle scale. The churn table drives every protection
// organization through e18ChurnSessions create/destroy cycles — the
// million-session multi-tenant scenario the lifecycle work exists for —
// so the counts here are the experiment's headline numbers, not a smoke
// setting. The scale table is smaller: it only needs enough departures
// per CPU for the sharer-directory targeting ratios to be meaningful.
const (
	e18ChurnSessions = 1_000_000
	e18ScaleSessions = 12_000
	// e18SweepEvery samples in-run oracle destroy sweeps: every Nth
	// departure is followed by a full residual-authority scan of kernel
	// tables, sharer directory and hardware caches. Prime, so the sample
	// is not phase-locked to burst or private-segment cadence.
	e18SweepEvery = 4099
)

// e18Seed derives a deterministic per-cell seed so adding models or
// cells never shifts another cell's streams.
func e18Seed(m kernel.Model, cell string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "E18/%s/%s", m, cell)
	return int64(h.Sum64())
}

// e18ChurnConfig is the million-session shape: sessions arrive in small
// bursts by forking a long-lived template (attachments inherited, the
// override table shared copy-on-write), touch a couple of shared pages,
// and depart. Every 128th session carries a private segment destroyed
// with it — the page-group model must mint and recycle a group number
// for each — and every 256th diverges an override, forcing the
// copy-on-write break.
func e18ChurnConfig(m kernel.Model) sessions.Config {
	return sessions.Config{
		Sessions:           e18ChurnSessions,
		Burst:              4,
		MaxLive:            32,
		Segments:           2,
		PagesPerSegment:    8,
		TouchesPerSession:  2,
		Fork:               true,
		OverrideEvery:      256,
		PrivateSegEvery:    128,
		PrivateSegPages:    2,
		Seed:               e18Seed(m, "churn"),
		DestroySampleEvery: e18SweepEvery,
	}
}

// E18SessionChurn is the multi-tenant lifecycle experiment: millions of
// short-lived protection domains over a 16-bit domain-ID space (the
// paper's domain identifiers are architectural fields — ASIDs, PLB
// domain tags, PA-RISC access IDs — and are narrow). Two tables:
//
// Churn — each organization runs 1,000,000 session create/destroy
// cycles on one CPU. In-run contracts:
//
//   - Zero residual authority: a sampled oracle sweep after every
//     e18SweepEvery-th destroy walks kernel tables, the sharer
//     directory and PLB/TLB/checker state for the dead ID and must
//     find nothing.
//   - ID recycling carries the load: one million sessions cannot mint
//     one million DomainIDs; all but the live-population's worth of
//     creations must be recycled IDs (and for the page-group model,
//     private segments must recycle group numbers the same way).
//   - Copy-on-write forks: the shared override table breaks only for
//     the sessions that actually diverge.
//
// Scale — the same churn pinned round-robin across 8 CPUs, destroys
// issued from CPU 0. Contract: destroy-time shootdown traffic is
// bounded by what the sharer directory lists — IPIs per destroy track
// the dying domain's actual remote footprint (at most one seat here),
// never the machine's CPU count.
func E18SessionChurn(p *Probe) ([]*stats.Table, error) {
	churn := stats.NewTable("E18 Session churn: 1M create/destroy cycles per organization",
		"model", "sessions", "forks", "ids recycled", "groups recycled",
		"cow copies", "sweeps", "peak live", "cycles/session")
	for _, m := range SMPModels {
		cfg := kernel.DefaultConfig(m)
		k, err := kernel.NewChecked(cfg)
		if err != nil {
			return nil, fmt.Errorf("core: E18 churn %v: %w", m, err)
		}
		wcfg := e18ChurnConfig(m)
		sweeps := 0
		wcfg.OnDestroy = func(id addr.DomainID) error {
			sweeps++
			return oracle.VerifyDestroyed(k, id)
		}
		rep, err := sessions.Run(k, wcfg)
		if err != nil {
			return nil, fmt.Errorf("core: E18 churn %v: %w", m, err)
		}
		if rep.Sessions != uint64(wcfg.Sessions) {
			return nil, fmt.Errorf("core: E18 churn %v: %d of %d sessions completed", m, rep.Sessions, wcfg.Sessions)
		}
		if sweeps == 0 {
			return nil, fmt.Errorf("core: E18 churn %v: no destroy sweeps sampled", m)
		}
		if rep.PeakLive > wcfg.MaxLive {
			return nil, fmt.Errorf("core: E18 churn %v: peak live %d exceeds cap %d", m, rep.PeakLive, wcfg.MaxLive)
		}
		// All but the concurrently-live population (plus the template's
		// fresh mint) must be recycled IDs — the 16-bit space never runs.
		if floor := rep.Sessions - uint64(wcfg.MaxLive) - 2; rep.DomainIDsRecycled < floor {
			return nil, fmt.Errorf("core: E18 churn %v: only %d of >=%d IDs recycled",
				m, rep.DomainIDsRecycled, floor)
		}
		if rep.CowCopies == 0 {
			return nil, fmt.Errorf("core: E18 churn %v: diverging sessions never broke the shared override table", m)
		}
		if m == kernel.ModelPageGroup && rep.GroupsRecycled == 0 {
			return nil, fmt.Errorf("core: E18 churn page-group: private segments never recycled a group number")
		}
		if live := k.LiveDomains(); live > 1 {
			return nil, fmt.Errorf("core: E18 churn %v: %d domains live after drain (want template only)", m, live)
		}
		p.ObserveKernel(k)
		churn.AddRow(m.String(), rep.Sessions, rep.Forks,
			rep.DomainIDsRecycled, rep.GroupsRecycled, rep.CowCopies,
			sweeps, rep.PeakLive,
			fmt.Sprintf("%.1f", float64(rep.KernelCycles+rep.MachineCycles)/float64(rep.Sessions)))
	}
	churn.AddNote("uniprocessor; sessions fork a template, touch shared pages, and depart; every 128th carries a private segment, every 256th diverges an override")
	churn.AddNote(fmt.Sprintf("sweeps = sampled in-run oracle destroy scans (every %d departures), each asserting zero residual authority for the dead ID", e18SweepEvery))

	scale := stats.NewTable("E18 Destroy shootdowns scale with sharers, not CPUs",
		"model", "cpus", "sessions", "remote sharers", "destroy ipis",
		"ipis/destroy", "sharers/destroy")
	for _, m := range SMPModels {
		cfg := kernel.DefaultConfig(m)
		cfg.CPUs = 8
		k, err := kernel.NewChecked(cfg)
		if err != nil {
			return nil, fmt.Errorf("core: E18 scale %v: %w", m, err)
		}
		wcfg := e18ChurnConfig(m)
		wcfg.Sessions = e18ScaleSessions
		wcfg.PinCPUs = true
		wcfg.Seed = e18Seed(m, "scale")
		wcfg.DestroySampleEvery = 0
		rep, err := sessions.Run(k, wcfg)
		if err != nil {
			return nil, fmt.Errorf("core: E18 scale %v: %w", m, err)
		}
		if rep.DestroyRemoteSharers == 0 {
			return nil, fmt.Errorf("core: E18 scale %v: pinned sessions left no remote footprint to withdraw", m)
		}
		// The sharer-directory claim: shootdowns on destroy are bounded
		// by the directory's listing. 8 CPUs would mean up to 7 IPIs per
		// destroy if targeting were broadcast; pinned sessions occupy one
		// remote seat, and the IPI count must respect that.
		if rep.DestroyIPIs > rep.DestroyRemoteSharers {
			return nil, fmt.Errorf("core: E18 scale %v: %d destroy IPIs exceed %d directory-listed remote sharers",
				m, rep.DestroyIPIs, rep.DestroyRemoteSharers)
		}
		p.ObserveKernel(k)
		scale.AddRow(m.String(), cfg.CPUs, rep.Sessions,
			rep.DestroyRemoteSharers, rep.DestroyIPIs,
			fmt.Sprintf("%.2f", float64(rep.DestroyIPIs)/float64(rep.Sessions)),
			fmt.Sprintf("%.2f", float64(rep.DestroyRemoteSharers)/float64(rep.Sessions)))
	}
	scale.AddNote("sessions pinned round-robin over 8 CPUs, destroys issued from CPU 0: a broadcast design would send 7 IPIs per destroy; directory targeting sends at most one per listed seat")
	return []*stats.Table{churn, scale}, nil
}
