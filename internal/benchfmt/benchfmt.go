// Package benchfmt defines the machine-readable benchmark report the
// regression pipeline exchanges: BENCH_report.json produced by
// cmd/benchreport after a full experiment sweep, and the comparison
// logic that gates CI on it.
//
// A report records, per experiment, the host wall time and the total
// simulated cycles plus key hardware counters its probe observed. The
// regression gate compares simulated cycles, which are fully
// deterministic — the same source tree produces the same cycle counts on
// any host — so a committed baseline is portable and a threshold breach
// always means the modeled system changed, never that CI hardware was
// noisy. Wall time is recorded for throughput tracking but is gated
// separately (opt-in) for exactly that reason.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// SchemaVersion identifies the report layout; bump on incompatible
// change.
const SchemaVersion = 1

// Host describes where a report was generated.
type Host struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
}

// Experiment is one experiment's measurements.
type Experiment struct {
	ID        string  `json:"id"`
	Title     string  `json:"title"`
	WallMS    float64 `json:"wall_ms"`
	SimCycles uint64  `json:"sim_cycles"`
	// Counters holds the key hardware counters (see FilterKey).
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// Report is the top-level BENCH_report.json document.
type Report struct {
	SchemaVersion  int          `json:"schema_version"`
	GeneratedAt    string       `json:"generated_at,omitempty"`
	Host           Host         `json:"host"`
	Parallelism    int          `json:"parallelism"`
	TotalWallMS    float64      `json:"total_wall_ms"`
	TotalSimCycles uint64       `json:"total_sim_cycles"`
	Experiments    []Experiment `json:"experiments"`
}

// ByID returns the experiment with the given id, if present.
func (r *Report) ByID(id string) (Experiment, bool) {
	for _, e := range r.Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Encode writes the report as indented JSON.
func Encode(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Decode reads and validates a report.
func Decode(rd io.Reader) (*Report, error) {
	var r Report
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("benchfmt: decode: %w", err)
	}
	if r.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("benchfmt: schema version %d, want %d", r.SchemaVersion, SchemaVersion)
	}
	seen := make(map[string]bool, len(r.Experiments))
	for i, e := range r.Experiments {
		if e.ID == "" {
			return nil, fmt.Errorf("benchfmt: experiment %d has empty id", i)
		}
		if seen[e.ID] {
			return nil, fmt.Errorf("benchfmt: duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	return &r, nil
}

// WriteFile writes the report to path.
func WriteFile(path string, r *Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Encode(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads and validates the report at path.
func ReadFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// keyCounterPrefixes selects the hardware counters worth tracking per
// experiment: access and hit/miss traffic of every protection and
// translation structure, switch and trap activity, faults, and
// network/reliability totals.
var keyCounterPrefixes = []string{
	"access.", "cache.", "plb.", "pgc.", "pgtlb.", "tlb.",
	"switch.", "trap.", "fault.", "net.", "reliable.",
}

// FilterKey returns the subset of counters the report records.
func FilterKey(snap map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64)
	for name, v := range snap {
		for _, pre := range keyCounterPrefixes {
			if strings.HasPrefix(name, pre) {
				out[name] = v
				break
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Delta is one per-experiment comparison against a baseline.
type Delta struct {
	ID string
	// Base and Cur are simulated-cycle totals (or wall ms scaled by
	// 1000, for the wall-time gate).
	Base, Cur uint64
	// Pct is the signed percentage change from Base to Cur.
	Pct float64
	// Regressed reports whether Pct exceeds the gate threshold.
	Regressed bool
	// Note flags structural differences (new experiment, missing from
	// the current run).
	Note string
}

// Compare gates cur against base: for every baseline experiment, the
// simulated-cycle total may grow by at most thresholdPct percent.
// Experiments missing from the current run are regressions (lost
// coverage); experiments new in cur are reported but never fail the
// gate. Deltas come back sorted by experiment id, worst regressions
// flagged.
func Compare(base, cur *Report, thresholdPct float64) ([]Delta, bool) {
	var deltas []Delta
	regressed := false
	for _, be := range base.Experiments {
		ce, ok := cur.ByID(be.ID)
		if !ok {
			deltas = append(deltas, Delta{ID: be.ID, Base: be.SimCycles,
				Regressed: true, Note: "missing from current run"})
			regressed = true
			continue
		}
		d := Delta{ID: be.ID, Base: be.SimCycles, Cur: ce.SimCycles, Pct: pctChange(be.SimCycles, ce.SimCycles)}
		if d.Pct > thresholdPct {
			d.Regressed = true
			regressed = true
		}
		deltas = append(deltas, d)
	}
	for _, ce := range cur.Experiments {
		if _, ok := base.ByID(ce.ID); !ok {
			deltas = append(deltas, Delta{ID: ce.ID, Cur: ce.SimCycles, Note: "new experiment (no baseline)"})
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].ID < deltas[j].ID })
	return deltas, regressed
}

// CompareWall applies the same gate to wall time (milliseconds). Wall
// time is host-dependent and noisy, so this gate is opt-in and should
// use a generous threshold.
func CompareWall(base, cur *Report, thresholdPct float64) ([]Delta, bool) {
	var deltas []Delta
	regressed := false
	for _, be := range base.Experiments {
		ce, ok := cur.ByID(be.ID)
		if !ok {
			continue // the cycle gate already reports missing experiments
		}
		b, c := uint64(be.WallMS*1000), uint64(ce.WallMS*1000)
		d := Delta{ID: be.ID, Base: b, Cur: c, Pct: pctChange(b, c)}
		if d.Pct > thresholdPct {
			d.Regressed = true
			regressed = true
		}
		deltas = append(deltas, d)
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].ID < deltas[j].ID })
	return deltas, regressed
}

func pctChange(base, cur uint64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return 100
	}
	return 100 * (float64(cur) - float64(base)) / float64(base)
}
