// Package core is the experiment harness of the reproduction: it builds
// systems (kernel + machine) for each protection model, runs identical
// scenarios on them, and regenerates every table of EXPERIMENTS.md — one
// experiment per claim of the paper's Sections 2-4 and one sub-table per
// row of its Table 1.
//
// Experiments are pure functions returning rendered tables, shared
// between cmd/tablegen, the tests that hold every table, cycle total
// and counter to testdata/suite.golden, and the benchmark suite. Each
// experiment constructs its own kernels, machines, and seeded RNGs, so
// the runner (RunExperiments) executes them concurrently while producing
// byte-identical tables at any parallelism.
package core

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/stats"
)

// Models lists the two protection models under comparison, in table
// order.
var Models = []kernel.Model{kernel.ModelDomainPage, kernel.ModelPageGroup}

// NewSystem builds a kernel with the default configuration for model m.
func NewSystem(m kernel.Model) *kernel.Kernel {
	return kernel.New(kernel.DefaultConfig(m))
}

// Experiment identifies one reproducible experiment.
type Experiment struct {
	// ID is the experiment identifier used throughout EXPERIMENTS.md
	// ("E1" ... "E10").
	ID string
	// Title is the experiment's one-line description.
	Title string
	// Source cites the paper section or table the experiment reproduces.
	Source string
	// Run regenerates the experiment's tables, recording simulated
	// cycles and hardware counters on the probe (which may be nil).
	Run func(*Probe) ([]*stats.Table, error)
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Table 1 operation costs, quantified per workload", Source: "Table 1, §4.1", Run: E1Table1},
		{ID: "E2", Title: "PLB organization: hit ratio, sharing duplication, entry size", Source: "Figure 1, §3.2.1, §4.2", Run: E2PLB},
		{ID: "E3", Title: "Page-group check: cache size sweep, PID registers vs LRU cache", Source: "Figure 2, §3.2.2", Run: E3PageGroup},
		{ID: "E4", Title: "Virtually indexed caches: flush traffic, synonyms, homonyms", Source: "§2.2", Run: E4VirtualCache},
		{ID: "E5", Title: "ASID-TLB duplication under sharing", Source: "§3.1", Run: E5TLBDup},
		{ID: "E6", Title: "Domain switch and RPC costs", Source: "§4.1.4", Run: E6Switch},
		{ID: "E7", Title: "Average memory access time: parallel vs sequential check", Source: "§4.2", Run: E7AMAT},
		{ID: "E8", Title: "Protection granularity: sub-page and super-page entries", Source: "§4.3", Run: E8Granularity},
		{ID: "E9", Title: "Paging operation costs", Source: "§4.1.3", Run: E9Paging},
		{ID: "E10", Title: "End-to-end mixed workload", Source: "§6", Run: E10Mixed},
		{ID: "E11", Title: "SASOS kernel on conventional hardware", Source: "§3.1", Run: E11Conventional},
		{ID: "E12", Title: "Translation structures: page sizes and inverted table", Source: "§3.1, §4.3", Run: E12Translation},
		{ID: "E13", Title: "DSM reliability: lossy network and node crash recovery", Source: "Table 1 rows 5-7 under faults", Run: E13Fault},
		{ID: "E14", Title: "Multiprocessor shootdown traffic across organizations", Source: "§4.1.1, §4.1.4", Run: E14Shootdown},
		{ID: "E15", Title: "Fault-tolerant protection maintenance: acknowledged shootdowns under IPI loss and CPU death", Source: "§4.1.1 under faults", Run: E15FaultTolerance},
		{ID: "E16", Title: "Clustered-mesh shootdown scaling: precise sharer targeting from 1 to 256 cores", Source: "§4.1.1, §4.1.4 at scale", Run: E16MeshScaling},
		{ID: "E17", Title: "Device translation agents: IOTLB shootdown cost, quarantine and rejoin across organizations", Source: "§3.2, §4.1.1 for device agents", Run: E17DeviceShootdown},
		{ID: "E18", Title: "Million-session multi-tenant churn: lifecycle, ID recycling and sharer-bounded destroy shootdowns", Source: "§4.1.4 ID exhaustion; Opal sessions", Run: E18SessionChurn},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("core: unknown experiment %q", id)
}
