package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// tiny is small enough that all four workloads on all four organizations
// run in well under a second.
var tiny = sizes{batch: 16, warmup: 2, timed: 8}

func simMetrics(m map[string]metric) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		if strings.HasPrefix(k, "sim") {
			out[k] = v.Value
		}
	}
	return out
}

func TestWorkloadsRepeatAndPass(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := runWorkload(w, 1, tiny, false, false)
			b := runWorkload(w, 1, tiny, false, false)
			tr := runWorkload(w, 1, tiny, true, true)
			for _, r := range []*report{a, b, tr} {
				if !r.correct() || r.attempted == 0 {
					t.Fatalf("run not correct: %d of %d ops failed, %d checks failed: %v",
						r.chk.failedOps, r.attempted, r.chk.failedChecks, r.chk.notes)
				}
			}
			simA, simB, simT := simMetrics(a.endToEnd()), simMetrics(b.endToEnd()), simMetrics(tr.endToEnd())
			if len(simA) != len(orgs) {
				t.Fatalf("want one sim_cycles_per_op per organization, got %v", simA)
			}
			for k, v := range simA {
				if v <= 0 || simB[k] != v || simT[k] != v {
					t.Errorf("%s: %v, again %v, traced %v", k, v, simB[k], simT[k])
				}
			}
			again := runWorkload(w, 1, tiny, true, false)
			for k, v := range simMetrics(tr.perLayer()) {
				if got := simMetrics(again.perLayer())[k]; got != v {
					t.Errorf("traced %s: %v, again %v", k, v, got)
				}
			}
		})
	}
}

// TestLayersSeparate checks which layers each workload reaches: the
// property that lets a change to one layer show on one workload and not
// on another. A tiny run may miss rare calls, so only the layers a
// workload exists to drive must be reached.
func TestLayersSeparate(t *testing.T) {
	for _, tc := range []struct {
		workload  string
		must, may []string
	}{
		{"access-replay", []string{"machine"}, nil},
		{"session-churn", []string{"kernel.lifecycle", "kernel.touch"}, []string{"kernel.vaspace", "kernel.engine", "oracle"}},
		{"rpc-portal", []string{"kernel.touch"}, []string{"oracle"}},
		{"revoke-dma", []string{"kernel.engine", "smp", "iommu"}, []string{"kernel.vaspace", "kernel.touch", "kernel.paging", "oracle"}},
	} {
		var w *workload
		for _, x := range workloads {
			if x.name == tc.workload {
				w = x
			}
		}
		pl := runWorkload(w, 1, tiny, true, false).perLayer()
		allowed := map[string]bool{"driver": true}
		for _, l := range append(tc.must, tc.may...) {
			allowed[l] = true
		}
		for _, l := range tc.must {
			if pl[l+".calls"].Value == 0 {
				t.Errorf("%s never reached %s", tc.workload, l)
			}
		}
		for _, l := range layerNames {
			if calls := pl[l+".calls"].Value; !allowed[l] && calls > 0 {
				t.Errorf("%s reached %s %v times", tc.workload, l, calls)
			}
		}
	}
}

func TestScriptHash(t *testing.T) {
	for _, w := range workloads {
		ops := tiny.ops()
		a, b, c := w.gen(1, ops).hash(), w.gen(1, ops).hash(), w.gen(2, ops).hash()
		if a != b {
			t.Errorf("%s: seed 1 gave scripts %#x and %#x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same script %#x", w.name, a)
		}
	}
}

func TestSelfTime(t *testing.T) {
	for _, tc := range []struct {
		name   string
		parent interval
		kids   []interval
		want   int64
	}{
		{"no children", interval{0, 100}, nil, 100},
		{"disjoint", interval{0, 100}, []interval{{60, 70}, {10, 20}}, 80},
		{"overlapping", interval{0, 100}, []interval{{10, 40}, {30, 50}, {45, 60}}, 50},
		{"nested", interval{0, 100}, []interval{{10, 90}, {20, 30}}, 20},
		{"sticking out", interval{10, 100}, []interval{{0, 20}, {90, 120}}, 70},
		{"touching", interval{0, 100}, []interval{{0, 50}, {50, 100}}, 0},
		{"outside", interval{0, 100}, []interval{{100, 120}}, 100},
	} {
		if got := selfTime(tc.parent, tc.kids); got != tc.want {
			t.Errorf("%s: self %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{19, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {1024, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		q := tailQuantile(tc.n)
		if q != tc.want {
			t.Errorf("n=%d: quantile %v, want %v", tc.n, q, tc.want)
		}
		if beyond := tc.n - nearestRank(q, tc.n); tc.n >= 20 && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", tc.n, beyond, 100*q)
		}
	}
	v := make([]float64, 1024)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := tail(v); got != 1014 {
		t.Errorf("p99 of 1..1024 = %v, want 1014 (10 samples beyond)", got)
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(tc.v)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.v, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	ten := func(base, step float64) []float64 {
		v := make([]float64, 10)
		for i := range v {
			v[i] = base + step*float64(i%5)
		}
		return v
	}
	parent := ten(100, 1) // median 102, IQR 2.5
	ties := ten(110, 1)
	ties[8], ties[9] = parent[8], parent[9]
	for _, tc := range []struct {
		name    string
		change  []float64
		better  string
		claimed bool
		want    verdict
	}{
		{"clear gain", ten(110, 1), "higher", true, verdictGain},
		{"gain on a lower-is-better metric", ten(90, 1), "lower", true, verdictGain},
		{"wins every pair but within the parent IQR", ten(101.5, 1), "higher", true, verdictNotMet},
		{"ties count for neither", ties, "higher", true, verdictNotMet},
		{"no worse", ten(99, 1), "higher", false, verdictOK},
		{"worse beyond the bound", ten(80, 1), "higher", false, verdictRegression},
		{"worse within the bound", ten(97, 1), "higher", false, verdictOK},
		{"spread wider than the bound", ten(60, 20), "higher", false, verdictUnresolved},
		{"wide spread but every run better", ten(200, 20), "higher", false, verdictOK},
	} {
		if got := judge(parent, tc.change, tc.better, 0.05, tc.claimed); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	// Nine wins in ten pairs is enough; eight is not.
	nine := ten(110, 1)
	nine[0] = parent[0]
	if got := judge(parent, nine, "higher", 0.05, true); got != verdictGain {
		t.Errorf("nine wins of ten: %s, want gain", got)
	}
	eight := append([]float64(nil), nine...)
	eight[1] = parent[1] - 1
	if got := judge(parent, eight, "higher", 0.05, true); got != verdictNotMet {
		t.Errorf("eight wins of ten: %s, want %s", got, verdictNotMet)
	}
	if s := spread([]float64{1, 1, 1}); s != 0 || math.IsNaN(s) {
		t.Errorf("spread of equal samples = %v", s)
	}
}

// TestBenchmarkSpec keeps BENCHMARK.json in step with what the benchmark
// prints: the same workloads, and every metric with the same unit.
func TestBenchmarkSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	type spec struct {
		Name, Unit string
	}
	var raw struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []spec                  `json:"end_to_end"`
		PerLayer  []spec                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(raw.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if raw.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, raw.Workloads[i].Name, w.name)
		}
	}
	rep := runWorkload(&accessReplay, 1, tiny, true, false)
	for _, side := range []struct {
		listed []spec
		got    map[string]metric
	}{{raw.EndToEnd, rep.endToEnd()}, {raw.PerLayer, rep.perLayer()}} {
		if len(side.listed) != len(side.got) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(side.listed), len(side.got))
		}
		for _, m := range side.listed {
			if got, ok := side.got[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: listed in %s, printed as %+v (present %v)", m.Name, m.Unit, got, ok)
			}
		}
	}
}
