package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// verdict is compare's judgement of one (metric, workload) pairing.
type verdict string

const (
	verdictGain       verdict = "gain"
	verdictNotMet     verdict = "claim not met"
	verdictOK         verdict = "ok"
	verdictRegression verdict = "regression"
	verdictUnresolved verdict = "unresolved"
	verdictInfo       verdict = "-" // a metric without a bound
)

// judge applies the gain rule to a claimed pairing and the no-regression
// rule to every other one. parent[i] and change[i] are the i-th pair of
// runs; better is "higher" or "lower"; bound is the share of the parent's
// median by which the metric may worsen.
//
// A claim holds when the change wins at least 9 of 10 pairs (ties count
// for neither) and the medians differ, in the change's favour, by more
// than the parent's interquartile range. Any other pairing is ok when the
// change's median is no worse than the parent's by more than the bound,
// and unresolved when either side's spread exceeds the bound, unless every
// change run beats every parent run.
func judge(parent, change []float64, better string, bound float64, claimed bool) verdict {
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	pm, cm := median(parent), median(change)
	if claimed {
		n := min(len(parent), len(change))
		wins := 0
		for i := 0; i < n; i++ {
			if sign*(change[i]-parent[i]) > 0 {
				wins++
			}
		}
		q1, _, q3 := quartiles(parent)
		if n > 0 && 10*wins >= 9*n && sign*(cm-pm) > q3-q1 {
			return verdictGain
		}
		return verdictNotMet
	}
	if spread(parent) > bound || spread(change) > bound {
		if allBetter(parent, change, sign) {
			return verdictOK
		}
		return verdictUnresolved
	}
	if sign*(pm-cm) <= bound*math.Abs(pm) {
		return verdictOK
	}
	return verdictRegression
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q3 == q1 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func allBetter(parent, change []float64, sign float64) bool {
	if len(parent) == 0 || len(change) == 0 {
		return false
	}
	for _, c := range change {
		for _, p := range parent {
			if sign*(c-p) <= 0 {
				return false
			}
		}
	}
	return true
}

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// claimList collects repeated -claim METRIC@WORKLOAD flags.
type claimList map[string]bool

func (c claimList) String() string { return fmt.Sprint(map[string]bool(c)) }

func (c claimList) Set(v string) error {
	if !strings.Contains(v, "@") {
		return fmt.Errorf("claim %q is not METRIC@WORKLOAD", v)
	}
	c[v] = true
	return nil
}

// side holds one side's samples: workload -> metric -> values in run order.
type side map[string]map[string][]float64

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	claims := claimList{}
	fs.Var(claims, "claim", "METRIC@WORKLOAD on which the change claims a gain (repeatable)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: bench compare [-bench FILE] [-claim METRIC@WORKLOAD]... PARENT_GLOB CHANGE_GLOB")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	var spec benchSpec
	data, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	parent, err := loadSide(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	change, err := loadSide(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}

	type rule struct {
		better string
		bound  float64
	}
	rules := map[string]rule{}
	for _, m := range spec.EndToEnd {
		rules[m.Name] = rule{m.Better, m.Bound}
	}
	bad := 0
	fmt.Printf("%-14s %-26s %-44s %-44s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "verdict")
	for _, w := range sortedKeys(parent) {
		for _, m := range sortedKeys(parent[w]) {
			p, c := parent[w][m], change[w][m]
			if len(c) == 0 {
				continue
			}
			v := verdictInfo
			if r, ok := rules[m]; ok {
				v = judge(p, c, r.better, r.bound, claims[m+"@"+w])
			}
			if v == verdictRegression || v == verdictNotMet {
				bad++
			}
			fmt.Printf("%-14s %-26s %-44s %-44s %s\n", w, m, summary(p), summary(c), v)
		}
	}
	for cl := range claims {
		m, w, _ := strings.Cut(cl, "@")
		if len(parent[w][m]) == 0 || len(change[w][m]) == 0 {
			fmt.Printf("claim %s: no runs on one side\n", cl)
			bad++
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func summary(v []float64) string {
	q1, q2, q3 := quartiles(v)
	return fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", q2, q1, q3, len(v))
}

// loadSide reads every record of the JSON-lines files matching pattern,
// files in name order.
func loadSide(pattern string) (side, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no files match %q", pattern)
	}
	sort.Strings(files)
	s := side{}
	for _, f := range files {
		if err := s.load(f); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s side) load(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if s[rec.Workload] == nil {
			s[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			s[rec.Workload][name] = append(s[rec.Workload][name], m.Value)
		}
	}
	return sc.Err()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
