// Command bench is the host-performance benchmark of the simulator. It
// runs four seeded workloads, each on all four hardware organizations
// (PLB, page-group, conventional ASID, flush), and checks every op's
// outcome. An untraced run prints the end-to-end metrics; a traced run
// (--trace 1) prints the per-layer metrics. See README.md.
//
//	bash bench/run.sh --workload rpc-portal --seed 1 --seconds 24 --trace 0
//	bash bench/run.sh compare [-claim METRIC@WORKLOAD] PARENT_GLOB CHANGE_GLOB
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

var workloads = []*workload{&accessReplay, &sessionChurn, &rpcPortal, &revokeDMA}

// result is the line the benchmark prints last for one workload.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is a result with what produced it, as -o writes it and compare
// reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	result
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run ("+strings.Join(names, ", ")+") or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 24, fmt.Sprintf("timed work: %d batches per organization per second", batchesPerSecond))
	traced := fs.Int("trace", 0, "1 traces every other timed batch and prints the per-layer metrics")
	spans := fs.String("spans", "", "on a traced run, write every 1024th op's span tree to this file")
	out := fs.String("o", "", "append each workload's result record to this file (JSON lines)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: want --trace 0 or 1, --seconds >= 1 and no positional arguments")
		return 2
	}
	var run []*workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	code := 0
	var trees []spanTree
	for _, w := range run {
		sz := sizes{batch: w.batch, warmup: warmupBatches, timed: batchesPerSecond * *seconds}
		rep := runWorkload(w, *seed, sz, *traced == 1, *spans != "")
		rep.print(os.Stderr)
		trees = append(trees, rep.trees...)
		rec := record{Workload: w.name, Seed: *seed, Traced: *traced == 1, result: result{
			Correct: rep.correct(), Attempted: rep.attempted, Failed: rep.chk.failedOps,
		}}
		if rec.Traced {
			rec.Metrics = rep.perLayer()
		} else {
			rec.Metrics = rep.endToEnd()
		}
		if !rec.Correct {
			code = 1
		}
		var line any = rec.result
		if len(run) > 1 {
			line = rec
		}
		data, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		fmt.Println(string(data))
	}
	if *spans != "" {
		if err := writeTrees(*spans, trees); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

func appendRecord(path string, rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
