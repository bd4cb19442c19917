GO ?= go

.PHONY: all build test race check fmt vet lint loc bench bench-suite bench-hot pairs exp tables golden chaos chaos-short traffic

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector (the DSM/netsim fault
# machinery and the parallel experiment runner must stay race-clean),
# with shuffled test order so inter-test state dependencies surface.
race:
	$(GO) test -race -shuffle=on ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs staticcheck when it is installed; otherwise it prints a
# notice and succeeds, so local `make check` never requires the binary.
# CI installs the pinned version below, so findings still gate merges;
# install the same version locally to see the same findings.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "lint: staticcheck not installed, skipping"; \
		echo "lint: go install honnef.co/go/tools/cmd/staticcheck@2024.1.1"; \
	fi

# loc prints the non-test Go line count outside bench/, the size this
# repository's simplifications are measured by.
loc:
	@git ls-files '*.go' | grep -v '^bench/' | grep -v '_test\.go$$' | xargs cat | wc -l

# check is the CI gate: formatting, static analysis, and the full test
# suite under the race detector.
check: fmt vet lint build race

# bench is the quick smoke sweep: one iteration of every benchmark, so a
# broken benchmark fails fast. Its numbers are NOT comparable between
# runs (one iteration measures mostly warm-up) — use bench-suite for
# before/after timing.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# bench-suite measures BenchmarkRunAllSerial with a fixed iteration count
# and repetition, the configuration to quote when comparing simulator or
# harness changes: -benchtime 3x amortizes warm-up, -count 5 exposes
# run-to-run spread (feed the output to benchstat if installed). Pin CPU
# frequency scaling before trusting small deltas.
bench-suite:
	$(GO) test -bench BenchmarkRunAllSerial -benchtime 3x -count 5 -run '^$$' .

# bench-hot measures the simulator's hot-path micro-benchmarks with
# allocation reporting: warm accesses, and accesses that overflow the
# 128-entry PLB or TLB so every one misses, evicts and refills; a warm
# acknowledged shootdown round to 8 CPUs and 3 device seats
# (BenchmarkShootdownVolley); and a page-group resync re-deriving a
# 16-page segment on that machine (BenchmarkPGResync). All must stay at
# 0 allocs/op (guarded by TestAccessPathZeroAllocs, TestFlushZeroAllocs,
# TestRegroupChurnAllocs and the CI alloc gate).
bench-hot:
	$(GO) test -bench Access -benchmem -run '^$$' .
	$(GO) test -bench 'ShootdownVolley|PGResync' -benchmem -run '^$$' ./internal/smp ./internal/kernel

# pairs runs N alternating pairs of bench/run.sh ARGS, the parent commit
# PARENT against the working tree, flipping which side runs first in
# each pair, then prints bench's compare of the two sides (with CLAIM
# judged as a claimed gain when set):
#   make pairs PARENT=HEAD~1 N=10 ARGS='--workload revoke-dma --seconds 24' CLAIM=ops_per_s.pg@revoke-dma
# Both trees and every run go under one mktemp -d directory.
PARENT ?= HEAD~1
N ?= 10
pairs:
	bash scripts/pairs.sh '$(PARENT)' '$(N)' '$(ARGS)' '$(CLAIM)'

# exp runs one experiment with its in-run assertions and prints its
# tables, the quick view while working on one layer:
#   make exp E=E14   # shootdowns, 1-8 CPUs
#   make exp E=E16   # clustered-mesh scaling to 256 cores
#   make exp E=E17   # device agents: IOTLB shootdown, quarantine, rejoin
#   make exp E=E18   # million-session lifecycle churn
# `go run ./cmd/tablegen -list` lists every experiment. The session-churn
# micro-benchmark runs with
#   go test -bench Churn -benchmem -run '^$' ./internal/workload/sessions
exp:
	@test -n "$(E)" || { echo "usage: make exp E=E<n>"; exit 2; }
	$(GO) run ./cmd/tablegen -e $(E) -v

tables:
	$(GO) run ./cmd/tablegen -parallel 4

# golden rewrites internal/core/testdata/suite.golden: the tables,
# simulated-cycle totals and counters that `go test ./internal/core`
# holds every experiment to. Run it after a deliberate cost-model or
# experiment change and commit the reviewed diff.
golden:
	UPDATE_GOLDEN=1 $(GO) test -count=1 ./internal/core -run TestAllExperimentsRun

# chaos runs the deterministic fault campaign: every experiment under
# every fault scenario, with the shadow protection oracle verifying
# each kernel after hardware recovery. Same seed, byte-identical report.
chaos:
	$(GO) run ./cmd/chaos -seed 1

# chaos-short is the CI-sized campaign (subset of experiments, every
# scenario).
chaos-short:
	$(GO) run ./cmd/chaos -seed 1 -short

# traffic runs every command, example and host-benchmark workload built
# with coverage, and prints the non-test functions none of them reaches
# and the path of the merged profile (about 2 minutes on a 2-vCPU host;
# everything goes under one mktemp -d directory).
traffic:
	GO=$(GO) bash scripts/traffic.sh
