#!/usr/bin/env bash
# Runs the production traffic under coverage and lists the non-test
# functions it never reaches: every command, every example and the host
# benchmark, built with -cover over every package of the module. A
# function at 0.0% is code no user-facing run executes; read the merged
# profile (its path is printed last) for blocks inside covered functions.
#
#   make traffic
#
# Everything it writes (binaries, traces, coverage data) goes under one
# mktemp -d directory; the merged profile stays there.
set -euo pipefail

GO="${GO:-go}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
dir="$(mktemp -d)"
bin="$dir/bin"
mkdir -p "$bin" "$dir/cov"
export GOCOVERDIR="$dir/cov"

"$GO" -C "$root" build -cover -coverpkg=repro/... -o "$bin/" ./cmd/... ./examples/...
"$GO" -C "$root/bench" build -cover -coverpkg=repro/... -o "$bin/bench" .

run() {
	echo "+ ${*#"$bin/"}"
	(cd "$dir" && "$@" >/dev/null)
}

run "$bin/tablegen" -parallel 1
run "$bin/chaos" -seed 1
for m in domain-page page-group conventional flush; do
	for w in attach gc dsm txn checkpoint compress rpc shootdown devio; do
		run "$bin/sasosim" -workload "$w" -model "$m" -cpus 4
	done
	run "$bin/sasosim" -workload sessions -model "$m" -cpus 4 -sessions 20000
	run "$bin/sasosim" -workload sessions -model "$m" -cpus 4 -sessions 20000 -fork=false
	run "$bin/sasosim" -workload checkpoint -model "$m" -cpus 4 -incremental
	run "$bin/sasosim" -workload shootdown -model "$m" -cpus 4 -ipi-drop 10 -ipi-delay 10
	run "$bin/sasosim" -workload shootdown -model "$m" -cpus 8 -kill-cpu 3@50000
	run "$bin/sasosim" -workload devio -model "$m" -cpus 4 -dev-drop 25 -dev-delay 10
	run "$bin/sasosim" -workload devio -model "$m" -cpus 4 -kill-dev 0@100000
	run "$bin/sasosim" -workload shootdown -model "$m" -cpus 16 -mesh-w 2 -mesh-h 2 -cluster-cpus 4
done
run "$bin/sasosim" -workload dsm -drop 10 -dup 5 -reorder 5 -crash-node 2 -crash-at 200 -seed 7
run "$bin/sasosim" -workload dsm -manager distributed -drop 10 -crash-node 2 -crash-at 200 -seed 7
for k in seq ws zipf mix; do
	run "$bin/tracegen" -kind "$k" -records 20000 -out "$k.trc"
	for mach in plb page-group conventional flush; do
		run "$bin/sasosim" -trace "$k.trc" -machine "$mach"
	done
done
for d in "$root"/examples/*/; do
	run "$bin/$(basename "$d")"
done
run "$bin/bench" --seconds 1 --trace 0
run "$bin/bench" --seconds 1 --trace 1

# bench/'s own files belong to another module; only the simulator's
# packages are reported. Only the merged profile is kept.
"$GO" tool covdata textfmt -i="$dir/cov" -o "$dir/all.out"
grep -v '^repro/bench/' "$dir/all.out" >"$dir/cover.out"
rm -rf "$bin" "$dir/cov" "$dir/all.out" "$dir"/*.trc
echo "non-test functions no run reached:"
"$GO" -C "$root" tool cover -func="$dir/cover.out" | awk '$NF == "0.0%"'
echo "merged profile: $dir/cover.out"
