#!/usr/bin/env bash
# Runs alternating pairs of bench/run.sh on a parent commit and on the
# working tree, then judges them with bench/run.sh compare. Each pair
# flips which side runs first: with the parent always first, the second
# run of a pair has read 6-14% faster on workloads neither side touched.
#
#   make pairs PARENT=HEAD~1 N=10 ARGS='--workload revoke-dma --seconds 24' CLAIM=ops_per_s.pg@revoke-dma
#   bash scripts/pairs.sh PARENT N 'BENCH ARGS' [METRIC@WORKLOAD]
#
# The parent tree comes from git archive; the change tree is a copy of
# the working tree's files, tracked and untracked but not ignored, so
# uncommitted edits are measured. Both trees, their build outputs and
# every run's record and log go under one mktemp -d directory. The trees
# are removed once compared; the records and logs stay, and their path
# is printed last.
set -euo pipefail

usage="usage: pairs.sh PARENT N 'BENCH ARGS' [METRIC@WORKLOAD]"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent="${1:?$usage}"
n="${2:?$usage}"
read -ra args <<<"${3-}"
claim=()
if [[ -n "${4-}" ]]; then
	claim=(-claim "$4")
fi

dir="$(mktemp -d)"
mkdir -p "$dir/parent" "$dir/change" "$dir/runs/parent" "$dir/runs/change"
git -C "$root" archive "$parent" | tar -x -C "$dir/parent"
git -C "$root" ls-files -z --cached --others --exclude-standard |
	tar -C "$root" --null --ignore-failed-read -T - -cf - | tar -x -C "$dir/change"

run() {
	local side="$1" out
	out="$dir/runs/$side/$(printf %03d "$2")"
	echo "pair $2: $side"
	if ! bash "$dir/$side/bench/run.sh" "${args[@]}" -o "$out.jsonl" >"$out.log" 2>&1; then
		echo "pairs: the $side run of pair $2 failed; see $out.log" >&2
		exit 1
	fi
}

for ((i = 1; i <= n; i++)); do
	if ((i % 2)); then
		run parent "$i"
		run change "$i"
	else
		run change "$i"
		run parent "$i"
	fi
done

status=0
bash "$dir/change/bench/run.sh" compare -bench "$dir/change/BENCHMARK.json" "${claim[@]}" \
	"$dir/runs/parent/*.jsonl" "$dir/runs/change/*.jsonl" || status=$?
rm -rf "$dir/parent" "$dir/change"
echo "pairs: records and logs are in $dir/runs"
exit "$status"
