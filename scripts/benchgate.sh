#!/usr/bin/env bash
# benchgate.sh — the benchmark regression gate, and the way a perf claim
# is stated.
#
# Checks out the merge-base of BASE_REF and HEAD into two temporary git
# worktrees, runs `go run ./benchmark -workload $WORKLOAD -trace 0` RUNS
# times per side (alternating which side goes first, so drift on the
# machine lands on both), then compares each base/head pair with
# `go run ./benchmark -compare base_i.json head_i.json`. The gate fails
# when a majority of pairs breach a bound (2 of the default 3).
#
# It also prints, for every end-to-end metric of BENCHMARK.json, each
# side's median and quartiles over its runs, the number of pairs head won,
# and whether the medians differ by more than base's interquartile range.
# A gain is claimed with RUNS=10: head wins at least 9 of the 10 pairs and
# the median gap exceeds base's IQR.
#
# Usage:
#   scripts/benchgate.sh [base-ref]          # default base-ref: origin/main
#
# Environment:
#   WORKLOAD  benchmark workload (default hot_search)
#   RUNS      runs per side (default 3)
set -euo pipefail

base_ref=${1:-origin/main}
workload=${WORKLOAD:-hot_search}
runs=${RUNS:-3}
root=$(git rev-parse --show-toplevel)
base=$(git -C "$root" merge-base "$base_ref" HEAD)
work=$(mktemp -d)

cleanup() {
	git -C "$root" worktree remove --force "$work/base" >/dev/null 2>&1 || true
	git -C "$root" worktree remove --force "$work/head" >/dev/null 2>&1 || true
	rm -rf "$work"
}
trap cleanup EXIT

git -C "$root" worktree add --detach --quiet "$work/base" "$base"
git -C "$root" worktree add --detach --quiet "$work/head" HEAD

bench() { # bench <side> <run>
	echo "== run $2: $1" >&2
	(cd "$work/$1" && go run ./benchmark -workload "$workload" -trace 0 -out "$work/$1-$2.json")
}

for i in $(seq 1 "$runs"); do
	if ((i % 2)); then
		bench base "$i"
		bench head "$i"
	else
		bench head "$i"
		bench base "$i"
	fi
done

breached=0
for i in $(seq 1 "$runs"); do
	echo "== pair $i: base $(git -C "$root" rev-parse --short "$base") vs head $(git -C "$root" rev-parse --short HEAD)"
	if ! (cd "$work/head" && go run ./benchmark -compare "$work/base-$i.json" "$work/head-$i.json"); then
		breached=$((breached + 1))
	fi
done

# value FILE METRIC prints METRIC's value from a results file (the indented
# JSON -out writes: the value follows the metric's name).
value() {
	awk -v key="\"$2\": {" 'index($0, key) { hit = 1; next } hit && /"value":/ { sub(/,$/, "", $2); print $2; exit }' "$1"
}

echo "== $workload end-to-end metrics over $runs runs per side: median [q1, q3]"
awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
	on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
	on && /"better"/ { gsub(/[",]/, "", $2); print name, $2 }' "$root/BENCHMARK.json" |
	while read -r metric better; do
		for i in $(seq 1 "$runs"); do
			echo "$(value "$work/base-$i.json" "$metric") $(value "$work/head-$i.json" "$metric")"
		done | awk -v metric="$metric" -v better="$better" '
			function sorted(src, dst,   i, j, t) {
				for (i = 1; i <= NR; i++) dst[i] = src[i]
				for (i = 2; i <= NR; i++)
					for (j = i; j > 1 && dst[j-1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j-1]; dst[j-1] = t }
			}
			function q(s, p,   x, lo) { x = (NR - 1) * p + 1; lo = int(x); return s[lo] + (x - lo) * (s[lo+1] - s[lo]) }
			{ b[NR] = $1 + 0; h[NR] = $2 + 0; if ((better == "lower" && h[NR] < b[NR]) || (better == "higher" && h[NR] > b[NR])) won++ }
			END {
				split("", sb); split("", sh); sorted(b, sb); sorted(h, sh)
				gap = q(sh, .5) - q(sb, .5); if (gap < 0) gap = -gap
				iqr = q(sb, .75) - q(sb, .25)
				printf "%-14s base %.4g [%.4g, %.4g]  head %.4g [%.4g, %.4g]  head better in %d of %d pairs, median gap %.4g %s base IQR %.4g\n",
					metric, q(sb, .5), q(sb, .25), q(sb, .75), q(sh, .5), q(sh, .25), q(sh, .75), won, NR, gap, (gap > iqr ? ">" : "<="), iqr
			}'
	done

fail_at=$((runs / 2 + 1))
echo "$workload: $breached of $runs pairs breached (the gate fails at $fail_at)"
((breached < fail_at))
