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

fail_at=$((runs / 2 + 1))
echo "$workload: $breached of $runs pairs breached (the gate fails at $fail_at)"
((breached < fail_at))
