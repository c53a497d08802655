#!/bin/sh
# bench_guard.sh — the allocation-budget gate: runs every benchmark named
# in scripts/alloc_budget.txt (one iteration; allocs/op is deterministic
# per op, unlike ns/op) and fails if any exceeds its budgeted allocs/op. A
# benchmark that is listed but does not run also fails — a silently
# renamed benchmark must not retire its budget.
#
# Each benchmark runs three times and the gate reads the lowest allocs/op.
# allocs/op is the process-wide malloc count over the timed loop, so the
# runtime's own allocations can land in it: when the world restarts after
# the benchmark's MemStats read, the scheduler may start a new OS thread,
# and its five allocations (the M, two goroutine stacks, two profiling
# buffers) were caught in a memory profile of a one-iteration
# WireDecodeBatch reading 5 allocs/op against a budget of 0. It hit 1 of
# 200 single runs and never all three of a triple in 150, while a
# regression in the benchmark's code reads the same in all three runs and
# still fails.
#
# Usage: scripts/bench_guard.sh [budget-file]
set -eu

cd "$(dirname "$0")/.."
budget="${1:-scripts/alloc_budget.txt}"

pat="$(awk '!/^[ \t]*(#|$)/ { printf "%s^%s$", sep, $1; sep = "|" }' "$budget")"
if [ -z "$pat" ]; then
	echo "bench-guard: no budgets in $budget" >&2
	exit 1
fi

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
go test -run '^$' -bench "$pat" -benchtime 1x -count 3 -benchmem ./... | tee "$tmp"

awk '
	NR == FNR {
		if ($0 ~ /^[ \t]*(#|$)/) next
		max[$1] = $2
		next
	}
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name) # strip the GOMAXPROCS suffix
		for (i = 2; i < NF; i++)
			if ($(i + 1) == "allocs/op" && (!(name in al) || $i + 0 < al[name] + 0)) al[name] = $i
	}
	END {
		fail = 0
		for (name in max) {
			if (!(name in al)) {
				printf "bench-guard: FAIL %s did not run (renamed? removed?)\n", name
				fail = 1
			} else if (al[name] + 0 > max[name] + 0) {
				printf "bench-guard: FAIL %s: %d allocs/op exceeds budget %d\n", name, al[name], max[name]
				fail = 1
			} else {
				printf "bench-guard: ok   %s: %d allocs/op within budget %d\n", name, al[name], max[name]
			}
		}
		exit fail
	}
' "$budget" "$tmp"
