#!/usr/bin/env bash
# Builds the benchmark and the fourbitsim command from source, then runs one
# workload. Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload sim-fig6 --seed 1 --seconds 30 --trace 0
#
# Builds, caches and spans stay under .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
go build -o "$out/fourbitsim" ./cmd/fourbitsim >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --fourbitsim "$out/fourbitsim" --spans "$out/spans" "$@"
