#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#   bash perfbench/run.sh --workload mlp-3lc --seed 1 --seconds 10 --trace 0
# Everything the build and the run leave behind (binary, Go build cache,
# trace files) goes under .bench_build/perfbench at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" --out "$out" "$@"
