#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# Go build cache included) and runs it with the given arguments. Run from the
# root of the checkout:
#
#   bash bench/run.sh --workload oltp_point --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh run | trace | verify | compare A.json B.json
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOFLAGS="-buildvcs=false" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$out/jitsperf" . >&2
cd "$root"
exec "$out/jitsperf" "$@"
