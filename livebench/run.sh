#!/usr/bin/env bash
# Builds the live-stack benchmark from source and runs it from the
# repository root. Build products, the Go build cache, durable-workload
# data directories and span dumps all stay under .bench_build/.
#
#   bash livebench/run.sh --workload saturate --seed 1 --seconds 55 --trace 0
#   bash livebench/run.sh --workload all --seed 1 --seconds 55 --trace 1
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build/livebench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/livebench" && go build -o "$out/livebench" .)
cd "$root"
exec "$out/livebench" "$@"
