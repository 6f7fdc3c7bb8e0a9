#!/usr/bin/env bash
# bench.sh — run the benchmark suites and emit the repo's perf-trajectory
# points (see DESIGN.md "Performance"): BENCH_sim.json for the event
# core, BENCH_kv.json for the replication service layer, and
# BENCH_live.json for the live runtime's durability layer.
#
# Usage:
#   scripts/bench.sh                # full run, writes all three JSON files
#   BENCHTIME=0.2s scripts/bench.sh # reduced iterations (CI smoke job)
#   OUT=/tmp/b.json KVOUT=/tmp/kv.json LIVEOUT=/tmp/l.json scripts/bench.sh
#
# Environment:
#   BENCHTIME  go test -benchtime value (default 1s)
#   COUNT      go test -count value (default 1)
#   OUT        event-core output path (default BENCH_sim.json)
#   KVOUT      service-layer output path (default BENCH_kv.json)
#   LIVEOUT    durability-layer output path (default BENCH_live.json)
#
# BENCH_sim.json (bench_sim/v1) records ns/op, B/op and allocs/op for
# every BenchmarkSim_* and BenchmarkRunner_* benchmark, plus the wall
# time of a full `hobench -exp e9` table (the 240-cell loss sweep).
# BENCH_kv.json (bench_kv/v3) records cmds/sec, slots/cmd, shards and
# cmds/round (commands per virtual round) for every BenchmarkRSM_*
# benchmark, plus the wall time of `hobench -exp e10,e11` (the
# closed-loop service + sharded tables). v3 over v2: the rows measure
# internal/rsm's virtual-round driver over live.ReplicaCore; the
# BenchmarkShard_* rows are gone (BenchmarkRSM_ShardedWorkload covers
# several groups).
# BENCH_live.json (bench_live/v1) records the durability tax: WAL append
# throughput with and without fsync (BenchmarkWAL_*, ops/sec), recovery
# replay time per 10k log records (BenchmarkWAL_Replay10k, ns/op), and
# end-to-end committed slots/sec through a replica for the volatile /
# buffered / fsync persistence variants (BenchmarkReplica_*).
set -euo pipefail

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
COUNT="${COUNT:-1}"
OUT="${OUT:-BENCH_sim.json}"
KVOUT="${KVOUT:-BENCH_kv.json}"
LIVEOUT="${LIVEOUT:-BENCH_live.json}"

raw="$(mktemp)"
trap 'rm -f "$raw" "$raw.kv" "$raw.live" "$raw.hobench"' EXIT

echo "bench.sh: go test -bench 'BenchmarkSim_|BenchmarkRunner_' -benchtime $BENCHTIME -count $COUNT" >&2
go test -run '^$' -bench 'BenchmarkSim_|BenchmarkRunner_' -benchmem \
	-benchtime "$BENCHTIME" -count "$COUNT" . | tee /dev/stderr >"$raw"

echo "bench.sh: timing hobench -exp e9" >&2
go build -o "$raw.hobench" ./cmd/hobench
e9_start=$(date +%s.%N)
"$raw.hobench" -exp e9 >/dev/null
e9_end=$(date +%s.%N)
rm -f "$raw.hobench"
e9_wall=$(awk -v a="$e9_start" -v b="$e9_end" 'BEGIN{printf "%.3f", b-a}')

go_version="$(go env GOVERSION)"
date_utc="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

awk -v benchtime="$BENCHTIME" -v goversion="$go_version" -v date="$date_utc" \
	-v commit="$commit" -v e9wall="$e9_wall" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	sub(/^Benchmark/, "", name)
	iters = $2
	ns = ""; bytes = ""; allocs = ""
	for (i = 3; i < NF; i++) {
		if ($(i+1) == "ns/op")     ns = $i
		if ($(i+1) == "B/op")      bytes = $i
		if ($(i+1) == "allocs/op") allocs = $i
	}
	line = sprintf("    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
		name, iters, ns, bytes == "" ? "null" : bytes, allocs == "" ? "null" : allocs)
	rows[n++] = line
}
END {
	printf "{\n"
	printf "  \"schema\": \"bench_sim/v1\",\n"
	printf "  \"date\": \"%s\",\n", date
	printf "  \"commit\": \"%s\",\n", commit
	printf "  \"go\": \"%s\",\n", goversion
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"e9_wall_seconds\": %s,\n", e9wall
	printf "  \"benchmarks\": [\n"
	for (i = 0; i < n; i++) printf "%s%s\n", rows[i], i < n-1 ? "," : ""
	printf "  ]\n}\n"
}' "$raw" >"$OUT"

echo "bench.sh: wrote $OUT" >&2

echo "bench.sh: go test -bench 'BenchmarkRSM_' -benchtime $BENCHTIME ./internal/rsm" >&2
go test -run '^$' -bench 'BenchmarkRSM_' -benchmem \
	-benchtime "$BENCHTIME" -count "$COUNT" ./internal/rsm | tee /dev/stderr >"$raw.kv"

echo "bench.sh: timing hobench -exp e10,e11" >&2
go build -o "$raw.hobench" ./cmd/hobench
e10_start=$(date +%s.%N)
"$raw.hobench" -exp e10,e11 >/dev/null
e10_end=$(date +%s.%N)
rm -f "$raw.hobench"
e10_wall=$(awk -v a="$e10_start" -v b="$e10_end" 'BEGIN{printf "%.3f", b-a}')

awk -v benchtime="$BENCHTIME" -v goversion="$go_version" -v date="$date_utc" \
	-v commit="$commit" -v e10wall="$e10_wall" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	sub(/^Benchmark/, "", name)
	iters = $2
	ns = ""; cmds = ""; spc = ""; allocs = ""; shards = ""; cpr = ""
	for (i = 3; i < NF; i++) {
		if ($(i+1) == "ns/op")      ns = $i
		if ($(i+1) == "cmds/sec")   cmds = $i
		if ($(i+1) == "slots/cmd")  spc = $i
		if ($(i+1) == "allocs/op")  allocs = $i
		if ($(i+1) == "shards")     shards = $i
		if ($(i+1) == "cmds/round") cpr = $i
	}
	line = sprintf("    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"cmds_per_sec\": %s, \"slots_per_cmd\": %s, \"shards\": %s, \"cmds_per_round\": %s, \"allocs_per_op\": %s}",
		name, iters, ns, cmds == "" ? "null" : cmds, spc == "" ? "null" : spc,
		shards == "" ? "null" : shards, cpr == "" ? "null" : cpr, allocs == "" ? "null" : allocs)
	rows[n++] = line
}
END {
	printf "{\n"
	printf "  \"schema\": \"bench_kv/v3\",\n"
	printf "  \"date\": \"%s\",\n", date
	printf "  \"commit\": \"%s\",\n", commit
	printf "  \"go\": \"%s\",\n", goversion
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"e10_e11_wall_seconds\": %s,\n", e10wall
	printf "  \"benchmarks\": [\n"
	for (i = 0; i < n; i++) printf "%s%s\n", rows[i], i < n-1 ? "," : ""
	printf "  ]\n}\n"
}' "$raw.kv" >"$KVOUT"

echo "bench.sh: wrote $KVOUT" >&2

echo "bench.sh: go test -bench 'BenchmarkWAL_|BenchmarkReplica_' -benchtime $BENCHTIME ./internal/wal ./internal/live" >&2
go test -run '^$' -bench 'BenchmarkWAL_|BenchmarkReplica_' -benchmem \
	-benchtime "$BENCHTIME" -count "$COUNT" ./internal/wal ./internal/live | tee /dev/stderr >"$raw.live"

awk -v benchtime="$BENCHTIME" -v goversion="$go_version" -v date="$date_utc" \
	-v commit="$commit" '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	sub(/^Benchmark/, "", name)
	iters = $2
	ns = ""; ops = ""; slots = ""; allocs = ""
	for (i = 3; i < NF; i++) {
		if ($(i+1) == "ns/op")     ns = $i
		if ($(i+1) == "ops/sec")   ops = $i
		if ($(i+1) == "slots/sec") slots = $i
		if ($(i+1) == "allocs/op") allocs = $i
	}
	line = sprintf("    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"ops_per_sec\": %s, \"slots_per_sec\": %s, \"allocs_per_op\": %s}",
		name, iters, ns, ops == "" ? "null" : ops, slots == "" ? "null" : slots, allocs == "" ? "null" : allocs)
	rows[n++] = line
}
END {
	printf "{\n"
	printf "  \"schema\": \"bench_live/v1\",\n"
	printf "  \"date\": \"%s\",\n", date
	printf "  \"commit\": \"%s\",\n", commit
	printf "  \"go\": \"%s\",\n", goversion
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"benchmarks\": [\n"
	for (i = 0; i < n; i++) printf "%s%s\n", rows[i], i < n-1 ? "," : ""
	printf "  ]\n}\n"
}' "$raw.live" >"$LIVEOUT"

echo "bench.sh: wrote $LIVEOUT" >&2
