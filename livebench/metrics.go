package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric. For a per-layer metric, moves
// records which end-to-end metric, on which workload, it should move.
type metricDef struct {
	name, unit, better string
	moves              string
}

// endToEnd are what a user of the store sees, measured with tracing off.
var endToEnd = []metricDef{
	{name: "throughput_ops_s", unit: "1/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p99_ms", unit: "ms", better: "lower"},
	{name: "ok_frac", unit: "frac", better: "higher"},
	{name: "cpu_us_per_op", unit: "us", better: "lower"},
	{name: "mem_retained_mb", unit: "MB", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
}

// perLayer come from the traced run, each measured from outside the
// program by wrapping or timing a public function.
var perLayer = []metricDef{
	{"livekv.put_p50_ms", "ms", "lower", "latency_p50_ms on all; equal to get today, reads ride the log"},
	{"livekv.get_p50_ms", "ms", "lower", "latency_p50_ms on saturate once a read path splits it from put"},
	{"live.slots_per_s", "1/s", "higher", "throughput_ops_s on saturate and wal"},
	{"live.cmds_per_slot", "count", "higher", "throughput_ops_s and cpu_us_per_op on saturate and wal"},
	{"live.rounds_per_slot", "count", "lower", "latency_p50_ms on lossy (run by hand)"},
	{"live.sync_learned_frac", "frac", "lower", "latency_p99_ms on lossy (run by hand)"},
	{"live.pending_mean", "count", "lower", "latency_p50_ms on saturate"},
	{"live.lock_wait_p99_us", "us", "lower", "latency_p99_ms on wal"},
	{"transport.envelopes_per_op", "count", "lower", "cpu_us_per_op and throughput_ops_s on saturate"},
	{"transport.round_per_op", "count", "lower", "cpu_us_per_op and throughput_ops_s on saturate"},
	{"transport.batch_per_op", "count", "lower", "cpu_us_per_op and throughput_ops_s on saturate"},
	{"transport.sync_per_op", "count", "lower", "cpu_us_per_op and throughput_ops_s on saturate"},
	{"transport.bytes_per_op", "B", "lower", "cpu_us_per_op and throughput_ops_s on saturate"},
	{"transport.send_p99_us", "us", "lower", "cpu_us_per_op on all"},
	{"transport.drop_frac", "frac", "lower", "none: checks the environment, ~0.1 on lossy and 0 elsewhere"},
	{"wal.write_bytes_per_op", "B", "lower", "throughput_ops_s on wal; 0 elsewhere"},
	{"wal.reopen_ms", "ms", "lower", "none yet (restart probe on wal; 0 elsewhere)"},
	{"live.catchup_ms", "ms", "lower", "none yet (restart probe on wal; 0 elsewhere)"},
	{"go.allocs_per_op", "count", "lower", "cpu_us_per_op on all"},
	{"go.sys_cpu_frac", "frac", "lower", "throughput_ops_s on saturate (syscalls: socket writes)"},
	{"gen.samples", "count", "higher", "none: the latency sample count behind the percentiles"},
	{"trace.overhead_throughput_frac", "frac", "lower", "none: traced vs untraced throughput_ops_s"},
	{"trace.overhead_cpu_frac", "frac", "lower", "none: traced vs untraced cpu_us_per_op"},
}

// usage is a snapshot of the process's resource counters, plus the
// machine's CPU ticks: all of them and those stolen by the hypervisor.
type usage struct {
	user, sys    time.Duration
	mallocs      uint64
	writeBytes   int64
	ticks, steal int64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ticks, steal := procStatTicks()
	return usage{
		user:       time.Duration(ru.Utime.Nano()),
		sys:        time.Duration(ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		writeBytes: procWriteBytes(),
		ticks:      ticks,
		steal:      steal,
	}
}

// procStatTicks reads the machine-wide CPU ticks from /proc/stat: the
// sum of every state and the steal column (0, 0 where unavailable).
func procStatTicks() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		n, _ := strconv.ParseInt(f, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

func (u usage) sub(o usage) usage {
	return usage{u.user - o.user, u.sys - o.sys, u.mallocs - o.mallocs, u.writeBytes - o.writeBytes, u.ticks - o.ticks, u.steal - o.steal}
}

func (u usage) add(o usage) usage {
	return usage{u.user + o.user, u.sys + o.sys, u.mallocs + o.mallocs, u.writeBytes + o.writeBytes, u.ticks + o.ticks, u.steal + o.steal}
}

// procWriteBytes reads write_bytes (bytes sent to the storage layer)
// from /proc/self/io; 0 where the kernel does not provide it.
func procWriteBytes() int64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "write_bytes:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// retainedMB is the live heap after a full collection, in MB.
func retainedMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile returns the nearest-rank q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
