// Command livebench is the live-stack benchmark: it brings up a 3-node
// livekv cluster over real loopback TCP inside its own process, drives
// it with one of three workloads by calling Node.Put/Node.Get directly,
// checks every read and the nodes' agreement, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
//	bash livebench/run.sh --workload saturate --seed 1 --seconds 55 --trace 0
//
// A run is a sequence of windows, each on a fresh cluster and each a
// fixed number of ops; windows repeat until the next one would pass
// --seconds. Every end-to-end figure is a median over the windows the
// hypervisor did not disturb (see maxSteal); a window's latency
// percentiles are over its own samples. The last line
// of standard output is a JSON object with the keys correct, attempted,
// failed and metrics (with --workload all, one such line per workload,
// then their union keyed workload/metric). The exit code is 1 on any
// stale read, divergent decision or cross-node log mismatch, 2 if the
// benchmark could not run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"heardof/internal/live"
	"heardof/internal/livekv"
)

type options struct {
	workload   string
	seed       uint64
	faultSeed  uint64
	seconds    time.Duration
	trace      bool
	ops        int    // window size override; 0 keeps the workload's
	out        string // data dirs and span dumps
	minWindows int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("livebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var seconds, trace int
	faultSeed := fs.Int64("fault-seed", -1, "seed of the loss draws (default: --seed)")
	fs.StringVar(&o.workload, "workload", "all", "saturate, wal, lossy, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: keys, op mix and values")
	fs.IntVar(&seconds, "seconds", 55, "measurement budget; windows repeat until the next would pass it")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	fs.IntVar(&o.ops, "ops", 0, "ops per window (default: the workload's)")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "livebench"), "directory for data dirs and span dumps")
	fs.IntVar(&o.minWindows, "min-windows", 4, "fewest windows per run (a traced run alternates untraced and traced windows)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace != 0
	o.faultSeed = o.seed
	if *faultSeed >= 0 {
		o.faultSeed = uint64(*faultSeed)
	}
	var todo []workload
	if o.workload == "all" {
		todo = workloads
	} else {
		w, err := workloadByName(o.workload)
		if err != nil {
			fmt.Fprintln(stderr, "livebench:", err)
			return 2
		}
		todo = []workload{w}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "livebench:", err)
		return 2
	}

	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range todo {
		res, err := runWorkload(w, o, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "livebench: %s: %v\n", w.name, err)
			return 2
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"/"+k] = v
		}
		if len(todo) == 1 {
			total = res
		} else if err := printJSON(stdout, res); err != nil {
			fmt.Fprintln(stderr, "livebench:", err)
			return 2
		}
	}
	if err := printJSON(stdout, total); err != nil {
		fmt.Fprintln(stderr, "livebench:", err)
		return 2
	}
	if !total.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printJSON(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// window is what one fresh cluster measured.
type window struct {
	traced            bool
	setup, elapsed    time.Duration
	attempted, failed int
	use               usage // resource deltas over the load
	p50, p99          time.Duration
	heapMB            float64
	breach            error // correctness failure: stale read, divergence, mismatch

	// traced windows only
	rs                   replicaStats
	dropped              int64
	pendingSum, pendings int64
	probed               bool
	reopen, catchup      time.Duration
}

func (w window) committed() int { return w.attempted - w.failed }

func (w window) stealFrac() float64 { return ratio(float64(w.use.steal), float64(w.use.ticks)) }

func (w window) throughput() float64 { return ratio(float64(w.committed()), w.elapsed.Seconds()) }

func (w window) cpuPerOp() float64 {
	return ratio(float64(w.use.user+w.use.sys)/1e3, float64(w.committed()))
}

// Restart-probe burst: the ops the survivors commit while node 2 is down.
const restartSessions, restartOps = 8, 256

// settleTimeout bounds the wait for the nodes to agree after a window.
const settleTimeout = 20 * time.Second

// runWindow measures one window on a fresh cluster: set-up to the first
// committed op, the load, the cross-node check, the retained heap, and
// (traced wal windows) the restart probe.
func runWindow(w workload, o options, k int, t *tracer) (win window, err error) {
	win.traced = t != nil
	nops := w.ops
	if o.ops > 0 {
		nops = o.ops
	}
	var names []string
	for i := 0; i < sessions*keysPerSession; i++ {
		names = append(names, fmt.Sprintf("s%02d-k%d", i/keysPerSession, i%keysPerSession))
	}
	load := genSessions(o.seed, k, sessions, nops, 0)
	restartBase := len(names)
	for i := 0; i < restartSessions*keysPerSession; i++ {
		names = append(names, fmt.Sprintf("restart-k%d", i))
	}
	chk := newChecker(names)
	dataDir := ""
	if w.wal {
		dataDir = filepath.Join(o.out, fmt.Sprintf("data-%d-%d", os.Getpid(), k))
	}

	start := time.Now()
	c, err := startCluster(w, o.faultSeed+uint64(k)*replicas, dataDir, t)
	if err != nil {
		return win, err
	}
	defer c.close()
	if err := c.nodes[0].Put(context.Background(), "setup", "ok"); err != nil {
		return win, fmt.Errorf("first op: %w", err)
	}
	win.setup = time.Since(start)

	d := &driver{chk: chk, t: t}
	var stop chan struct{}
	probed := make(chan struct{})
	var rs0 replicaStats
	var dropped0 int64
	if t != nil {
		rs0, dropped0 = c.stats(), c.dropped()
		stop = make(chan struct{})
		go func() {
			defer close(probed)
			win.pendingSum, win.pendings = c.probeStats(stop)
		}()
		t.on.Store(true)
	}
	u0 := readUsage()
	loadStart := time.Now()
	lat, failed := d.run(c.nodes, load)
	win.elapsed = time.Since(loadStart)
	win.use = readUsage().sub(u0)
	win.attempted, win.failed = len(lat), failed
	slices.Sort(lat)
	win.p50, win.p99 = quantile(lat, 0.50), quantile(lat, 0.99)
	if t != nil {
		t.on.Store(false)
		close(stop)
		<-probed
		win.rs, win.dropped = c.stats().sub(rs0), c.dropped()-dropped0
	}

	c.setLoss(0)
	if win.breach = c.awaitConverged(settleTimeout); win.breach != nil {
		return win, nil
	}
	win.heapMB = retainedMB()

	if t != nil && w.wal {
		burst := genSessions(o.seed^0x5eed, k, restartSessions, restartOps, restartBase)
		win.reopen, win.catchup, err = c.restartProbe(func(nodes []*livekv.Node) error {
			if _, failed := (&driver{chk: chk}).run(nodes, burst); failed > 0 {
				return fmt.Errorf("%d of %d ops failed", failed, restartOps)
			}
			return nil
		})
		if err != nil {
			return win, fmt.Errorf("restart probe: %w", err)
		}
		win.probed = true
		if win.breach = c.awaitConverged(settleTimeout); win.breach != nil {
			return win, nil
		}
	}
	if n, msgs := chk.failures(); n > 0 {
		win.breach = fmt.Errorf("%d stale reads, first: %v", n, msgs)
	}
	return win, nil
}

// runWorkload runs windows until the next one would pass the budget and
// reports the run's metrics on out, each window's figures on progress.
// A traced run alternates untraced and traced windows, so it can also
// report the tracing overhead.
func runWorkload(w workload, o options, out, progress io.Writer) (result, error) {
	var t *tracer
	if o.trace {
		t = newTracer()
	}
	var wins []window
	var walls []float64
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	// Window 0 is a quarter-size warm-up, checked but not measured: the
	// process's first cluster pays heap growth and page faults no later
	// window does.
	warm := o
	warm.ops = w.ops
	if o.ops > 0 {
		warm.ops = o.ops
	}
	warm.ops = max(warm.ops/4, sessions)
	if warmup, err := runWindow(w, warm, 0, nil); err != nil {
		return res, fmt.Errorf("warm-up window: %w", err)
	} else if warmup.breach != nil {
		fmt.Fprintf(out, "BREACH in the warm-up window: %v\n", warmup.breach)
		res.Correct = false
		return res, nil
	}
	start := time.Now()
	for k := 1; ; k++ {
		var wt *tracer
		if o.trace && k%2 == 0 {
			wt = t
		}
		wstart := time.Now()
		win, err := runWindow(w, o, k, wt)
		if err != nil {
			return res, fmt.Errorf("window %d: %w", k, err)
		}
		wins = append(wins, win)
		walls = append(walls, time.Since(wstart).Seconds())
		fmt.Fprintf(progress, "%s window %d traced=%v: %d ops in %v, %.0f ops/s, %.1f us/op, p50 %v, p99 %v, setup %v, steal %.1f%%\n",
			w.name, k, win.traced, win.attempted, win.elapsed.Round(time.Millisecond),
			win.throughput(), win.cpuPerOp(),
			win.p50, win.p99, win.setup.Round(time.Microsecond),
			100*win.stealFrac())
		if win.breach != nil {
			fmt.Fprintf(out, "BREACH in window %d: %v\n", k, win.breach)
			res.Correct = false
			break
		}
		if len(wins) >= o.minWindows && time.Since(start).Seconds()+median(walls) > o.seconds.Seconds() {
			break
		}
	}

	for _, win := range wins {
		res.Attempted += win.attempted
		res.Failed += win.failed
	}
	if res.Attempted == 0 {
		return res, errors.New("no ops attempted")
	}

	fmt.Fprintf(out, "# livebench workload=%s seed=%d fault_seed=%d trace=%v windows=%d (%d with steal <= %g%%) ops/window=%d gomaxprocs=%d\n",
		w.name, o.seed, o.faultSeed, o.trace, len(wins), len(steady(wins)), 100*maxSteal, wins[0].attempted, runtime.GOMAXPROCS(0))
	fmt.Fprintf(out, "# %s\n", w.why)
	var vals map[string]float64
	defs := endToEnd
	if o.trace {
		vals = layerMetrics(wins, t)
		defs = perLayer
	} else {
		vals = endToEndMetrics(wins)
	}
	for _, m := range defs {
		v := vals[m.name]
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		switch {
		case o.trace:
			fmt.Fprintf(out, "%-32s %14.6g %-5s  moves: %s\n", m.name, v, m.unit, m.moves)
		case m.name == "latency_p50_ms" || m.name == "latency_p99_ms":
			fmt.Fprintf(out, "%-32s %14.6g %-5s  median of %d windows' percentiles\n", m.name, v, m.unit, len(steady(wins)))
		default:
			fmt.Fprintf(out, "%-32s %14.6g %s\n", m.name, v, m.unit)
		}
	}
	if t != nil {
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, o.seed))
		if err := t.write(path); err != nil {
			return res, err
		}
		fmt.Fprintf(out, "# spans: %s (%d kept, %d past the in-memory cap)\n",
			path, min(t.next.Load(), maxSpans), t.spansLost())
	}
	return res, nil
}

// maxSteal is the share of the machine's CPU ticks the hypervisor may
// steal during a window's load before the window is left out of the
// end-to-end medians: steal measures the host's other tenants, not this
// program, and on a shared host it came in bursts that cut throughput
// by a quarter for a minute at a time.
const maxSteal = 0.02

// steady returns the windows the end-to-end medians use: those whose
// load ran with at most maxSteal stolen, or every window when fewer
// than half qualify.
func steady(wins []window) []window {
	var out []window
	for _, w := range wins {
		if w.stealFrac() <= maxSteal {
			out = append(out, w)
		}
	}
	if 2*len(out) < len(wins) {
		return wins
	}
	return out
}

// endToEndMetrics computes the untraced run's metrics: medians over
// the steady windows, each window's latency percentiles over its own
// samples; ok_frac counts every window.
func endToEndMetrics(wins []window) map[string]float64 {
	var thr, cpu, p50, p99, mem, setup []float64
	var attempted, failed int
	for _, w := range wins {
		attempted += w.attempted
		failed += w.failed
	}
	for _, w := range steady(wins) {
		thr = append(thr, w.throughput())
		cpu = append(cpu, w.cpuPerOp())
		p50 = append(p50, float64(w.p50)/1e6)
		p99 = append(p99, float64(w.p99)/1e6)
		mem = append(mem, w.heapMB)
		setup = append(setup, w.setup.Seconds())
	}
	return map[string]float64{
		"throughput_ops_s": median(thr),
		"latency_p50_ms":   median(p50),
		"latency_p99_ms":   median(p99),
		"ok_frac":          1 - ratio(float64(failed), float64(attempted)),
		"cpu_us_per_op":    median(cpu),
		"mem_retained_mb":  median(mem),
		"setup_s":          median(setup),
	}
}

// layerMetrics computes the traced run's metrics, pooled over its
// traced windows, plus the tracing overhead against its untraced ones.
func layerMetrics(wins []window, t *tracer) map[string]float64 {
	var rs replicaStats
	var u usage
	var ops, dropped, pendingSum, pendings int64
	var elapsed float64
	var reopen, catchup []float64
	var thr, cpu [2][]float64 // [untraced, traced]
	samples := 0
	for _, w := range wins {
		samples += w.attempted
		tr := 0
		if w.traced {
			tr = 1
		}
		thr[tr] = append(thr[tr], w.throughput())
		cpu[tr] = append(cpu[tr], w.cpuPerOp())
		if !w.traced {
			continue
		}
		rs = rs.add(w.rs)
		u = u.add(w.use)
		ops += int64(w.committed())
		dropped += w.dropped
		pendingSum += w.pendingSum
		pendings += w.pendings
		elapsed += w.elapsed.Seconds()
		if w.probed {
			reopen = append(reopen, float64(w.reopen)/1e6)
			catchup = append(catchup, float64(w.catchup)/1e6)
		}
	}
	env := func(kinds ...live.Kind) float64 {
		var n int64
		for _, k := range kinds {
			n += t.envelopes[k].Load()
		}
		return float64(n)
	}
	perOp := func(x float64) float64 { return ratio(x, float64(ops)) }
	allEnv := env(live.KindRound, live.KindBatch, live.KindBatchPull, live.KindSync, live.KindSyncPull)
	return map[string]float64{
		"livekv.put_p50_ms":              t.put.quantile(0.5) / 1e6,
		"livekv.get_p50_ms":              t.get.quantile(0.5) / 1e6,
		"live.slots_per_s":               ratio(float64(rs.applied)/replicas, elapsed),
		"live.cmds_per_slot":             ratio(float64(rs.committed), float64(rs.applied)),
		"live.rounds_per_slot":           ratio(float64(rs.rounds), float64(rs.applied)),
		"live.sync_learned_frac":         ratio(float64(rs.syncDecisions), float64(rs.applied)),
		"live.pending_mean":              ratio(float64(pendingSum), float64(pendings)),
		"live.lock_wait_p99_us":          t.lockWait.quantile(0.99) / 1e3,
		"transport.envelopes_per_op":     perOp(allEnv),
		"transport.round_per_op":         perOp(env(live.KindRound)),
		"transport.batch_per_op":         perOp(env(live.KindBatch, live.KindBatchPull)),
		"transport.sync_per_op":          perOp(env(live.KindSync, live.KindSyncPull)),
		"transport.bytes_per_op":         perOp(float64(t.bytes.Load())),
		"transport.send_p99_us":          t.send.quantile(0.99) / 1e3,
		"transport.drop_frac":            ratio(float64(dropped), allEnv),
		"wal.write_bytes_per_op":         perOp(float64(u.writeBytes)),
		"wal.reopen_ms":                  median(reopen),
		"live.catchup_ms":                median(catchup),
		"go.allocs_per_op":               perOp(float64(u.mallocs)),
		"go.sys_cpu_frac":                ratio(float64(u.sys), float64(u.user+u.sys)),
		"gen.samples":                    float64(samples),
		"trace.overhead_throughput_frac": 1 - ratio(median(thr[1]), median(thr[0])),
		"trace.overhead_cpu_frac":        ratio(median(cpu[1]), median(cpu[0])) - 1,
	}
}
