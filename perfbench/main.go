// Command perfbench is patternletd's benchmark. It spawns the shipped
// cmd/patternletd binary as child processes (each with a run store in a
// fresh directory and default flags otherwise), drives them from this one
// process with a closed loop of POST /run requests, checks every reply
// after the measured window, and prints each metric by name with its
// unit. The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
//
// run.sh builds the daemon and this harness and then runs:
//
//	perfbench -daemon BIN -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones (setup_s, qps,
// p50_ms, p99_ms, ok_ratio, cpu_us_per_req, peak_rss_mb). With --trace 1
// the run also measures a traced window, scrapes the daemons' stage
// histograms and times each layer in-process (ladder.go); the metrics are
// then the per-layer ones. README.md lists which end-to-end metric each
// per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	daemon   string // patternletd binary
	work     string // directory for run stores, logs and traces

	// Fixed for the benchmark; the tests shrink them.
	setups int           // set-ups per run; setup_s is their median
	warmup time.Duration // unmeasured load between set-up and the window
	scale  float64       // share of full-size fills and ladder budgets
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.daemon, "daemon", "", "path to the patternletd binary")
	flag.StringVar(&o.work, "work", "", "directory for run stores, daemon logs and traces")
	flag.Parse()
	o.trace = trace == 1
	o.setups, o.warmup, o.scale = 3, time.Second, 1
	if o.daemon == "" || o.work == "" || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -daemon, -work, --seconds > 0 and --trace 0|1")
		os.Exit(2)
	}
	// The generator's own garbage collection shares the cores with the
	// daemons; collecting less often keeps it out of their way.
	debug.SetGCPercent(400)

	// An interrupt still stops the daemons: run returns through its
	// deferred cleanup once the window is cut short.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(130)
	}()

	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run performs one benchmark invocation and returns its result line;
// everything else it reports goes to out as human-readable lines.
func run(o options, out io.Writer) (result, error) {
	sp, ok := specByName(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return result{}, err
	}
	tr, err := sp.build(o.seed, o.scale)
	if err != nil {
		return result{}, err
	}

	h, err := recordHost(o, tr)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "host nproc=%d gomaxprocs=%d go=%s cpu=%q commit=%s tree=%s ladder.http_floor_us=%.2f\n",
		h.nproc, h.gomaxprocs, h.goVersion, h.cpu, h.commit, h.tree, h.floorUS)
	fmt.Fprintf(out, "workload %s seed=%d conns=%d daemons=%d window=%gs trace=%t\n  why: %s\n",
		sp.name, o.seed, sp.conns, sp.nodes, o.seconds, o.trace, sp.why)

	// The generator runs on one P while it drives load: its callers
	// mostly wait on sockets, and fewer runnable threads leave the cores
	// to the daemons. The output check and the ladder get every P back.
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)

	// Set up o.setups times and keep the last cluster: setup_s is the
	// median, so one slow spawn does not decide it.
	var cl *cluster
	var setups []float64
	for i := 0; i < o.setups; i++ {
		if cl != nil {
			cl.stop()
		}
		start := time.Now()
		cl, err = startCluster(o, sp.nodes, fmt.Sprintf("s%d", i))
		if err == nil {
			err = tr.fill(cl)
		}
		if err != nil {
			if cl != nil {
				cl.stop()
			}
			return result{}, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer cl.stop()
	target := tr.target(cl)
	targetIdx := cl.index(target)

	if o.warmup > 0 {
		drive(target.addr, tr, o.seed, phaseWarmup, sp.conns, o.warmup, nil, nil)
	}
	before, err := cl.counters()
	if err != nil {
		return result{}, err
	}
	// The daemons' CPU time and the host's steal are read at every
	// whole second of the window.
	var at []tick
	var cpuErr error
	gen0, _ := procCPUSeconds(os.Getpid())
	win := drive(target.addr, tr, o.seed, phaseWindow, sp.conns, seconds(o.seconds), nil, func(int) {
		c, err := cl.cpuSeconds()
		if err != nil && cpuErr == nil {
			cpuErr = err
		}
		total, steal := hostTicks()
		at = append(at, tick{c, total, steal})
	})
	gen1, _ := procCPUSeconds(os.Getpid())
	if cpuErr != nil {
		return result{}, cpuErr
	}
	rssKB, err := cl.peakRSSKB()
	if err != nil {
		return result{}, err
	}

	var traced window
	var spans *spanLog
	var after []map[string]int64
	if o.trace {
		after, err = cl.counters()
		if err != nil {
			return result{}, err
		}
		spans = newSpanLog()
		traced = drive(target.addr, tr, o.seed, phaseTraced, sp.conns, seconds(o.seconds/2), spans, nil)
	}
	stages, err := cl.counters()
	if err != nil {
		return result{}, err
	}
	cl.stop()
	runtime.GOMAXPROCS(procs)

	// The output check runs here, after the daemons are gone, so it is
	// never inside the measured window.
	t, err := check(win.samples, tr)
	if err != nil {
		return result{}, err
	}
	res := result{
		Correct:   t.causes[causeWrong] == 0,
		Attempted: t.attempted,
		Failed:    t.attempted - t.ok,
		Metrics:   map[string]metric{},
	}
	if res.Attempted == 0 {
		return result{}, fmt.Errorf("no request completed in the window")
	}
	sl := slicesOf(t.oks, at)
	if len(sl.counts) == 0 {
		return result{}, fmt.Errorf("window shorter than one second")
	}
	e2e := map[string]metric{
		"setup_s":        {median(setups), "s"},
		"qps":            {sl.qps, "1/s"},
		"p50_ms":         {sl.p50NS / 1e6, "ms"},
		"p99_ms":         {sl.p99NS / 1e6, "ms"},
		"ok_ratio":       {float64(t.ok) / float64(t.attempted), "ratio"},
		"cpu_us_per_req": {sl.cpuPerReq * 1e6, "us"},
		"peak_rss_mb":    {float64(rssKB) / 1024, "MB"},
	}
	p50, p99, beyond := percentiles(latencies(t.oks))
	first, last := at[0], at[len(at)-1]
	cpuAll := (last.cpu - first.cpu) * 1e6 / float64(max(t.ok, 1))
	fmt.Fprintf(out, "window elapsed=%.3fs attempted=%d ok=%d setups_s=%v host_steal_pct=%.1f generator_cpu_pct=%.1f\n",
		win.elapsed.Seconds(), t.attempted, t.ok, roundAll(setups),
		first.stealPct(last), 100*(gen1-gen0)/win.elapsed.Seconds())
	fmt.Fprintf(out, "failures %s\n", t.causeLine())
	fmt.Fprintf(out, "slices n=%d used=%d ok_per_slice=%v host_steal_pct_per_slice=%v\n",
		len(sl.counts), sl.used, sl.counts, sl.stealPct)
	fmt.Fprintf(out, "whole window qps=%.1f p50_ms=%.4f (n=%d) p99_ms=%.4f (beyond=%d) cpu_us_per_req=%.1f\n",
		float64(t.ok)/win.elapsed.Seconds(), p50/1e6, t.ok, p99/1e6, beyond, cpuAll)
	if fewest := slices.Min(sl.counts); fewest < 1000 {
		fmt.Fprintf(out, "note: a slice holds only %d samples, so its p99 has fewer than 10 beyond it\n", fewest)
	}
	printMetrics(out, "end_to_end", e2e)
	if !o.trace {
		res.Metrics = e2e
		return res, nil
	}

	tt, err := check(traced.samples, tr)
	if err != nil {
		return result{}, err
	}
	if tt.causes[causeWrong] > 0 {
		res.Correct = false
	}
	tracedP50, _, _ := percentiles(latencies(tt.oks))
	layers := scraped(sp, targetIdx, before, after, stages)
	layers["ladder.http_floor_us"] = metric{h.floorUS, "us"}
	layers["trace.overhead_ratio"] = metric{tracedP50/p50 - 1, "ratio"}
	inproc, failures, err := ladder(o, sp, tr, spans)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "ladder failures %v\n", failures)
	for key := range failures {
		if strings.HasSuffix(key, " "+causeWrong) {
			res.Correct = false
		}
	}
	for name, m := range inproc {
		layers[name] = m
	}
	e2eUS := sl.p50NS / 1e3
	layers["ladder.residual_ratio"] = metric{
		(e2eUS - h.floorUS - layers["serve.handler_us"].Value) / e2eUS, "ratio"}
	path, err := spans.write(o.work, sp.name, o.seed)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "traced window attempted=%d ok=%d p50_ms=%.4f spans=%s\n",
		tt.attempted, tt.ok, tracedP50/1e6, path)
	printMetrics(out, "per_layer", layers)
	res.Metrics = layers
	return res, nil
}

// printMetrics writes one "metric" line per entry, sorted by name.
func printMetrics(out io.Writer, kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%s %s %.6g %s\n", kind, n, ms[n].Value, ms[n].Unit)
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.3f", x)
	}
	return out
}
