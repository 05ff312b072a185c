package main

// The traced run's per-layer numbers. Two sources:
//
//   - scraped: the daemons' own stage histograms and counters from
//     /metrics.json, taken around the measured window;
//   - ladder: each layer timed in this process by calling its public
//     function with inputs generated from the same seed — the handler
//     with no socket, Registry.Run, the run store, the align kernels,
//     the omp runtime and the mpi collectives. Every call is recorded
//     as a span under its rung.
//
// With e2e the untraced window's p50 and every rung nested inside the
// one above it, the rungs' self times telescope: the floor's plus the
// handler's sum to floor + handler, so ladder.residual_ratio is
// (e2e - http_floor - handler) / e2e.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/align"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/omp"
	"repro/internal/serve"
	"repro/internal/store"
)

// stageMetrics maps daemon pipeline stages to per-layer metric names.
var stageMetrics = []struct{ stage, name string }{
	{"admission_wait", "serve.admission_wait_us"},
	{"queue_dwell", "serve.queue_dwell_us"},
	{"execute", "serve.execute_us"},
	{"cache_lookup", "serve.cache_lookup_us"},
	{"respond", "serve.respond_us"},
	{"e2e", "serve.e2e_us"},
}

// scraped derives the daemon-side per-layer metrics. before and after
// bracket the untraced window (counter ratios are taken over it);
// final is the last scrape, whose stage percentiles cover the daemons'
// whole life. A stage is read from the daemon the callers talk to (t),
// or, where it recorded none, from the one that did: in ring-forward
// the owner admits and executes what the non-owner forwards.
func scraped(sp spec, t int, before, after, final []map[string]int64) map[string]metric {
	m := map[string]metric{}
	for _, s := range stageMetrics {
		snap := final[t]
		for _, other := range final {
			if snap["serve.stage."+s.stage+".count"] == 0 {
				snap = other
			}
		}
		m[s.name] = metric{float64(snap["serve.stage."+s.stage+".p50_ns"]) / 1e3, "us"}
	}
	delta := func(i int, name string) float64 { return float64(after[i][name] - before[i][name]) }
	var hits, lookups float64
	for i := range after {
		hits += delta(i, "serve.cache.hit")
		lookups += delta(i, "serve.cache.hit") + delta(i, "serve.cache.miss")
	}
	m["store.hit_ratio"] = metric{ratio(hits, lookups), "ratio"}

	// The ring metrics are the callers' member's: how many of the runs
	// it answered it forwarded, and what the hop cost beyond the peer's
	// own end-to-end time.
	var route, fwd, retry, answered float64
	if sp.nodes > 1 {
		fwd = delta(t, "serve.forward.out")
		retry = delta(t, "serve.forward.retry")
		answered = delta(t, "serve.stage.e2e.count")
		route = routeUS(final[t], final[(t+1)%len(final)])
	}
	m["ring.route_us"] = metric{route, "us"}
	m["ring.forward_ratio"] = metric{ratio(fwd, answered), "ratio"}
	m["ring.retry_ratio"] = metric{ratio(retry, fwd), "ratio"}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// post sends one /run body to an in-process handler; a non-200 answer
// is a counted failure.
func post(h http.Handler, body []byte) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return callFailed{fmt.Sprintf("status_%d", rec.Code)}
	}
	return nil
}

// callTimeout bounds every in-process call the ladder makes, as the
// daemon's default deadline bounds a request.
const callTimeout = serve.DefaultRequestTimeout

// callFailed marks a ladder call that failed the way a served request
// can (its deadline passed, a non-200 status, a wrong result). It is
// counted by cause and left out of the rung's timing, never retried.
type callFailed struct{ cause string }

func (e callFailed) Error() string { return e.cause }

// rung times repeated calls of one layer function, each as a span
// under the ladder's span.
type rung struct {
	spans    *spanLog
	parent   int64
	failures map[string]int // "rung cause" -> calls
}

// time calls f until it has run at least calls times and for at least
// d, and returns each successful call's duration in nanoseconds.
func (r *rung) time(name string, calls int, d time.Duration, f func(i int) error) ([]float64, error) {
	id := r.spans.open("rung:"+name, r.parent, 0)
	defer r.spans.close(id)
	var out []float64
	t0 := time.Now()
	for i := 0; i < calls || time.Since(t0) < d; i++ {
		st := time.Now()
		err := f(i)
		end := time.Now()
		var failed callFailed
		if errors.As(err, &failed) {
			r.failures[name+" "+failed.cause]++
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		r.spans.add(name, id, int64(i), st, end)
		out = append(out, float64(end.Sub(st)))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: every call failed", name)
	}
	return out, nil
}

// timedOut turns an expired deadline into a counted failure.
func timedOut(ctx context.Context, err error) error {
	if ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, mpi.ErrDeadlock) {
		return callFailed{"timeout"}
	}
	return err
}

// ladder times every layer in this process and returns the in-process
// per-layer metrics and the calls that failed, by rung and cause.
func ladder(o options, sp spec, tr traffic, spans *spanLog) (map[string]metric, map[string]int, error) {
	dir, err := os.MkdirTemp(o.work, "ladder-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	root := spans.open("ladder", 0, 0)
	defer spans.close(root)
	r := &rung{spans, root, map[string]int{}}
	budget := seconds(o.scale) // per rung at full scale: one second
	m := map[string]metric{}
	us := func(ns []float64) float64 { return median(ns) / 1e3 }

	// store: the store-hit working set, run in process, then put, read
	// back at random, and replayed by Open.
	ws := newStoreHit(o.seed, o.scale)
	type entry struct {
		key string
		d   store.Digest
		res core.Result
	}
	entries := make([]entry, len(ws.entries))
	for i, c := range ws.entries {
		key, opts, err := runOptions(c.body)
		if err != nil {
			return nil, nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
		res, err := collection.Default.Run(ctx, key, opts)
		cancel()
		if err != nil {
			return nil, nil, err
		}
		entries[i] = entry{key, digest(key, opts), res}
	}
	storeDir := filepath.Join(dir, "store")
	st, err := store.Open(storeDir)
	if err != nil {
		return nil, nil, err
	}
	put, err := r.time("store.put", len(entries), 0, func(i int) error {
		_, err := st.PutResult(entries[i].d, entries[i].key, entries[i].res)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(int64(mix64(uint64(o.seed)))))
	get, err := r.time("store.get", len(entries), budget/2, func(int) error {
		e := entries[rng.Intn(len(entries))]
		res, _, ok := st.GetResult(e.d)
		if !ok || res.Output != e.res.Output {
			return fmt.Errorf("stored run %s not read back intact", e.key)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if err := st.Close(); err != nil {
		return nil, nil, err
	}
	open, err := r.time("store.open", 3, 0, func(int) error {
		s, err := store.Open(storeDir)
		if err != nil {
			return err
		}
		if s.Len() != len(entries) {
			return fmt.Errorf("replayed %d runs, stored %d", s.Len(), len(entries))
		}
		return s.Close()
	})
	if err != nil {
		return nil, nil, err
	}
	m["store.put_us"] = metric{us(put), "us"}
	m["store.get_us"] = metric{us(get), "us"}
	m["store.open_ms"] = metric{median(open) / 1e6, "ms"}

	// core: Registry.Run on this workload's own requests.
	calls := callerRand(o.seed, phaseLadder, 0)
	run, err := r.time("core.run", 5, budget, func(int) error {
		ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
		defer cancel()
		_, err := runInProcess(ctx, tr.next(calls).body)
		return timedOut(ctx, err)
	})
	if err != nil {
		return nil, nil, err
	}
	m["core.run_us"] = metric{us(run), "us"}

	// serve: the daemon's handler with no socket. store-hit reads the
	// store filled above, so its calls hit as they do in the window.
	handlerStore := filepath.Join(dir, "handler-store")
	if sp.name == "store-hit" {
		handlerStore = storeDir
	}
	var h http.Handler
	var stop func()
	if rt, ok := tr.(*ringTraffic); ok {
		h, _, stop, err = inProcessRing(rt, handlerStore, filepath.Join(dir, "peer-store"))
	} else {
		h, stop, err = inProcessServer(handlerStore)
	}
	if err != nil {
		return nil, nil, err
	}
	serveOne := func() error { return post(h, tr.next(calls).body) }
	handler, err := r.time("serve.handler", 5, budget, func(int) error { return serveOne() })
	if err == nil {
		// Allocations are counted in a pass of their own, without spans;
		// a failed call is counted like any other.
		n := max(len(handler)/2, 5)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := 0; i < n; i++ {
			var failed callFailed
			if err := serveOne(); errors.As(err, &failed) {
				r.failures["serve.allocs "+failed.cause]++
			}
		}
		runtime.ReadMemStats(&ms1)
		m["serve.allocs_per_req"] = metric{float64(ms1.Mallocs-ms0.Mallocs) / float64(n), "count"}
	}
	stop()
	if err != nil {
		return nil, nil, err
	}
	m["serve.handler_us"] = metric{us(handler), "us"}

	// ring: a workload that crosses no ring still reads ring.route_us,
	// from ring-forward's request sent through an in-process ring and
	// taken from its stage histograms as the daemons' are.
	if sp.nodes == 1 {
		rt, err := newRingTraffic()
		if err != nil {
			return nil, nil, err
		}
		front, owner, stopRing, err := inProcessRing(rt, filepath.Join(dir, "ring-front"), filepath.Join(dir, "ring-owner"))
		if err != nil {
			return nil, nil, err
		}
		_, err = r.time("ring.forward", 5, budget/4, func(int) error { return post(front, rt.body) })
		var fwd, own map[string]int64
		if err == nil {
			fwd, err = countersOf(front)
		}
		if err == nil {
			own, err = countersOf(owner)
		}
		stopRing()
		if err != nil {
			return nil, nil, err
		}
		m["ring.route_us"] = metric{routeUS(fwd, own), "us"}
	}

	// align at n=1024 on GOMAXPROCS threads: the oracle and the
	// wavefront, on the same seeds.
	threads := runtime.GOMAXPROCS(0)
	cfg := func(i int) align.Config { return align.Config{N: alignN, Seed: int64(i) + o.seed*1000 + 1} }
	want := map[int]align.Summary{}
	serial, err := r.time("align.serial", 3, budget/2, func(i int) error {
		s, err := align.Serial(cfg(i))
		want[i] = s
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	wave, err := r.time("align.wavefront", 3, budget/2, func(i int) error {
		ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
		defer cancel()
		s, err := align.Wavefront(cfg(i), threads, omp.WithContext(ctx))
		if err = timedOut(ctx, err); err != nil {
			return err
		}
		if w, ok := want[i]; ok && s != w {
			return callFailed{causeWrong}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	m["align.serial_ms"] = metric{median(serial) / 1e6, "ms"}
	m["align.wavefront_ms"] = metric{median(wave) / 1e6, "ms"}
	m["align.wavefront_speedup"] = metric{median(serial) / median(wave), "ratio"}

	// omp: an empty region, and empty tasks spread over the team.
	const regions, tasks = 100, 20000
	fork, err := r.time("omp.forkjoin", 5, budget/3, func(int) error {
		ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
		defer cancel()
		for i := 0; i < regions; i++ {
			omp.Parallel(func(*omp.Thread) {}, omp.WithNumThreads(threads), omp.WithContext(ctx))
		}
		return timedOut(ctx, nil)
	})
	if err != nil {
		return nil, nil, err
	}
	noop := func() {}
	task, err := r.time("omp.task", 5, budget/3, func(int) error {
		ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
		defer cancel()
		per := tasks / threads
		omp.Parallel(func(t *omp.Thread) {
			for i := 0; i < per; i++ {
				t.Task(noop)
				if i%64 == 63 {
					t.TaskWait()
				}
			}
			t.TaskWait()
		}, omp.WithNumThreads(threads), omp.WithContext(ctx))
		return timedOut(ctx, nil)
	})
	if err != nil {
		return nil, nil, err
	}
	m["omp.forkjoin_us"] = metric{median(fork) / regions / 1e3, "us"}
	m["omp.task_ns"] = metric{median(task) / float64(tasks/threads*threads), "ns"}

	// mpi: each collective patternlet's communication, without its
	// printing, on the in-process transport.
	var msgs float64
	for _, c := range collectives {
		for _, np := range mpiTasks {
			d, err := r.time(fmt.Sprintf("mpi.%s.np%d", c.name, np), 5, budget/10, func(int) error {
				return timedOut(context.Background(), mpi.Run(np, c.body, mpi.WithRecvTimeout(callTimeout)))
			})
			if err != nil {
				return nil, nil, err
			}
			m[fmt.Sprintf("mpi.%s.np%d_us", c.name, np)] = metric{us(d), "us"}
			var world *mpi.Comm
			err = mpi.Run(np, func(cm *mpi.Comm) error {
				if cm.Rank() == 0 {
					world = cm
				}
				return c.body(cm)
			}, mpi.WithRecvTimeout(callTimeout))
			if err != nil {
				return nil, nil, err
			}
			msgs += float64(world.Stats().Sends)
		}
	}
	m["mpi.msgs_per_run"] = metric{msgs / float64(len(collectives)*len(mpiTasks)), "count"}
	return m, r.failures, nil
}

// collectives mirror the communication of the mpi-collectives
// workload's patternlets (internal/collection/mpi.go) without printing.
var collectives = []struct {
	name string
	body func(c *mpi.Comm) error
}{
	{"allreduce", func(c *mpi.Comm) error {
		_, err := mpi.Allreduce(c, c.Rank()+1, mpi.Sum[int]())
		return err
	}},
	{"allgather", func(c *mpi.Comm) error {
		_, err := mpi.Allgather(c, []int{c.Rank() * 10})
		return err
	}},
	{"broadcast2", func(c *mpi.Comm) error {
		var data []int
		if c.Rank() == 0 {
			data = []int{10, 20, 30, 40}
		}
		if _, err := mpi.Bcast(c, data, 0); err != nil {
			return err
		}
		return mpi.Barrier(c)
	}},
	{"reduction", func(c *mpi.Comm) error {
		sq := (c.Rank() + 1) * (c.Rank() + 1)
		if _, err := mpi.Reduce(c, sq, mpi.Sum[int](), 0); err != nil {
			return err
		}
		_, err := mpi.Reduce(c, sq, mpi.Max[int](), 0)
		return err
	}},
	{"scatter", func(c *mpi.Comm) error {
		var send []int
		if c.Rank() == 0 {
			send = make([]int, 3*c.Size())
			for i := range send {
				send[i] = i
			}
		}
		_, err := mpi.Scatter(c, send, 0)
		return err
	}},
	{"gather", func(c *mpi.Comm) error {
		arr := []int{c.Rank() * 10, c.Rank()*10 + 1, c.Rank()*10 + 2}
		_, err := mpi.Gather(c, arr, 0)
		return err
	}},
}

// digest is the content address the daemon's cache gives a request.
func digest(key string, opts core.RunOptions) store.Digest {
	p, _ := collection.Default.Get(key)
	seed := opts.Seed
	if seed == 0 {
		seed = core.DefaultSeed
	}
	return store.ResultDigest(collection.Default.Fingerprint(), p.Key(), p.ResolveTasks(opts.NumTasks),
		p.EffectiveDirectives(opts.Toggles), p.EffectiveParams(opts.Params), seed, false, 0)
}

// serverOptions are patternletd's defaults with a run store.
func serverOptions(st *store.Store) []serve.Option {
	return []serve.Option{
		serve.WithWorkers(serve.DefaultWorkers),
		serve.WithQueueDepth(serve.DefaultQueueDepth),
		serve.WithTimeout(serve.DefaultRequestTimeout),
		serve.WithMaxTimeout(serve.DefaultMaxTimeout),
		serve.WithLatencyHistograms(),
		serve.WithStore(st),
	}
}

// inProcessServer is one daemon's handler in this process. stop shuts
// it down.
func inProcessServer(storeDir string) (http.Handler, func(), error) {
	st, err := store.Open(storeDir)
	if err != nil {
		return nil, nil, err
	}
	srv := serve.New(collection.Default, serverOptions(st)...)
	return srv.Handler(), func() {
		srv.Shutdown(context.Background())
		st.Close()
	}, nil
}

// inProcessRing is a two-member ring in this process: front is the
// handler of the member that does not own rt's key, and it forwards to
// the owner over a loopback socket, so the hop is real. stop shuts both
// down.
func inProcessRing(rt *ringTraffic, frontDir, ownerDir string) (front, owner http.Handler, stop func(), err error) {
	frontStore, err := store.Open(frontDir)
	if err != nil {
		return nil, nil, nil, err
	}
	ownerStore, err := store.Open(ownerDir)
	if err != nil {
		frontStore.Close()
		return nil, nil, nil, err
	}
	other := "n1"
	if rt.owner == "n1" {
		other = "n2"
	}
	lns := map[string]net.Listener{}
	peers := map[string]string{}
	for _, id := range []string{rt.owner, other} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, nil, err
		}
		lns[id], peers[id] = ln, ln.Addr().String()
	}
	ownerSrv := serve.New(collection.Default, append(serverOptions(ownerStore),
		serve.WithCluster(serve.ClusterConfig{Self: rt.owner, Peers: peers}))...)
	frontSrv := serve.New(collection.Default, append(serverOptions(frontStore),
		serve.WithCluster(serve.ClusterConfig{Self: other, Peers: peers}))...)
	hsOwner := &http.Server{Handler: ownerSrv.Handler()}
	hsFront := &http.Server{Handler: frontSrv.Handler()}
	go hsOwner.Serve(lns[rt.owner])
	go hsFront.Serve(lns[other])
	return frontSrv.Handler(), ownerSrv.Handler(), func() {
		frontSrv.Shutdown(context.Background())
		ownerSrv.Shutdown(context.Background())
		hsFront.Close()
		hsOwner.Close()
		frontStore.Close()
		ownerStore.Close()
	}, nil
}

// routeUS is what a forward adds to a run: the forwarding member's
// ring_route p50 minus the owner's own e2e p50, in microseconds.
func routeUS(fwd, owner map[string]int64) float64 {
	return float64(fwd["serve.stage.ring_route.p50_ns"]-owner["serve.stage.e2e.p50_ns"]) / 1e3
}

// countersOf reads a handler's /metrics.json.
func countersOf(h http.Handler) (map[string]int64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics.json", nil))
	var snap map[string]int64
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		return nil, fmt.Errorf("decode /metrics.json: %w", err)
	}
	return snap, nil
}
