package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/align"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/ring"
)

// call is one POST /run request body and the id its expected output is
// looked up by.
type call struct {
	body []byte
	id   int64
}

// runReply is the part of a RunResponse the output check reads.
type runReply struct {
	Output string `json:"output"`
	Node   string `json:"node"`
	Cached bool   `json:"cached"`
}

// traffic is one workload's inputs and output check.
type traffic interface {
	// next draws the next request a caller sends.
	next(rng *rand.Rand) call
	// fill loads the state the window reads; it is part of set-up.
	fill(cl *cluster) error
	// target is the daemon the callers connect to.
	target(cl *cluster) *daemon
	// sign reduces a 200 reply to the signature the check compares.
	sign(r runReply) uint64
	// want computes the expected signature for a call id. It runs
	// after the window.
	want(id int64) (uint64, error)
}

// spec names a workload and its topology.
type spec struct {
	name  string
	why   string
	conns int // closed-loop callers, one connection each
	nodes int // daemons; more than one form a static ring
	build func(seed int64, scale float64) (traffic, error)
}

var specs = []spec{
	{
		name:  "align-wavefront",
		why:   "1 caller, align.omp n=1024 with a fresh seed per request: omp task runtime and align kernel do the work; every request is a store miss plus a log append",
		conns: 1, nodes: 1,
		build: func(int64, float64) (traffic, error) { return alignTraffic{}, nil },
	},
	{
		name:  "store-hit",
		why:   "2 callers re-request ~1e4 deterministic runs stored at set-up: HTTP decode/encode, cache lookup and store read do the work; no store writes while measured",
		conns: 2, nodes: 1,
		build: func(seed int64, scale float64) (traffic, error) { return newStoreHit(seed, scale), nil },
	},
	{
		name:  "mpi-collectives",
		why:   "2 callers, six collective patternlets at tasks 4 and 32 (either side of the policy thresholds 8 and 16): collectives, mailbox and codec dominate; never cached",
		conns: 2, nodes: 1,
		build: func(int64, float64) (traffic, error) { return newMPITraffic(), nil },
	},
	{
		name:  "ring-forward",
		why:   "2 callers on the non-owner of a cheap uncacheable key on a 2-daemon ring: every request takes one forward hop, the only workload running internal/ring",
		conns: 2, nodes: 2,
		build: func(int64, float64) (traffic, error) { return newRingTraffic() },
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

// runOptions maps a /run body onto the Registry.Run call the daemon
// makes for it.
func runOptions(body []byte) (string, core.RunOptions, error) {
	var req struct {
		Key    string         `json:"key"`
		Tasks  int            `json:"tasks"`
		Params map[string]int `json:"params"`
		Seed   int64          `json:"seed"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return "", core.RunOptions{}, err
	}
	return req.Key, core.RunOptions{NumTasks: req.Tasks, Params: req.Params, Seed: req.Seed}, nil
}

// runInProcess runs a /run body through Registry.Run in this process.
func runInProcess(ctx context.Context, body []byte) (core.Result, error) {
	key, opts, err := runOptions(body)
	if err != nil {
		return core.Result{}, err
	}
	return collection.Default.Run(ctx, key, opts)
}

// --- align-wavefront --------------------------------------------------------

// alignN is the sequence length every align-wavefront request asks for.
const alignN = 1024

// alignTraffic sends align.omp at n=1024 with a fresh seed each time, so
// every request misses the store. The call id is the seed.
type alignTraffic struct{}

func (alignTraffic) next(rng *rand.Rand) call {
	seed := rng.Int63n(1<<53) + 1
	return call{[]byte(fmt.Sprintf(`{"key":"align.omp","params":{"n":%d},"seed":%d}`, alignN, seed)), seed}
}

func (alignTraffic) fill(*cluster) error             { return nil }
func (alignTraffic) target(cl *cluster) *daemon      { return cl.nodes[0] }
func (alignTraffic) sign(r runReply) uint64          { return hashString(r.Output) }
func (alignTraffic) want(seed int64) (uint64, error) { return alignWant(seed) }

// alignWant is the serial oracle's transcript for a seed.
func alignWant(seed int64) (uint64, error) {
	sum, err := align.Serial(align.Config{N: alignN, Seed: seed})
	if err != nil {
		return 0, err
	}
	return hashString(sum.String()), nil
}

// --- store-hit ---------------------------------------------------------------

// storeKeys are the Deterministic-tagged patternlets the working set is
// drawn from: the only ones the daemon caches, and all cheap to fill.
var storeKeys = []string{"reduction2.omp", "forkJoin.pthreads", "sequenceNumbers.mpi"}

// storeWorkingSet is the number of distinct stored runs store-hit reads.
const storeWorkingSet = 10000

// storeHit re-requests a working set of distinct run digests (key ×
// seed), all stored during set-up. The call id is the entry's index.
type storeHit struct {
	entries []call
	mu      sync.Mutex
	fillOut []string // each entry's output from its fill-time miss
}

func newStoreHit(seed int64, scale float64) *storeHit {
	n := max(int(storeWorkingSet*scale), 50)
	s := &storeHit{entries: make([]call, n), fillOut: make([]string, n)}
	for j := range s.entries {
		runSeed := int64(mix64(uint64(seed)<<24+uint64(j))>>2) + 1
		s.entries[j] = call{[]byte(fmt.Sprintf(`{"key":%q,"seed":%d}`, storeKeys[j%len(storeKeys)], runSeed)), int64(j)}
	}
	return s
}

func (s *storeHit) next(rng *rand.Rand) call { return s.entries[rng.Intn(len(s.entries))] }

func (s *storeHit) target(cl *cluster) *daemon { return cl.nodes[0] }

// fill requests every entry once over four connections; each must be an
// executed miss, and its output is what every later hit must repeat.
func (s *storeHit) fill(cl *cluster) error {
	const conns = 4
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			k := &conn{addr: s.target(cl).addr}
			defer k.close()
			for j := c; j < len(s.entries); j += conns {
				status, body, err := k.post("/run", s.entries[j].body)
				if err == nil && status != 200 {
					err = fmt.Errorf("status %d: %s", status, body)
				}
				var r runReply
				if err == nil {
					err = json.Unmarshal(body, &r)
				}
				if err == nil && r.Cached {
					err = fmt.Errorf("fill request %s was already cached", s.entries[j].body)
				}
				if err != nil {
					errs[c] = fmt.Errorf("store fill: %w", err)
					return
				}
				s.mu.Lock()
				s.fillOut[j] = r.Output
				s.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sign gives an uncached reply a signature no output hashes to, so a
// hit that was not served from the store fails the check.
func (s *storeHit) sign(r runReply) uint64 {
	if !r.Cached {
		return 0
	}
	return hashString(r.Output)
}

func (s *storeHit) want(j int64) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return hashString(s.fillOut[j]), nil
}

// --- mpi-collectives ---------------------------------------------------------

// mpiKeys are the collective patternlets; mpiTasks sit on both sides of
// the collective policy's thresholds (8 and 16).
var (
	mpiKeys  = []string{"allreduce", "allgather", "broadcast2", "reduction", "scatter", "gather"}
	mpiTasks = []int{4, 32}
)

// mpiTraffic draws uniformly from the twelve (collective, tasks) pairs.
// The call id is the pair's index. Rank print order varies from run to
// run, so a reply must hold the same lines as the in-process run, in
// any order.
type mpiTraffic struct{ kinds []call }

func newMPITraffic() *mpiTraffic {
	m := &mpiTraffic{}
	for _, k := range mpiKeys {
		for _, np := range mpiTasks {
			m.kinds = append(m.kinds, call{[]byte(fmt.Sprintf(`{"key":"%s.mpi","tasks":%d}`, k, np)), int64(len(m.kinds))})
		}
	}
	return m
}

func (m *mpiTraffic) next(rng *rand.Rand) call      { return m.kinds[rng.Intn(len(m.kinds))] }
func (m *mpiTraffic) fill(*cluster) error           { return nil }
func (m *mpiTraffic) target(cl *cluster) *daemon    { return cl.nodes[0] }
func (m *mpiTraffic) sign(r runReply) uint64        { return lineSet(r.Output) }
func (m *mpiTraffic) want(id int64) (uint64, error) { return inProcessLines(m.kinds[id].body) }

// inProcessLines signs the lines of the same request run in this
// process, under the daemon's default deadline.
func inProcessLines(body []byte) (uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
	defer cancel()
	res, err := runInProcess(ctx, body)
	if err != nil {
		return 0, err
	}
	return lineSet(res.Output), nil
}

// --- ring-forward ------------------------------------------------------------

// ringKey is cheap and not Deterministic, so the store never answers it
// and every request is forwarded to its owner.
const ringKey = "spmd.omp"

// ringTraffic sends ringKey to the member that does not own it. A reply
// must name the owner as its node and hold the key's lines.
type ringTraffic struct {
	body  []byte
	owner string
}

func newRingTraffic() (*ringTraffic, error) {
	// The daemons build the same ring: default virtual nodes over the
	// member ids startCluster assigns.
	owner := ring.New(0, "n1", "n2").Owner(ringKey)
	if owner == "" {
		return nil, fmt.Errorf("ring: no owner for %s", ringKey)
	}
	return &ringTraffic{body: []byte(fmt.Sprintf(`{"key":%q}`, ringKey)), owner: owner}, nil
}

func (r *ringTraffic) next(*rand.Rand) call { return call{r.body, 0} }
func (r *ringTraffic) fill(*cluster) error  { return nil }

func (r *ringTraffic) target(cl *cluster) *daemon {
	for _, d := range cl.nodes {
		if d.id != r.owner {
			return d
		}
	}
	return nil
}

func (r *ringTraffic) sign(rep runReply) uint64 {
	return mix64(hashString(rep.Node) ^ lineSet(rep.Output))
}

func (r *ringTraffic) want(int64) (uint64, error) {
	lines, err := inProcessLines(r.body)
	if err != nil {
		return 0, err
	}
	return mix64(hashString(r.owner) ^ lines), nil
}
