package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Failure causes, each counted on its own.
const (
	cause503       = "status_503"
	cause504       = "status_504"
	causeOther     = "status_other"
	causeTransport = "transport"
	causeWrong     = "wrong_output"
)

var causeOrder = []string{cause503, cause504, causeOther, causeTransport, causeWrong}

// tally is the checked outcome of a window.
type tally struct {
	attempted, ok int64
	causes        map[string]int64
	oks           []sample // the OK, checked replies
}

func (t tally) causeLine() string {
	parts := make([]string, len(causeOrder))
	for i, c := range causeOrder {
		parts[i] = fmt.Sprintf("%s=%d", c, t.causes[c])
	}
	return strings.Join(parts, " ")
}

// check compares every 200 reply's signature with the expected one and
// classifies every other outcome by cause. Expected signatures are
// computed once per distinct call id, on all cores, here after the
// window.
func check(samples []sample, tr traffic) (tally, error) {
	var ids []int64
	seen := map[int64]bool{}
	for _, s := range samples {
		if s.status == http.StatusOK && !seen[s.id] {
			seen[s.id] = true
			ids = append(ids, s.id)
		}
	}
	wants, err := wantAll(ids, tr)
	if err != nil {
		return tally{}, err
	}
	t := tally{causes: map[string]int64{}}
	for _, s := range samples {
		t.attempted++
		switch {
		case s.status == 0:
			t.causes[causeTransport]++
		case s.status == http.StatusServiceUnavailable:
			t.causes[cause503]++
		case s.status == http.StatusGatewayTimeout:
			t.causes[cause504]++
		case s.status != http.StatusOK:
			t.causes[causeOther]++
		case s.sig != wants[s.id]:
			t.causes[causeWrong]++
		default:
			t.ok++
			t.oks = append(t.oks, s)
		}
	}
	return t, nil
}

// wantAll computes tr.want for every id with GOMAXPROCS workers.
func wantAll(ids []int64, tr traffic) (map[int64]uint64, error) {
	out := make(map[int64]uint64, len(ids))
	var mu sync.Mutex
	var firstErr error
	next := make(chan int64)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range next {
				v, err := tr.want(id)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("expected output for call %d: %w", id, err)
				}
				out[id] = v
				mu.Unlock()
			}
		}()
	}
	for _, id := range ids {
		next <- id
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

// signReply decodes a 200 body and signs it; a body that does not decode
// gets signature 0, which no expected output has, so it fails the check.
func signReply(tr traffic, body []byte) uint64 {
	var r runReply
	if err := json.Unmarshal(body, &r); err != nil {
		return 0
	}
	return tr.sign(r)
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64()) | 1 // never 0: 0 marks an unreadable reply
}

// lineSet signs the multiset of a transcript's lines, ignoring their
// order: a sum of per-line hashes.
func lineSet(s string) uint64 {
	var sum uint64
	for _, line := range strings.Split(s, "\n") {
		sum += hashString(line)
	}
	return sum | 1
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// latencies returns the samples' latencies in nanoseconds.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.lat)
	}
	return out
}

// sliceStats are a window's figures taken per whole one-second slice
// (by completion time) and reported as the median over slices: host
// noise on a shared machine comes in bursts of a few seconds, and a
// median over slices keeps one burst from deciding a run.
type sliceStats struct {
	qps, p50NS, p99NS float64
	cpuPerReq         float64 // daemon CPU seconds per OK reply
	counts            []int   // OK replies in each slice
	stealPct          []int   // host steal in each slice, whole percent
	used              int     // slices the medians are taken over
}

// A slice in which the hypervisor stole more than maxStealPct of the
// machine's CPU time measures the neighbours, not the program: it is
// left out of the medians while at least minQuiet quiet slices remain.
// With fewer, every slice counts and the run reads as slow as it was.
const (
	maxStealPct = 2
	minQuiet    = 5
)

// tick is what the window records at each whole second.
type tick struct {
	cpu                   float64 // the daemons' CPU seconds so far
	hostTotal, hostSteals int64   // /proc/stat ticks so far
}

// stealPct is the share of host CPU time stolen between t and u.
func (t tick) stealPct(u tick) float64 {
	return 100 * ratio(float64(u.hostSteals-t.hostSteals), float64(u.hostTotal-t.hostTotal))
}

// slicesOf cuts oks into the whole seconds at spans: at[k] was read k
// seconds into the window.
func slicesOf(oks []sample, at []tick) sliceStats {
	n := len(at) - 1
	if n < 1 {
		return sliceStats{}
	}
	per := make([][]float64, n)
	for _, s := range oks {
		if k := int((s.start + s.lat) / int64(time.Second)); k < n {
			per[k] = append(per[k], float64(s.lat))
		}
	}
	var st sliceStats
	stolen := make([]bool, n)
	quiet := 0
	for k, lat := range per {
		steal := at[k].stealPct(at[k+1])
		st.counts = append(st.counts, len(lat))
		st.stealPct = append(st.stealPct, int(steal+0.5))
		stolen[k] = steal > maxStealPct
		if !stolen[k] {
			quiet++
		}
	}
	var qps, p50, p99, cpu []float64
	for k, lat := range per {
		if quiet >= minQuiet && stolen[k] {
			continue
		}
		st.used++
		qps = append(qps, float64(len(lat)))
		if len(lat) == 0 {
			continue
		}
		a, b, _ := percentiles(lat)
		p50 = append(p50, a)
		p99 = append(p99, b)
		cpu = append(cpu, (at[k+1].cpu-at[k].cpu)/float64(len(lat)))
	}
	st.qps, st.p50NS, st.p99NS, st.cpuPerReq = median(qps), median(p50), median(p99), median(cpu)
	return st
}

// percentiles returns the nearest-rank p50 and p99 of xs and how many
// samples lie above the p99 rank.
func percentiles(xs []float64) (p50, p99 float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := func(q float64) int { return max(int(math.Ceil(q*float64(len(s))))-1, 0) }
	i99 := rank(0.99)
	return s[rank(0.5)], s[i99], len(s) - 1 - i99
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
