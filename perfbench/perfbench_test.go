package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildDaemon compiles cmd/patternletd from this checkout.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "patternletd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/patternletd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build patternletd: %v\n%s", err, out)
	}
	return bin
}

// declared is the metric list of ../BENCHMARK.json.
type declared struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func shortOptions(t *testing.T, bin, workload string, trace bool) options {
	return options{
		workload: workload, seed: 7, seconds: 1.2, trace: trace,
		daemon: bin, work: t.TempDir(),
		setups: 1, warmup: 50 * time.Millisecond, scale: 0.02,
	}
}

// TestShortModeEveryWorkload runs every workload briefly, untraced and
// traced, and asserts that each metric BENCHMARK.json names prints with
// its unit, in the result and as a report line.
func TestShortModeEveryWorkload(t *testing.T) {
	bin := buildDaemon(t)
	d := readDeclared(t)
	for _, w := range d.Workloads {
		if _, ok := specByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q the harness does not have", w.Name)
		}
	}
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", sp.name, trace), func(t *testing.T) {
				var out bytes.Buffer
				res, err := run(shortOptions(t, bin, sp.name, trace), &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("correct=%t attempted=%d\n%s", res.Correct, res.Attempted, out.String())
				}
				want, kind := d.EndToEnd, "end_to_end"
				if trace {
					want, kind = d.PerLayer, "per_layer"
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing from the result", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, declared %q", m.Name, got.Unit, m.Unit)
					}
					if !strings.Contains(out.String(), "\n"+kind+" "+m.Name+" ") ||
						!strings.Contains(out.String(), " "+m.Unit+"\n") {
						t.Errorf("metric %s not printed with unit %s:\n%s", m.Name, m.Unit, out.String())
					}
				}
			})
		}
	}
}

// corrupt wraps a workload and flips every expected output.
type corrupt struct{ traffic }

func (c corrupt) want(id int64) (uint64, error) {
	w, err := c.traffic.want(id)
	return w ^ 1<<40, err
}

// TestCorruptedExpectationIsAFailure checks real replies against a
// corrupted expected output: every one must count as wrong_output, none
// as OK.
func TestCorruptedExpectationIsAFailure(t *testing.T) {
	bin := buildDaemon(t)
	o := shortOptions(t, bin, "mpi-collectives", false)
	cl, err := startCluster(o, 1, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.stop()
	tr := newMPITraffic()
	win := drive(cl.nodes[0].addr, tr, 1, phaseWindow, 1, 200*time.Millisecond, nil, nil)

	good, err := check(win.samples, tr)
	if err != nil {
		t.Fatal(err)
	}
	if good.attempted == 0 || good.ok != good.attempted {
		t.Fatalf("honest check: ok %d of %d, causes %s", good.ok, good.attempted, good.causeLine())
	}
	bad, err := check(win.samples, corrupt{tr})
	if err != nil {
		t.Fatal(err)
	}
	if bad.ok != 0 || bad.causes[causeWrong] != bad.attempted || len(bad.oks) != 0 {
		t.Fatalf("corrupted check: ok %d of %d, causes %s", bad.ok, bad.attempted, bad.causeLine())
	}
}

// TestFailuresCountedByCause classifies one sample of every outcome.
func TestFailuresCountedByCause(t *testing.T) {
	tr := newMPITraffic()
	want, err := tr.want(0)
	if err != nil {
		t.Fatal(err)
	}
	samples := []sample{
		{id: 0, status: 200, sig: want, lat: 5},
		{id: 0, status: 200, sig: want + 2, lat: 6},
		{id: 0, status: 503},
		{id: 0, status: 504},
		{id: 0, status: 500},
		{id: 0, status: 0},
	}
	got, err := check(samples, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got.attempted != 6 || got.ok != 1 || len(got.oks) != 1 {
		t.Fatalf("attempted %d ok %d latencies %d", got.attempted, got.ok, len(got.oks))
	}
	for _, c := range causeOrder {
		if got.causes[c] != 1 {
			t.Errorf("cause %s counted %d times, want 1 (%s)", c, got.causes[c], got.causeLine())
		}
	}
}

// TestSlicesLeaveOutStolenSeconds pins the slice medians: seconds in
// which the hypervisor stole more than maxStealPct are left out while
// minQuiet quiet ones remain, and count again when too few are quiet.
func TestSlicesLeaveOutStolenSeconds(t *testing.T) {
	build := func(stolen int) ([]sample, []tick) {
		var oks []sample
		at := []tick{{}}
		for k := 0; k < 10; k++ {
			lat, steal := int64(time.Millisecond), int64(0)
			if k < stolen {
				lat, steal = 9*int64(time.Millisecond), 50
			}
			for i := 0; i < 100; i++ {
				oks = append(oks, sample{start: int64(k)*int64(time.Second) + int64(i)*int64(time.Millisecond), lat: lat})
			}
			prev := at[len(at)-1]
			at = append(at, tick{cpu: prev.cpu + 0.01, hostTotal: prev.hostTotal + 200, hostSteals: prev.hostSteals + steal})
		}
		return oks, at
	}
	oks, at := build(4) // six quiet seconds: the stolen four are left out
	if st := slicesOf(oks, at); st.used != 6 || st.p50NS != float64(time.Millisecond) || st.qps != 100 {
		t.Errorf("4 stolen: used %d p50 %v qps %v, want 6, 1ms, 100", st.used, st.p50NS, st.qps)
	}
	oks, at = build(6) // four quiet seconds are too few: every second counts
	if st := slicesOf(oks, at); st.used != 10 || st.p50NS != float64(9*time.Millisecond) {
		t.Errorf("6 stolen: used %d p50 %v, want 10, 9ms", st.used, st.p50NS)
	}
}
