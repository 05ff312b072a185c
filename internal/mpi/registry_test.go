package mpi

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// Every registered algorithm is pinned here against the linear/composed
// oracle, for world sizes 1–9 (including non-powers-of-two) and, where an
// operator is involved, a non-commutative op — string concatenation
// exposes any schedule that folds partials in the wrong order.

// collGuard bounds every blocking receive in the collective suites, so a
// mis-scheduled algorithm fails fast with ErrDeadlock instead of hanging
// the test binary.
const collGuard = 5 * time.Second

// runAlgo runs body under one forced collective algorithm with the
// deadlock guard.
func runAlgo(t *testing.T, np int, coll, algo string, body func(c *Comm) error) {
	t.Helper()
	err := Run(np, body,
		WithCollectiveAlgorithm(coll, algo), WithRecvTimeout(collGuard))
	if err != nil {
		t.Fatalf("np=%d %s/%s: %v", np, coll, algo, err)
	}
}

func concat(a, b string) string { return a + b }

// tagOf returns rank r's distinguishable contribution.
func tagOf(r int) string { return fmt.Sprintf("<%d>", r) }

// prefixWant is the rank-ordered fold of tags lo..hi inclusive.
func prefixWant(lo, hi int) string {
	var b strings.Builder
	for r := lo; r <= hi; r++ {
		b.WriteString(tagOf(r))
	}
	return b.String()
}

var equivalenceWorlds = []int{1, 2, 3, 4, 5, 6, 7, 8, 9}

func TestRegistryContents(t *testing.T) {
	want := map[string][]string{
		CollBarrier:   {AlgoCentral, AlgoDissemination},
		CollBcast:     {AlgoBinomial, AlgoLinear},
		CollReduce:    {AlgoBinomial, AlgoLinear},
		CollGather:    {AlgoBinomial, AlgoLinear},
		CollScatter:   {AlgoBinomial, AlgoLinear},
		CollAllgather: {AlgoComposed},
		CollAllreduce: {AlgoComposed, AlgoRecursiveDoubling},
		CollAlltoall:  {AlgoLinear, AlgoPairwise},
		CollScan:      {AlgoDoubling, AlgoLinear},
		CollExscan:    {AlgoDoubling, AlgoLinear},
	}
	if got := Collectives(); len(got) != len(want) {
		t.Fatalf("Collectives() = %v", got)
	}
	for coll, algos := range want {
		got := CollectiveAlgorithms(coll)
		if len(got) != len(algos) {
			t.Fatalf("%s algorithms = %v, want %v", coll, got, algos)
		}
		for i := range algos {
			if got[i] != algos[i] {
				t.Fatalf("%s algorithms = %v, want %v", coll, got, algos)
			}
		}
	}
	if CollectiveAlgorithms("no-such") != nil {
		t.Fatal("unknown collective returned algorithms")
	}
}

func TestWithCollectiveAlgorithmValidation(t *testing.T) {
	body := func(c *Comm) error { return nil }
	err := Run(2, body, WithCollectiveAlgorithm("no-such", AlgoLinear))
	if err == nil || !strings.Contains(err.Error(), "unknown collective") {
		t.Fatalf("unknown collective: %v", err)
	}
	err = Run(2, body, WithCollectiveAlgorithm(CollBcast, AlgoPairwise))
	if err == nil || !strings.Contains(err.Error(), "no algorithm") {
		t.Fatalf("unknown algorithm: %v", err)
	}
}

func TestDefaultPolicyThresholds(t *testing.T) {
	cases := []struct {
		coll     string
		p, bytes int
		want     string
	}{
		{CollBcast, 4, 100, AlgoLinear},
		{CollBcast, 4, treePayloadBytes, AlgoBinomial}, // large payload: relay, don't serialize at root
		{CollBcast, treeWorldSize, 0, AlgoBinomial},
		{CollBarrier, 4, 0, AlgoCentral},
		{CollBarrier, treeWorldSize, 0, AlgoDissemination},
		{CollReduce, 4, 0, AlgoLinear},
		{CollReduce, treeWorldSize, 0, AlgoBinomial},
		{CollAllreduce, 4, 0, AlgoComposed},
		{CollAllreduce, treeWorldSize, 0, AlgoRecursiveDoubling},
		{CollAllgather, 4, 0, AlgoComposed},
		{CollAllgather, treeWorldSize, 0, AlgoComposed},
		{CollAllgather, 4 * treeWorldSize, 0, AlgoComposed},
		{CollGather, 15, 0, AlgoLinear},
		{CollGather, 2 * treeWorldSize, 0, AlgoBinomial},
		{CollScatter, 15, 0, AlgoLinear},
		{CollScatter, 2 * treeWorldSize, 0, AlgoBinomial},
		{CollAlltoall, 15, 0, AlgoLinear},
		{CollAlltoall, 2 * treeWorldSize, 0, AlgoPairwise},
		{CollScan, 4, 0, AlgoLinear},
		{CollScan, treeWorldSize, 0, AlgoDoubling},
		{CollExscan, treeWorldSize, 0, AlgoDoubling},
	}
	for _, tc := range cases {
		if got := collectiveRegistry[tc.coll].pick(tc.p, tc.bytes); got != tc.want {
			t.Errorf("%s pick(p=%d, bytes=%d) = %s, want %s", tc.coll, tc.p, tc.bytes, got, tc.want)
		}
	}
}

func TestBarrierAlgorithmsOrderPhases(t *testing.T) {
	for _, algo := range CollectiveAlgorithms(CollBarrier) {
		for _, np := range equivalenceWorlds {
			var before, violations int32
			var mu sync.Mutex
			runAlgo(t, np, CollBarrier, algo, func(c *Comm) error {
				for phase := 1; phase <= 3; phase++ {
					mu.Lock()
					before++
					mu.Unlock()
					if err := Barrier(c); err != nil {
						return err
					}
					mu.Lock()
					if int(before) < np*phase {
						violations++
					}
					mu.Unlock()
					if err := Barrier(c); err != nil {
						return err
					}
				}
				return nil
			})
			if violations != 0 {
				t.Fatalf("%s np=%d: %d barrier violations", algo, np, violations)
			}
		}
	}
}

func TestBcastAlgorithmsMatchRoot(t *testing.T) {
	for _, algo := range CollectiveAlgorithms(CollBcast) {
		for _, np := range equivalenceWorlds {
			for _, root := range []int{0, np - 1} {
				runAlgo(t, np, CollBcast, algo, func(c *Comm) error {
					var v []string
					if c.Rank() == root {
						v = []string{tagOf(root), "payload"}
					}
					got, err := Bcast(c, v, root)
					if err != nil {
						return err
					}
					if len(got) != 2 || got[0] != tagOf(root) || got[1] != "payload" {
						t.Errorf("%s np=%d root=%d rank %d: %v", algo, np, root, c.Rank(), got)
					}
					return nil
				})
			}
		}
	}
}

func TestReduceAlgorithmsNonCommutative(t *testing.T) {
	for _, algo := range CollectiveAlgorithms(CollReduce) {
		for _, np := range equivalenceWorlds {
			for _, root := range []int{0, np - 1} {
				want := prefixWant(0, np-1)
				runAlgo(t, np, CollReduce, algo, func(c *Comm) error {
					got, err := Reduce(c, tagOf(c.Rank()), concat, root)
					if err != nil {
						return err
					}
					oracle, err := ReduceLinear(c, tagOf(c.Rank()), concat, root)
					if err != nil {
						return err
					}
					if c.Rank() == root {
						if got != want {
							t.Errorf("%s np=%d root=%d: %q, want %q", algo, np, root, got, want)
						}
						if got != oracle {
							t.Errorf("%s np=%d root=%d: %q, oracle %q", algo, np, root, got, oracle)
						}
					} else if got != "" {
						t.Errorf("%s np=%d root=%d rank %d: non-root got %q", algo, np, root, c.Rank(), got)
					}
					return nil
				})
			}
		}
	}
}

func TestAllreduceAlgorithmsNonCommutative(t *testing.T) {
	for _, algo := range CollectiveAlgorithms(CollAllreduce) {
		for _, np := range equivalenceWorlds {
			want := prefixWant(0, np-1)
			runAlgo(t, np, CollAllreduce, algo, func(c *Comm) error {
				got, err := Allreduce(c, tagOf(c.Rank()), concat)
				if err != nil {
					return err
				}
				if got != want {
					t.Errorf("%s np=%d rank %d: %q, want %q", algo, np, c.Rank(), got, want)
				}
				return nil
			})
		}
	}
}

func TestGatherAlgorithmsRaggedContributions(t *testing.T) {
	for _, algo := range CollectiveAlgorithms(CollGather) {
		for _, np := range equivalenceWorlds {
			for _, root := range []int{0, np - 1} {
				var want []int
				for r := 0; r < np; r++ {
					for i := 0; i <= r; i++ {
						want = append(want, r*100+i)
					}
				}
				runAlgo(t, np, CollGather, algo, func(c *Comm) error {
					contrib := make([]int, c.Rank()+1) // ragged: rank r sends r+1 elements
					for i := range contrib {
						contrib[i] = c.Rank()*100 + i
					}
					got, err := Gather(c, contrib, root)
					if err != nil {
						return err
					}
					if c.Rank() != root {
						if got != nil {
							t.Errorf("%s np=%d root=%d rank %d: non-root got %v", algo, np, root, c.Rank(), got)
						}
						return nil
					}
					if len(got) != len(want) {
						t.Errorf("%s np=%d root=%d: len %d, want %d", algo, np, root, len(got), len(want))
						return nil
					}
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("%s np=%d root=%d: [%d] = %d, want %d", algo, np, root, i, got[i], want[i])
						}
					}
					return nil
				})
			}
		}
	}
}

func TestScatterAlgorithmsDeliverChunks(t *testing.T) {
	const chunk = 3
	for _, algo := range CollectiveAlgorithms(CollScatter) {
		for _, np := range equivalenceWorlds {
			for _, root := range []int{0, np - 1} {
				runAlgo(t, np, CollScatter, algo, func(c *Comm) error {
					var send []int
					if c.Rank() == root {
						send = make([]int, np*chunk)
						for i := range send {
							send[i] = i
						}
					}
					part, err := Scatter(c, send, root)
					if err != nil {
						return err
					}
					if len(part) != chunk {
						t.Errorf("%s np=%d root=%d rank %d: chunk %v", algo, np, root, c.Rank(), part)
						return nil
					}
					for i := range part {
						if part[i] != c.Rank()*chunk+i {
							t.Errorf("%s np=%d root=%d rank %d: part[%d] = %d", algo, np, root, c.Rank(), i, part[i])
						}
					}
					return nil
				})
			}
		}
	}
}

func TestAllgatherAlgorithmsRaggedContributions(t *testing.T) {
	for _, algo := range CollectiveAlgorithms(CollAllgather) {
		for _, np := range equivalenceWorlds {
			var want []int
			for r := 0; r < np; r++ {
				for i := 0; i <= r; i++ {
					want = append(want, r*100+i)
				}
			}
			runAlgo(t, np, CollAllgather, algo, func(c *Comm) error {
				contrib := make([]int, c.Rank()+1)
				for i := range contrib {
					contrib[i] = c.Rank()*100 + i
				}
				got, err := Allgather(c, contrib)
				if err != nil {
					return err
				}
				if len(got) != len(want) {
					t.Errorf("%s np=%d rank %d: len %d, want %d", algo, np, c.Rank(), len(got), len(want))
					return nil
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s np=%d rank %d: [%d] = %d, want %d", algo, np, c.Rank(), i, got[i], want[i])
					}
				}
				return nil
			})
		}
	}
}

func TestAlltoallAlgorithmsCompleteExchange(t *testing.T) {
	const chunk = 2
	for _, algo := range CollectiveAlgorithms(CollAlltoall) {
		for _, np := range equivalenceWorlds {
			runAlgo(t, np, CollAlltoall, algo, func(c *Comm) error {
				send := make([]int, np*chunk)
				for dst := 0; dst < np; dst++ {
					for i := 0; i < chunk; i++ {
						send[dst*chunk+i] = c.Rank()*1000 + dst*10 + i
					}
				}
				got, err := Alltoall(c, send)
				if err != nil {
					return err
				}
				if len(got) != np*chunk {
					t.Errorf("%s np=%d rank %d: len %d", algo, np, c.Rank(), len(got))
					return nil
				}
				for src := 0; src < np; src++ {
					for i := 0; i < chunk; i++ {
						want := src*1000 + c.Rank()*10 + i
						if got[src*chunk+i] != want {
							t.Errorf("%s np=%d rank %d: [%d] = %d, want %d",
								algo, np, c.Rank(), src*chunk+i, got[src*chunk+i], want)
						}
					}
				}
				return nil
			})
		}
	}
}

func TestScanAlgorithmsNonCommutative(t *testing.T) {
	for _, algo := range CollectiveAlgorithms(CollScan) {
		for _, np := range equivalenceWorlds {
			var mu sync.Mutex
			got := map[int]string{}
			runAlgo(t, np, CollScan, algo, func(c *Comm) error {
				v, err := Scan(c, tagOf(c.Rank()), concat)
				if err != nil {
					return err
				}
				mu.Lock()
				got[c.Rank()] = v
				mu.Unlock()
				return nil
			})
			for r := 0; r < np; r++ {
				if want := prefixWant(0, r); got[r] != want {
					t.Errorf("%s np=%d rank %d: %q, want %q", algo, np, r, got[r], want)
				}
			}
		}
	}
}

func TestExscanAlgorithmsNonCommutative(t *testing.T) {
	for _, algo := range CollectiveAlgorithms(CollExscan) {
		for _, np := range equivalenceWorlds {
			var mu sync.Mutex
			got := map[int]string{}
			runAlgo(t, np, CollExscan, algo, func(c *Comm) error {
				v, err := Exscan(c, tagOf(c.Rank()), concat)
				if err != nil {
					return err
				}
				mu.Lock()
				got[c.Rank()] = v
				mu.Unlock()
				return nil
			})
			for r := 0; r < np; r++ {
				want := "" // rank 0: defined as the zero value
				if r > 0 {
					want = prefixWant(0, r-1)
				}
				if got[r] != want {
					t.Errorf("%s np=%d rank %d: %q, want %q", algo, np, r, got[r], want)
				}
			}
		}
	}
}

// Exscan with the numeric op across world sizes 1–8: rank r receives the
// sum of ranks 0..r-1, and rank 0 the zero value.
func TestExscanSumWorldSizes(t *testing.T) {
	for np := 1; np <= 8; np++ {
		var mu sync.Mutex
		got := map[int]int{}
		err := Run(np, func(c *Comm) error {
			v, err := Exscan(c, c.Rank()+1, Sum[int]())
			if err != nil {
				return err
			}
			mu.Lock()
			got[c.Rank()] = v
			mu.Unlock()
			return nil
		}, WithRecvTimeout(collGuard))
		if err != nil {
			t.Fatalf("np=%d: %v", np, err)
		}
		for r := 0; r < np; r++ {
			want := r * (r + 1) / 2 // sum of 1..r
			if got[r] != want {
				t.Errorf("np=%d rank %d: %d, want %d", np, r, got[r], want)
			}
		}
	}
}

// Forced algorithms must also hold over TCP: the schedule is independent
// of the transport underneath.
func TestForcedAlgorithmsOverTCP(t *testing.T) {
	for _, f := range []struct{ coll, algo string }{
		{CollBcast, AlgoBinomial},
		{CollAllreduce, AlgoRecursiveDoubling},
		{CollScan, AlgoDoubling},
	} {
		err := Run(5, func(c *Comm) error {
			v, err := Bcast(c, tagOf(0), 0)
			if err != nil || v != tagOf(0) {
				return fmt.Errorf("bcast = (%q, %v)", v, err)
			}
			s, err := Allreduce(c, tagOf(c.Rank()), concat)
			if err != nil || s != prefixWant(0, 4) {
				return fmt.Errorf("allreduce = (%q, %v)", s, err)
			}
			p, err := Scan(c, tagOf(c.Rank()), concat)
			if err != nil || p != prefixWant(0, c.Rank()) {
				return fmt.Errorf("scan = (%q, %v)", p, err)
			}
			return nil
		}, WithTCP(), WithCollectiveAlgorithm(f.coll, f.algo), WithRecvTimeout(collGuard))
		if err != nil {
			t.Fatalf("%s/%s over TCP: %v", f.coll, f.algo, err)
		}
	}
}
