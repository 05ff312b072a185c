package mpi

import (
	"fmt"
	"sync"
	"testing"
)

// The fast Allreduce (recursive doubling) must be indistinguishable from
// the composition it replaced, which is kept as AllreduceComposed
// precisely to serve as an oracle here. Allgather is the composition
// itself; AllgatherComposed pins that it stays so.

func TestAllreduceMatchesComposedAllWorldSizes(t *testing.T) {
	for np := 1; np <= 8; np++ {
		err := Run(np, func(c *Comm) error {
			v := (c.Rank() + 1) * (c.Rank() + 1)
			fast, err := Allreduce(c, v, Sum[int]())
			if err != nil {
				return err
			}
			oracle, err := AllreduceComposed(c, v, Sum[int]())
			if err != nil {
				return err
			}
			if fast != oracle {
				t.Errorf("np=%d rank %d: Allreduce = %d, composed oracle = %d", np, c.Rank(), fast, oracle)
			}
			return nil
		}, WithRecvTimeout(collGuard))
		if err != nil {
			t.Fatalf("np=%d: %v", np, err)
		}
	}
}

// Recursive doubling must preserve rank order for associative but
// non-commutative ops: string concatenation exposes any merge that puts
// the higher rank's partial on the wrong side. Odd world sizes exercise
// the non-power-of-two pre/post folding.
func TestAllreduceNonCommutativeOp(t *testing.T) {
	concat := func(a, b string) string { return a + b }
	for _, np := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		want := ""
		for r := 0; r < np; r++ {
			want += fmt.Sprintf("<%d>", r)
		}
		var mu sync.Mutex
		got := map[int]string{}
		err := Run(np, func(c *Comm) error {
			v, err := Allreduce(c, fmt.Sprintf("<%d>", c.Rank()), concat)
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
			if got[r] != want {
				t.Errorf("np=%d rank %d: Allreduce = %q, want rank-ordered fold %q", np, r, got[r], want)
			}
		}
	}
}

func TestAllgatherMatchesComposedVariableLengths(t *testing.T) {
	for np := 1; np <= 6; np++ {
		// Rank r contributes r+1 elements, so the ring must forward blocks
		// of unequal length (the MPI_Allgatherv case).
		err := Run(np, func(c *Comm) error {
			contrib := make([]int, c.Rank()+1)
			for i := range contrib {
				contrib[i] = c.Rank()*100 + i
			}
			fast, err := Allgather(c, contrib)
			if err != nil {
				return err
			}
			oracle, err := AllgatherComposed(c, contrib)
			if err != nil {
				return err
			}
			if len(fast) != len(oracle) {
				t.Errorf("np=%d rank %d: ring gathered %v, oracle %v", np, c.Rank(), fast, oracle)
				return nil
			}
			for i := range oracle {
				if fast[i] != oracle[i] {
					t.Errorf("np=%d rank %d: element %d = %d, oracle %d", np, c.Rank(), i, fast[i], oracle[i])
				}
			}
			return nil
		}, WithRecvTimeout(collGuard))
		if err != nil {
			t.Fatalf("np=%d: %v", np, err)
		}
	}
}

// The ring result must also be right in absolute terms, not merely agree
// with the composition: every rank sees every contribution in rank order.
func TestAllgatherRankOrder(t *testing.T) {
	const np = 5
	err := Run(np, func(c *Comm) error {
		all, err := Allgather(c, []int{c.Rank() * 10, c.Rank()*10 + 1})
		if err != nil {
			return err
		}
		if len(all) != 2*np {
			t.Errorf("rank %d: %v", c.Rank(), all)
			return nil
		}
		for r := 0; r < np; r++ {
			for i := 0; i < 2; i++ {
				if all[2*r+i] != r*10+i {
					t.Errorf("rank %d: all[%d] = %d, want %d", c.Rank(), 2*r+i, all[2*r+i], r*10+i)
				}
			}
		}
		return nil
	}, WithRecvTimeout(collGuard))
	if err != nil {
		t.Fatal(err)
	}
}
