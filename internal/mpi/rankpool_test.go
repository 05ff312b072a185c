package mpi

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Rank goroutine reuse: a parked goroutine carries nothing from one world
// into the next, every rank of a world runs at once however large the
// world, and the parked set shrinks back to its cap.

func TestRankPanicLeavesNextRunIntact(t *testing.T) {
	const np = 8
	err := Run(np, func(c *Comm) error {
		if c.Rank() == 3 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 3 panicked") {
		t.Fatalf("err = %v, want rank 3's panic", err)
	}
	for i := 0; i < 3; i++ {
		got := make([][]int, np)
		err := Run(np, func(c *Comm) error {
			sum, err := Allreduce(c, c.Rank(), Sum[int]())
			if err != nil {
				return err
			}
			all, err := Allgather(c, []int{c.Rank(), sum})
			got[c.Rank()] = all
			return err
		})
		if err != nil {
			t.Fatalf("run %d after the panic: %v", i, err)
		}
		for r, all := range got {
			if len(all) != 2*np {
				t.Fatalf("run %d rank %d: %v", i, r, all)
			}
			for k := 0; k < np; k++ {
				if all[2*k] != k || all[2*k+1] != np*(np-1)/2 {
					t.Fatalf("run %d rank %d: %v", i, r, all)
				}
			}
		}
	}
}

// A token travels the ring backwards, from the highest rank down to 0
// and round to the top again. Every rank below the top blocks on a rank
// launched after it, so if ranks beyond the parked cap queued for a free
// goroutine, the first ones would wait forever on ranks that never start;
// the receive timeout turns that into ErrDeadlock.
func TestRingBeyondParkedCapRunsAllRanksAtOnce(t *testing.T) {
	np := 2*maxParkedRanks + 3
	var final int
	err := Run(np, func(c *Comm) error {
		r, top := c.Rank(), np-1
		if r == top {
			if err := Send(c, 0, r-1, 0); err != nil {
				return err
			}
			v, _, err := Recv[int](c, 0, 0)
			final = v
			return err
		}
		v, _, err := Recv[int](c, r+1, 0)
		if err != nil {
			return err
		}
		return Send(c, v+1, (r-1+np)%np, 0)
	}, WithRecvTimeout(5*time.Second))
	if errors.Is(err, ErrDeadlock) {
		t.Fatalf("ring of %d ranks deadlocked: ranks were queued: %v", np, err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if final != np-1 {
		t.Fatalf("token = %d, want %d hops", final, np-1)
	}
}

func TestRankGoroutinesFallBackToCap(t *testing.T) {
	base := runtime.NumGoroutine()
	if err := Run(500, func(c *Comm) error { return Barrier(c) }); err != nil {
		t.Fatal(err)
	}
	// Goroutines past the cap exit just after their rank's wg.Done, so
	// give them a moment to go.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+maxParkedRanks {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after a 500-rank run, want at most %d (baseline %d + cap %d)",
				n, base+maxParkedRanks, base, maxParkedRanks)
		}
		time.Sleep(time.Millisecond)
	}
	rankPool.mu.Lock()
	parked := len(rankPool.parked)
	rankPool.mu.Unlock()
	if parked > maxParkedRanks {
		t.Fatalf("%d goroutines parked, cap %d", parked, maxParkedRanks)
	}
}
