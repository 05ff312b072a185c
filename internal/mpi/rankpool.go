package mpi

import "sync"

// maxParkedRanks caps the goroutines kept parked between worlds for
// reuse as rank processes. A fresh goroutine starts on a minimal stack
// and grows it by copying as the rank runs its collectives, and in a
// 32-rank world that growth was about a sixth of the CPU; a parked
// goroutine keeps the stack it already grew. The cap bounds what stays
// resident after a burst of large worlds: 64 covers patternletd's
// default two workers each running a 32-rank world. A goroutine that
// finishes a rank while the cap is full exits instead of parking.
const maxParkedRanks = 64

// rankPool holds the parked goroutines, each waiting on its own channel
// for the next rank body. It has no timers: a parked goroutine waits
// until it is handed work, and the cap alone bounds their number.
var rankPool struct {
	mu     sync.Mutex
	parked []chan func()
}

// goRank runs f on a goroutine of its own: a parked one when any is
// waiting, a new one otherwise. It never queues f behind another rank,
// so all ranks of a world run at once however many there are — ranks
// that block on each other's messages cannot deadlock on the pool.
func goRank(f func()) {
	rankPool.mu.Lock()
	if n := len(rankPool.parked); n > 0 {
		ch := rankPool.parked[n-1]
		rankPool.parked = rankPool.parked[:n-1]
		rankPool.mu.Unlock()
		ch <- f
		return
	}
	rankPool.mu.Unlock()
	go rankLoop(f)
}

// rankLoop runs f, then parks for the next body until the pool is full.
// f must not panic: Run's rank bodies recover their own panics, so a
// panicking rank leaves its goroutine fit for the next world.
func rankLoop(f func()) {
	var ch chan func()
	for {
		f()
		f = nil // a parked goroutine must not keep the last world reachable
		rankPool.mu.Lock()
		if len(rankPool.parked) >= maxParkedRanks {
			rankPool.mu.Unlock()
			return
		}
		if ch == nil {
			// Buffered, so goRank's hand-off never waits for this
			// goroutine to be scheduled.
			ch = make(chan func(), 1)
		}
		rankPool.parked = append(rankPool.parked, ch)
		rankPool.mu.Unlock()
		f = <-ch
	}
}
