package mpi

import (
	"fmt"
	"time"

	"repro/internal/cluster"
)

// RunWorker executes body as one rank of a multi-process world: this
// process hosts exactly the given rank, and the transport (normally a
// cluster.RemoteTransport established through the launch package's
// rendezvous) reaches the other ranks in their own OS processes.
//
// Unlike Run, RunWorker executes body once, in the calling goroutine, and
// does not close the transport — the caller owns its lifecycle.
func RunWorker(rank, np int, tr cluster.Transport, body func(c *Comm) error, opts ...Option) error {
	if np < 1 {
		return fmt.Errorf("mpi: np must be >= 1, got %d", np)
	}
	if rank < 0 || rank >= np {
		return fmt.Errorf("mpi: worker rank %d out of range for np %d", rank, np)
	}
	cfg := runConfig{nodes: np}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.nodes < 1 {
		cfg.nodes = 1
	}
	if err := validateCollAlgo(cfg.collAlgo); err != nil {
		return err
	}
	if cfg.latency > 0 {
		tr = cluster.NewLatency(tr, cfg.latency)
	}
	// Same layering as Run, so Comm.Stats works per-process; the worker's
	// counters cover only this rank's traffic. Close stays with the caller.
	inst := cluster.NewInstrumented(tr)
	w := newWorld(np, inst, &cfg)
	var codecBase map[string]int64
	if w.tele != nil {
		codecBase = codecSnapshot()
	}
	c := newWorldComm(w, rank)
	defer func() {
		// Give in-flight eager sends a moment to drain before the caller
		// tears the process down; real MPI_Finalize performs a similar
		// quiescing step.
		time.Sleep(5 * time.Millisecond)
	}()
	err := body(c)
	if w.tele != nil {
		// This process hosts one rank, so the fold covers only its traffic.
		inst.FoldInto(w.tele)
		foldCodecDelta(w.tele, codecBase)
	}
	return err
}
