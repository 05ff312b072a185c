package collection

// The 16 MPI patternlets. The paper presents spmd (Figure 4), barrier
// (Figure 10), parallelLoopEqualChunks (Figure 16), reduction (Figure 23)
// and gather (Figure 25) in full; §III.E names Master-Worker, Broadcast,
// Scatter and the message-passing variants.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
)

func init() {
	register(spmdMPI())
	register(barrierMPI())
	register(masterWorkerMPI())
	register(messagePassingMPI())
	register(messagePassing2MPI())
	register(sequenceNumbersMPI())
	register(parallelLoopEqualChunksMPI())
	register(parallelLoopChunksOf1MPI())
	register(broadcastMPI())
	register(broadcast2MPI())
	register(reductionMPI())
	register(reduction2MPI())
	register(scatterMPI())
	register(gatherMPI())
	register(allgatherMPI())
	register(allreduceMPI())
}

const master = 0 // the paper's MASTER constant

// mpiRun executes an MPI patternlet body: as a whole in-process world
// normally, or as this process's single rank when the run context carries
// a RemoteExec from the multi-process launcher.
func mpiRun(rc *core.RunContext, body func(c *mpi.Comm) error, extra ...mpi.Option) error {
	opts := append(mpiOpts(rc), extra...)
	if rc.Remote != nil {
		return mpi.RunWorker(rc.Remote.Rank, rc.Remote.NP, rc.Remote.Transport, body, opts...)
	}
	return mpi.Run(rc.NumTasks, body, opts...)
}

// mpiOpts converts the run context's MPI knobs to run options.
func mpiOpts(rc *core.RunContext) []mpi.Option {
	var opts []mpi.Option
	if rc.UseTCP {
		opts = append(opts, mpi.WithTCP())
	}
	if rc.Nodes > 0 {
		opts = append(opts, mpi.WithNodes(rc.Nodes))
	}
	if rc.RecvTimeout > 0 {
		opts = append(opts, mpi.WithRecvTimeout(rc.RecvTimeout))
	}
	return opts
}

// spmdMPI is Figure 4: the MPI hello, with the host name distinguishing
// distributed from non-distributed runs (Figures 5–6).
func spmdMPI() *core.Patternlet {
	return &core.Patternlet{
		Name:     "spmd",
		Model:    core.MPI,
		Patterns: []core.Pattern{core.SPMD},
		Synopsis: "every process runs the same program with a different rank, possibly on a different node",
		Exercise: "Run with -np 1, then -np 4. Which values differ between processes? What do the\n" +
			"node names tell you about where each process ran?",
		DefaultTasks: 4,
		Run: func(rc *core.RunContext) error {
			return mpiRun(rc, func(c *mpi.Comm) error {
				rc.Record(c.Rank(), "hello", 0)
				rc.W.Printf("Hello from process %d of %d on %s\n", c.Rank(), c.Size(), c.ProcessorName())
				return nil
			})
		},
	}
}

// barrierMPI is Figure 10. Because stdout from distributed processes
// preserves no order, every process sends its report lines to the master,
// which prints them in arrival order; the barrier (when enabled) then
// guarantees every BEFORE is printed before any AFTER (Figures 11–12).
func barrierMPI() *core.Patternlet {
	type report struct {
		Phase string
		Rank  int
		Line  string
	}
	return &core.Patternlet{
		Name:     "barrier",
		Model:    core.MPI,
		Patterns: []core.Pattern{core.BarrierPattern, core.MasterWorker, core.MessagePassing},
		Synopsis: "an MPI barrier, with output funneled through the master to preserve order",
		Exercise: "Why does the MPI version need to send its output lines to the master instead of\n" +
			"printing directly? Enable 'barrier' and state the ordering guarantee you observe.",
		Directives: []core.Directive{
			{Name: "barrier", Pragma: "MPI_Barrier(MPI_COMM_WORLD)", Default: false},
		},
		MinTasks:     1,
		DefaultTasks: 4,
		Run: func(rc *core.RunContext) error {
			// Distinct tags per phase: with the barrier enabled, the
			// master *phases its receives with the barrier* (all BEFOREs,
			// then the barrier, then the AFTERs). Merely sending before/
			// after the barrier is not enough — messages from different
			// processes may be delivered out of order by the network, so
			// only the master's receive order can carry the guarantee.
			const tagBefore, tagAfter = 7, 8
			useBarrier := rc.Enabled("barrier")
			return mpiRun(rc, func(c *mpi.Comm) error {
				id, n := c.Rank(), c.Size()
				send := func(phase string, tag int) error {
					line := fmt.Sprintf("Process %d of %d is %s the barrier.", id, n, phase)
					return mpi.Send(c, report{Phase: phase, Rank: id, Line: line}, master, tag)
				}
				print := func(r report) {
					phase := "after"
					if r.Phase == "BEFORE" {
						phase = "before"
					}
					rc.Record(r.Rank, phase, 0)
					rc.W.Printf("%s\n", r.Line)
				}
				if err := send("BEFORE", tagBefore); err != nil {
					return err
				}
				if id == master && useBarrier {
					// Drain every BEFORE before this rank (and therefore
					// anyone) can leave the barrier.
					for i := 0; i < n; i++ {
						r, _, err := mpi.Recv[report](c, mpi.AnySource, tagBefore)
						if err != nil {
							return err
						}
						print(r)
					}
				}
				if useBarrier {
					if err := mpi.Barrier(c); err != nil {
						return err
					}
				}
				if err := send("AFTER", tagAfter); err != nil {
					return err
				}
				if id == master {
					remaining := n // AFTERs (barrier on) or both phases (off)
					if !useBarrier {
						remaining = 2 * n
					}
					for i := 0; i < remaining; i++ {
						r, _, err := mpi.Recv[report](c, mpi.AnySource, mpi.AnyTag)
						if err != nil {
							return err
						}
						print(r)
					}
				}
				return nil
			})
		},
	}
}

// masterWorkerMPI differentiates rank 0's role from the workers'.
func masterWorkerMPI() *core.Patternlet {
	return &core.Patternlet{
		Name:     "masterWorker",
		Model:    core.MPI,
		Patterns: []core.Pattern{core.MasterWorker, core.SPMD},
		Synopsis: "rank 0 takes the master role, the rest are workers",
		Exercise: "Run with -np 1: is there still a master? With -np 8, how many workers greet\n" +
			"you? Where would you put work distribution code in this skeleton?",
		DefaultTasks: 4,
		Run: func(rc *core.RunContext) error {
			return mpiRun(rc, func(c *mpi.Comm) error {
				if c.Rank() == master {
					rc.Record(c.Rank(), "master", 0)
					rc.W.Printf("Greetings from the master, #%d of %d\n", c.Rank(), c.Size())
				} else {
					rc.Record(c.Rank(), "worker", 0)
					rc.W.Printf("Hello from worker #%d of %d\n", c.Rank(), c.Size())
				}
				return nil
			})
		},
	}
}

// messagePassingMPI passes a value around a ring: rank i sends i² to its
// successor and receives from its predecessor.
func messagePassingMPI() *core.Patternlet {
	return &core.Patternlet{
		Name:     "messagePassing",
		Model:    core.MPI,
		Patterns: []core.Pattern{core.MessagePassing, core.SPMD},
		Synopsis: "point-to-point sends and receives around a ring of processes",
		Exercise: "Each process sends rank² to its ring successor. For -np 4, predict what each\n" +
			"process receives, then verify. What happens with -np 1?",
		DefaultTasks: 4,
		Run: func(rc *core.RunContext) error {
			const tag = 1
			return mpiRun(rc, func(c *mpi.Comm) error {
				id, n := c.Rank(), c.Size()
				next := (id + 1) % n
				prev := (id - 1 + n) % n
				sent := id * id
				// Odd ranks receive first, even ranks send first — the
				// classic ordering that avoids deadlock even with
				// synchronous sends.
				var got int
				if id%2 == 0 {
					if err := mpi.Send(c, sent, next, tag); err != nil {
						return err
					}
					v, _, err := mpi.Recv[int](c, prev, tag)
					if err != nil {
						return err
					}
					got = v
				} else {
					v, _, err := mpi.Recv[int](c, prev, tag)
					if err != nil {
						return err
					}
					got = v
					if err := mpi.Send(c, sent, next, tag); err != nil {
						return err
					}
				}
				rc.Record(id, "recv", got)
				rc.W.Printf("Process %d sent %d to %d and received %d from %d\n", id, sent, next, got, prev)
				return nil
			})
		},
	}
}

// messagePassing2MPI is the deadlock demonstration: with the fix disabled,
// every process blocks in Recv before anyone sends, and the runtime's
// deadlock detector fires; enabling 'sendrecv' replaces the pair with the
// combined operation that cannot deadlock.
func messagePassing2MPI() *core.Patternlet {
	return &core.Patternlet{
		Name:     "messagePassing2",
		Model:    core.MPI,
		Patterns: []core.Pattern{core.MessagePassing},
		Synopsis: "a receive-before-send deadlock, and the Sendrecv fix",
		Exercise: "With 'sendrecv' off, every process receives before sending — explain why nobody\n" +
			"ever proceeds. Enable 'sendrecv': why can the combined operation not deadlock?",
		Directives: []core.Directive{
			{Name: "sendrecv", Pragma: "MPI_Sendrecv(...)", Default: false},
		},
		MinTasks:     2,
		DefaultTasks: 2,
		Run: func(rc *core.RunContext) error {
			const tag = 2
			var extra []mpi.Option
			if rc.RecvTimeout == 0 {
				// Bound the demonstration so the deadlock is reported
				// rather than hung on.
				extra = append(extra, mpi.WithRecvTimeout(300*time.Millisecond))
			}
			useSendrecv := rc.Enabled("sendrecv")
			err := mpiRun(rc, func(c *mpi.Comm) error {
				id, n := c.Rank(), c.Size()
				peer := (id + 1) % n
				from := (id - 1 + n) % n
				if useSendrecv {
					got, _, err := mpi.Sendrecv[int, int](c, id*10, peer, tag, from, tag)
					if err != nil {
						return err
					}
					rc.W.Printf("Process %d exchanged: sent %d, received %d\n", id, id*10, got)
					return nil
				}
				// Everyone receives first: classic deadlock.
				got, _, err := mpi.Recv[int](c, from, tag)
				if err != nil {
					return err
				}
				if err := mpi.Send(c, id*10, peer, tag); err != nil {
					return err
				}
				rc.W.Printf("Process %d received %d\n", id, got)
				return nil
			}, extra...)
			if err != nil && !useSendrecv {
				rc.W.Printf("DEADLOCK detected: every process is blocked in MPI_Recv.\n")
				return nil // the deadlock is the expected lesson, not a failure
			}
			return err
		},
	}
}

// sequenceNumbersMPI enforces ordered output with messages: the master
// prints greetings in rank order no matter when they arrive.
func sequenceNumbersMPI() *core.Patternlet {
	return &core.Patternlet{
		Name:     "sequenceNumbers",
		Model:    core.MPI,
		Patterns: []core.Pattern{core.MessagePassing, core.MasterWorker},
		Synopsis: "ordering distributed output by receiving in rank order at the master",
		Exercise: "Compare with spmd.mpi: why is this output always in rank order? What does the\n" +
			"master's posted receive for a *specific* source guarantee?",
		DefaultTasks: 4,
		Run: func(rc *core.RunContext) error {
			const tag = 3
			return mpiRun(rc, func(c *mpi.Comm) error {
				id, n := c.Rank(), c.Size()
				line := fmt.Sprintf("Process %d of %d reporting in order", id, n)
				if err := mpi.Send(c, line, master, tag); err != nil {
					return err
				}
				if id == master {
					for src := 0; src < n; src++ {
						// Receiving from each specific source in turn
						// serializes the output by rank.
						l, _, err := mpi.Recv[string](c, src, tag)
						if err != nil {
							return err
						}
						rc.Record(src, "ordered", src)
						rc.W.Printf("%s\n", l)
					}
				}
				return nil
			})
		},
		// The whole point of the patternlet: posted receives from each
		// specific source serialize the output by rank, so only the master
		// prints and always in the same order.
		Deterministic: true,
	}
}

// parallelLoopEqualChunksMPI is Figure 16: MPI has no worksharing
// construct, so the chunk arithmetic is done by hand with ceil(REPS/np).
func parallelLoopEqualChunksMPI() *core.Patternlet {
	return &core.Patternlet{
		Name:     "parallelLoopEqualChunks",
		Model:    core.MPI,
		Patterns: []core.Pattern{core.ParallelLoop, core.DataDecomposition},
		Synopsis: "hand-rolled equal-chunk loop division across processes",
		Exercise: "OpenMP gave us this for free; here the start/stop arithmetic is explicit. Run\n" +
			"with -np 3 (8 iterations don't divide evenly): which process gets fewer?",
		DefaultTasks: 2,
		Run: func(rc *core.RunContext) error {
			const reps = 8
			return mpiRun(rc, func(c *mpi.Comm) error {
				id, n := c.Rank(), c.Size()
				// The paper's arithmetic: chunkSize = ceil(REPS/np).
				chunkSize := (reps + n - 1) / n
				start := id * chunkSize
				stop := (id + 1) * chunkSize
				if id == n-1 {
					stop = reps
				}
				if start > reps {
					start = reps
				}
				if stop > reps {
					stop = reps
				}
				for i := start; i < stop; i++ {
					rc.Record(id, "iter", i)
					rc.W.Printf("Process %d performed iteration %d\n", id, i)
				}
				return nil
			})
		},
	}
}

// parallelLoopChunksOf1MPI stripes iterations across processes with a
// stride-np loop.
func parallelLoopChunksOf1MPI() *core.Patternlet {
	return &core.Patternlet{
		Name:     "parallelLoopChunksOf1",
		Model:    core.MPI,
		Patterns: []core.Pattern{core.ParallelLoop, core.DataDecomposition},
		Synopsis: "striped loop division: process id takes iterations id, id+np, id+2np, …",
		Exercise: "Compare the iteration-to-process map with the equal-chunks version. Which\n" +
			"division would you use if iteration cost grows with i?",
		DefaultTasks: 2,
		Run: func(rc *core.RunContext) error {
			const reps = 16
			return mpiRun(rc, func(c *mpi.Comm) error {
				id, n := c.Rank(), c.Size()
				for i := id; i < reps; i += n {
					rc.Record(id, "iter", i)
					rc.W.Printf("Process %d performed iteration %d\n", id, i)
				}
				return nil
			})
		},
	}
}

// broadcastMPI sends one value from the master to everyone.
func broadcastMPI() *core.Patternlet {
	return &core.Patternlet{
		Name:     "broadcast",
		Model:    core.MPI,
		Patterns: []core.Pattern{core.Broadcast, core.MessagePassing},
		Synopsis: "one value, set at the master, delivered to every process",
		Exercise: "Every process starts with answer = -1. After the broadcast, what does each\n" +
			"hold? How many point-to-point messages does a tree broadcast need for np = 8?",
		DefaultTasks: 4,
		Run: func(rc *core.RunContext) error {
			return mpiRun(rc, func(c *mpi.Comm) error {
				answer := -1
				if c.Rank() == master {
					answer = 42
				}
				rc.W.Printf("Process %d before broadcast: answer = %d\n", c.Rank(), answer)
				got, err := mpi.Bcast(c, answer, master)
				if err != nil {
					return err
				}
				rc.Record(c.Rank(), "bcast", got)
				rc.W.Printf("Process %d after broadcast: answer = %d\n", c.Rank(), got)
				return nil
			})
		},
	}
}

// broadcast2MPI broadcasts an array and shows the payload-is-a-copy rule:
// mutating the received array cannot affect any other process.
func broadcast2MPI() *core.Patternlet {
	return &core.Patternlet{
		Name:     "broadcast2",
		Model:    core.MPI,
		Patterns: []core.Pattern{core.Broadcast},
		Synopsis: "broadcasting an array; received buffers are private copies",
		Exercise: "Process 1 overwrites its received array. Check the master's printout: why is\n" +
			"the master's copy unaffected, and how does that differ from shared memory?",
		MinTasks:     2,
		DefaultTasks: 4,
		Run: func(rc *core.RunContext) error {
			return mpiRun(rc, func(c *mpi.Comm) error {
				var data []int
				if c.Rank() == master {
					data = []int{10, 20, 30, 40}
				}
				got, err := mpi.Bcast(c, data, master)
				if err != nil {
					return err
				}
				if c.Rank() == 1 {
					for i := range got {
						got[i] = -got[i] // mutate the private copy
					}
				}
				if err := mpi.Barrier(c); err != nil {
					return err
				}
				rc.W.Printf("Process %d array: %v\n", c.Rank(), got)
				return nil
			})
		},
	}
}

// reductionMPI is Figure 23: each process computes (rank+1)²; MPI_Reduce
// combines them with SUM and MAX at the master (Figure 24: with 10
// processes, sum 385 and max 100).
func reductionMPI() *core.Patternlet {
	return &core.Patternlet{
		Name:     "reduction",
		Model:    core.MPI,
		Patterns: []core.Pattern{core.Reduction},
		Synopsis: "reducing per-process values with SUM and MAX at the master",
		Exercise: "With -np 10, the sum of squares is 385 and the max is 100. Derive both by hand,\n" +
			"then rerun with -np 4 and check your formula.",
		DefaultTasks: 10,
		Run: func(rc *core.RunContext) error {
			return mpiRun(rc, func(c *mpi.Comm) error {
				myRank := c.Rank()
				square := (myRank + 1) * (myRank + 1)
				rc.Record(myRank, "computed", square)
				rc.W.Printf("Process %d computed %d\n", myRank, square)
				sum, err := mpi.Reduce(c, square, mpi.Sum[int](), master)
				if err != nil {
					return err
				}
				max, err := mpi.Reduce(c, square, mpi.Max[int](), master)
				if err != nil {
					return err
				}
				if myRank == master {
					rc.W.Printf("\nThe sum of the squares is %d\n", sum)
					rc.W.Printf("The max of the squares is %d\n", max)
				}
				return nil
			})
		},
	}
}

// reduction2MPI reduces arrays element-wise and uses MAXLOC, the
// value-with-location operator §III.D lists.
func reduction2MPI() *core.Patternlet {
	return &core.Patternlet{
		Name:     "reduction2",
		Model:    core.MPI,
		Patterns: []core.Pattern{core.Reduction},
		Synopsis: "element-wise array reduction, and MAXLOC to find which rank held the max",
		Exercise: "Each process contributes [id, 2id, 3id]. Predict the element-wise sums for\n" +
			"-np 4. Which rank does MAXLOC report, and why is the tie rule needed?",
		DefaultTasks: 4,
		Run: func(rc *core.RunContext) error {
			return mpiRun(rc, func(c *mpi.Comm) error {
				id := c.Rank()
				arr := []int{id, 2 * id, 3 * id}
				sums, err := mpi.Reduce(c, arr, mpi.ElemWise(mpi.Sum[int]()), master)
				if err != nil {
					return err
				}
				square := (id + 1) * (id + 1)
				loc, err := mpi.Reduce(c, mpi.ValLoc[int]{Val: square, Rank: id}, mpi.MaxLoc[int](), master)
				if err != nil {
					return err
				}
				if id == master {
					rc.W.Printf("Element-wise sums: %v\n", sums)
					rc.W.Printf("Largest square %d was computed by process %d\n", loc.Val, loc.Rank)
				}
				return nil
			})
		},
		// Only the master prints, and both reductions (element-wise integer
		// sums, MAXLOC with a deterministic tie rule) are exact.
		Deterministic: true,
	}
}

// scatterMPI splits the master's array into equal chunks, one per process.
func scatterMPI() *core.Patternlet {
	return &core.Patternlet{
		Name:     "scatter",
		Model:    core.MPI,
		Patterns: []core.Pattern{core.Scatter, core.DataDecomposition},
		Synopsis: "the master's array divided into equal chunks, one per process",
		Exercise: "The master fills an array with 0..3np-1 and scatters it. Which values land at\n" +
			"process 2? How does Scatter relate to the equal-chunks loop division?",
		DefaultTasks: 4,
		Run: func(rc *core.RunContext) error {
			const chunk = 3
			return mpiRun(rc, func(c *mpi.Comm) error {
				var send []int
				if c.Rank() == master {
					send = make([]int, chunk*c.Size())
					for i := range send {
						send[i] = i
					}
					rc.W.Printf("Process %d scatters: %v\n", master, send)
				}
				part, err := mpi.Scatter(c, send, master)
				if err != nil {
					return err
				}
				rc.Record(c.Rank(), "chunk", part[0])
				rc.W.Printf("Process %d received chunk: %v\n", c.Rank(), part)
				return nil
			})
		},
	}
}

// gatherMPI is Figure 25: every process builds computeArray[i] = rank*10+i
// and the master gathers them into one array (Figures 26–28).
func gatherMPI() *core.Patternlet {
	return &core.Patternlet{
		Name:     "gather",
		Model:    core.MPI,
		Patterns: []core.Pattern{core.Gather},
		Synopsis: "per-process arrays collected into one array at the master, in rank order",
		Exercise: "Run with -np 2, 4 and 6 and compare with the figures. In what order do the\n" +
			"chunks appear in gatherArray regardless of arrival order, and why?",
		DefaultTasks: 2,
		Run: func(rc *core.RunContext) error {
			const size = 3 // the paper's SIZE constant
			return mpiRun(rc, func(c *mpi.Comm) error {
				myRank := c.Rank()
				computeArray := make([]int, size)
				for i := range computeArray {
					computeArray[i] = myRank*10 + i
				}
				rc.W.Printf("Process %d, computeArray: %s\n", myRank, intsWithSpaces(computeArray))
				gathered, err := mpi.Gather(c, computeArray, master)
				if err != nil {
					return err
				}
				if myRank == master {
					rc.W.Printf("Process %d, gatherArray: %s\n", myRank, intsWithSpaces(gathered))
				}
				return nil
			})
		},
	}
}

// allgatherMPI gives every process the full gathered array.
func allgatherMPI() *core.Patternlet {
	return &core.Patternlet{
		Name:     "allgather",
		Model:    core.MPI,
		Patterns: []core.Pattern{core.Gather, core.Broadcast},
		Synopsis: "gather whose result every process receives (two simpler collectives under the hood)",
		Exercise: "Compare with gather.mpi: who holds the complete array afterwards? Express\n" +
			"Allgather in terms of two collectives you already know.",
		DefaultTasks: 4,
		Run: func(rc *core.RunContext) error {
			return mpiRun(rc, func(c *mpi.Comm) error {
				mine := []int{c.Rank() * 10}
				all, err := mpi.Allgather(c, mine)
				if err != nil {
					return err
				}
				rc.W.Printf("Process %d has the complete array: %v\n", c.Rank(), all)
				return nil
			})
		},
	}
}

// allreduceMPI gives every process the reduced value.
func allreduceMPI() *core.Patternlet {
	return &core.Patternlet{
		Name:     "allreduce",
		Model:    core.MPI,
		Patterns: []core.Pattern{core.Reduction, core.Broadcast},
		Synopsis: "a reduction whose result every process receives (recursive doubling under the hood)",
		Exercise: "Each process contributes rank+1. After the allreduce, every process should\n" +
			"print the same total — why would a plain Reduce not be enough here?",
		DefaultTasks: 4,
		Run: func(rc *core.RunContext) error {
			return mpiRun(rc, func(c *mpi.Comm) error {
				total, err := mpi.Allreduce(c, c.Rank()+1, mpi.Sum[int]())
				if err != nil {
					return err
				}
				rc.Record(c.Rank(), "total", total)
				rc.W.Printf("Process %d knows the total is %d\n", c.Rank(), total)
				return nil
			})
		},
	}
}

// intsWithSpaces formats ints as the paper's print() helper does:
// " 0 1 2".
func intsWithSpaces(xs []int) string {
	s := ""
	for _, x := range xs {
		s += fmt.Sprintf(" %d", x)
	}
	return s
}
