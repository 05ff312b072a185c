package mpi

import (
	"fmt"
	"sort"
)

// The collective algorithm registry. Every collective dispatches through
// a per-collective table of registered algorithms plus a default policy
// that picks one from (world size, payload bytes). Programs can pin an
// algorithm for a whole run with WithCollectiveAlgorithm; tests use that
// to check every registered algorithm against its linear/composed oracle.
//
// How the policy sees payload bytes depends on where the data lives:
//
//   - Rooted distribution collectives (Bcast, Scatter) measure the actual
//     wire size at the root — the value is encoded once through the same
//     codec that frames it for the transport — and the root's choice
//     travels in-band as a one-byte header on each message, so receivers
//     follow the same schedule without being able to measure anything.
//   - Fan-in and symmetric collectives (Reduce, Gather, Allgather,
//     Allreduce, Alltoall, Scan, Exscan, Barrier) select on world size
//     alone (payloadBytes is 0). Their contributions may legally be
//     ragged — different byte sizes on different ranks, as in the
//     Gatherv-style variable-length forms — and a byte-keyed choice
//     could then diverge the schedule across ranks and deadlock the
//     collective. World size is the one input every rank agrees on.

// Collective names accepted by WithCollectiveAlgorithm.
const (
	CollBarrier   = "barrier"
	CollBcast     = "bcast"
	CollReduce    = "reduce"
	CollGather    = "gather"
	CollScatter   = "scatter"
	CollAllgather = "allgather"
	CollAllreduce = "allreduce"
	CollAlltoall  = "alltoall"
	CollScan      = "scan"
	CollExscan    = "exscan"
)

// Algorithm names. Not every algorithm applies to every collective; see
// the registry below for the per-collective sets.
const (
	// AlgoLinear is the flat reference form: a root loops over peers, or
	// a chain passes left to right. O(p) messages at one rank (or O(p)
	// depth), and the oracle the tree forms are tested against.
	AlgoLinear = "linear"
	// AlgoBinomial moves data along a binomial tree in ceil(lg p) rounds.
	AlgoBinomial = "binomial"
	// AlgoDissemination is the dissemination barrier: ceil(lg p) rounds
	// of symmetric signalling at doubling strides.
	AlgoDissemination = "dissemination"
	// AlgoCentral is the fan-in/fan-out barrier through rank 0: 2(p-1)
	// messages, O(p) serial latency at the root.
	AlgoCentral = "central"
	// AlgoComposed is the textbook composition (reduce+bcast for
	// allreduce, gather+bcast for allgather), kept as the equivalence
	// oracle.
	AlgoComposed = "composed"
	// AlgoRecursiveDoubling exchanges partials pairwise at doubling
	// strides; every rank finishes in ceil(lg p) symmetric rounds.
	AlgoRecursiveDoubling = "recursive-doubling"
	// AlgoDoubling is the Hillis-Steele prefix schedule for scans:
	// ceil(lg p) rounds instead of a p-1 deep chain.
	AlgoDoubling = "doubling"
	// AlgoPairwise schedules the complete exchange as p-1 rounds of
	// disjoint pair exchanges, bounding per-rank buffering.
	AlgoPairwise = "pairwise"
)

// collectiveSpec is one collective's registry entry.
type collectiveSpec struct {
	algorithms map[string]string                // algorithm name -> one-line description
	pick       func(p, payloadBytes int) string // default policy
}

// Policy thresholds. Chosen from the recorded collectives benchmark
// suite (see EXPERIMENTS.md, BENCH_*_comm.json): on the in-process and
// loopback transports message *count* dominates cost, so flat forms win
// small worlds; tree forms win once the serial turn at the busiest rank
// outweighs their extra encode hops, and always win once per-message
// latency dominates (the Latency middleware regime).
const (
	// treeWorldSize is the world size at which rooted trees (binomial
	// bcast/gather/scatter, dissemination barrier) beat their flat forms.
	treeWorldSize = 8
	// treePayloadBytes is the wire size at which bcast switches to the
	// binomial tree even in small worlds: relaying through lg p ranks
	// stops the root from serializing p-1 large copies.
	treePayloadBytes = 4096
)

var collectiveRegistry = map[string]collectiveSpec{
	CollBarrier: {
		algorithms: map[string]string{
			AlgoDissemination: "ceil(lg p) symmetric signalling rounds",
			AlgoCentral:       "fan-in/fan-out through rank 0",
		},
		pick: func(p, _ int) string {
			if p < treeWorldSize {
				return AlgoCentral // 2(p-1) messages beat p*ceil(lg p)
			}
			return AlgoDissemination
		},
	},
	CollBcast: {
		algorithms: map[string]string{
			AlgoBinomial: "binomial tree, payload relayed as raw bytes",
			AlgoLinear:   "root sends to each rank in turn",
		},
		pick: func(p, bytes int) string {
			if p < treeWorldSize && bytes < treePayloadBytes {
				return AlgoLinear
			}
			return AlgoBinomial
		},
	},
	CollReduce: {
		algorithms: map[string]string{
			AlgoBinomial: "partials combine up a binomial tree",
			AlgoLinear:   "root folds every contribution in rank order",
		},
		pick: func(p, _ int) string {
			if p < treeWorldSize {
				return AlgoLinear
			}
			return AlgoBinomial
		},
	},
	CollGather: {
		algorithms: map[string]string{
			AlgoLinear:   "root receives each contribution in turn",
			AlgoBinomial: "contributions bundle up a binomial tree",
		},
		pick: func(p, _ int) string {
			// The tree re-encodes accumulated bundles at every level, so
			// the flat form also wins mid-sized worlds; the tree pays off
			// only when the root's p-1 serial receive turns dominate.
			if p < 2*treeWorldSize {
				return AlgoLinear
			}
			return AlgoBinomial
		},
	},
	CollScatter: {
		algorithms: map[string]string{
			AlgoLinear:   "root sends each rank its chunk in turn",
			AlgoBinomial: "chunk bundles split down a binomial tree",
		},
		pick: func(p, _ int) string {
			if p < 2*treeWorldSize {
				return AlgoLinear
			}
			return AlgoBinomial
		},
	},
	CollAllgather: {
		algorithms: map[string]string{
			AlgoComposed: "gather to rank 0, then broadcast",
		},
		// ~2(p-1) messages through the gather and bcast policies; a ring's
		// p(p-1) lost at every measured world size, block size and
		// transport, so it is not registered.
		pick: func(int, int) string { return AlgoComposed },
	},
	CollAllreduce: {
		algorithms: map[string]string{
			AlgoRecursiveDoubling: "pairwise exchange at doubling strides",
			AlgoComposed:          "reduce to rank 0, then broadcast",
		},
		pick: func(p, _ int) string {
			if p < treeWorldSize {
				return AlgoComposed // 2(p-1) messages beat p*ceil(lg p)
			}
			return AlgoRecursiveDoubling
		},
	},
	CollAlltoall: {
		algorithms: map[string]string{
			AlgoLinear:   "post all p sends eagerly, then drain in rank order",
			AlgoPairwise: "p-1 rounds of disjoint pair exchanges",
		},
		pick: func(p, _ int) string {
			if p < 2*treeWorldSize {
				return AlgoLinear
			}
			return AlgoPairwise // bounds the p simultaneous buffers per rank
		},
	},
	CollScan: {
		algorithms: map[string]string{
			AlgoLinear:   "prefix flows along a p-1 deep chain",
			AlgoDoubling: "Hillis-Steele: ceil(lg p) rounds",
		},
		pick: func(p, _ int) string {
			if p < treeWorldSize {
				return AlgoLinear // p-1 messages beat ~p*lg p
			}
			return AlgoDoubling
		},
	},
	CollExscan: {
		algorithms: map[string]string{
			AlgoLinear:   "exclusive prefix along a p-1 deep chain",
			AlgoDoubling: "Hillis-Steele with a separate exclusive partial",
		},
		pick: func(p, _ int) string {
			if p < treeWorldSize {
				return AlgoLinear
			}
			return AlgoDoubling
		},
	},
}

// Collectives returns the names of all registered collectives, sorted.
func Collectives() []string {
	out := make([]string, 0, len(collectiveRegistry))
	for name := range collectiveRegistry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// CollectiveAlgorithms returns the registered algorithm names for one
// collective, sorted, or nil for an unknown collective.
func CollectiveAlgorithms(collective string) []string {
	spec, ok := collectiveRegistry[collective]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(spec.algorithms))
	for name := range spec.algorithms {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// WithCollectiveAlgorithm pins one collective to a registered algorithm
// for the whole run, overriding the default (world size, payload bytes)
// policy. Unknown collective or algorithm names fail Run before any rank
// launches. Example:
//
//	mpi.Run(8, body, mpi.WithCollectiveAlgorithm(mpi.CollBcast, mpi.AlgoLinear))
func WithCollectiveAlgorithm(collective, algorithm string) Option {
	return func(c *runConfig) {
		if c.collAlgo == nil {
			c.collAlgo = map[string]string{}
		}
		c.collAlgo[collective] = algorithm
	}
}

// validateCollAlgo checks a WithCollectiveAlgorithm override map against
// the registry.
func validateCollAlgo(overrides map[string]string) error {
	for coll, algo := range overrides {
		spec, ok := collectiveRegistry[coll]
		if !ok {
			return fmt.Errorf("mpi: unknown collective %q (have %v)", coll, Collectives())
		}
		if _, ok := spec.algorithms[algo]; !ok {
			return fmt.Errorf("mpi: collective %q has no algorithm %q (have %v)",
				coll, algo, CollectiveAlgorithms(coll))
		}
	}
	return nil
}

// algoFor picks the algorithm for one collective call: the run-level
// override if present, else the registry's default policy.
func (c *Comm) algoFor(collective string, payloadBytes int) string {
	if a, ok := c.w.collAlgo[collective]; ok {
		return a
	}
	return collectiveRegistry[collective].pick(len(c.ranks), payloadBytes)
}

// errUnknownAlgo reports a policy or dispatch bug: a selected algorithm
// the dispatcher has no case for.
func errUnknownAlgo(collective, algo string) error {
	return fmt.Errorf("mpi: %s: unregistered algorithm %q", collective, algo)
}
