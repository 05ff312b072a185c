package cluster

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Instrumented counts the traffic flowing through a transport: sends and
// receives, payload bytes in each direction, and per-peer message counts
// — broken down per communicator id and summed on demand, so the MPI
// layer can report what a pattern actually moves (Comm.Stats). Each
// communicator's bucket is a block of plain atomic fields plus two
// rank-indexed peer tables, so recording a message is a handful of
// atomic adds on one bucket: no name is formatted, no lock is taken and
// nothing is allocated once a peer has been seen. Totals sums the
// buckets when read instead of paying a second set of adds per message.
type Instrumented struct {
	Middleware
	// world is communicator 0's bucket, kept inline: in an MPI world it
	// carries all traffic that is not on a split or duplicated
	// communicator, and reaching it costs no map lookup.
	world trafficCounters
	comms sync.Map // other communicator ids -> *trafficCounters
	// commCache short-circuits the comms lookup for the most recently used
	// other communicator: traffic is bursty per communicator, and the
	// sync.Map path boxes an int key per message.
	commCache atomic.Pointer[commSlot]
}

type commSlot struct {
	id int
	tc *trafficCounters
}

// TrafficStats is a point-in-time snapshot of traffic counters. All maps
// are non-nil in every TrafficStats this package returns, including the
// zero-traffic snapshot for an unknown communicator.
type TrafficStats struct {
	Sends      uint64         // messages handed to the layer below
	Recvs      uint64         // messages delivered to receivers
	BytesSent  uint64         // payload bytes sent
	BytesRecvd uint64         // payload bytes received
	PeerSends  map[int]uint64 // destination world rank -> messages sent
	PeerRecvs  map[int]uint64 // source world rank -> messages received
	// Wire holds the underlying transport's wire-level counters
	// (misrouted_frames, flush_immediate, flush_batched, frames_coalesced)
	// when the transport keeps them; empty otherwise. Only Totals
	// populates it — wire counters are per-connection, not per-communicator.
	Wire map[string]int64
}

// trafficCounters is one communicator's accounting bucket.
type trafficCounters struct {
	sends, recvs, bytesSent, bytesRecvd atomic.Uint64
	peerSends                           peerTable // indexed by destination world rank
	peerRecvs                           peerTable // indexed by source world rank
}

func (tc *trafficCounters) recordSend(to int, bytes uint64) {
	tc.sends.Add(1)
	tc.bytesSent.Add(bytes)
	tc.peerSends.inc(to)
}

func (tc *trafficCounters) recordRecv(from int, bytes uint64) {
	tc.recvs.Add(1)
	tc.bytesRecvd.Add(bytes)
	tc.peerRecvs.inc(from)
}

// addTo adds the bucket's counts into st, so Totals can sum every bucket
// into one snapshot.
func (tc *trafficCounters) addTo(st *TrafficStats) {
	st.Sends += tc.sends.Load()
	st.Recvs += tc.recvs.Load()
	st.BytesSent += tc.bytesSent.Load()
	st.BytesRecvd += tc.bytesRecvd.Load()
	tc.peerSends.addTo(st.PeerSends)
	tc.peerRecvs.addTo(st.PeerRecvs)
}

// Peer table geometry: segment k holds peerSegBase<<k consecutive ranks,
// starting at rank peerSegBase*(2^k - 1). A 32-rank world touches one
// 256-byte segment; the peerSegs segments together cover ranks below
// peerSegBase*(2^peerSegs - 1) = 8160, and the largest is 32 KiB.
const (
	peerSegShift = 5
	peerSegBase  = 1 << peerSegShift
	peerSegs     = 8
	peerTableCap = peerSegBase<<peerSegs - peerSegBase
)

// peerTable is a rank-indexed table of message counts that never copies:
// segments are allocated on first touch and installed once, so a reader
// or writer indexes a segment that stays put for the table's lifetime.
// Ranks outside [0, peerTableCap) — a stray frame's source, never a rank
// of a real world — are counted in a locked map so one cannot make the
// table allocate in proportion to its value.
type peerTable struct {
	segs [peerSegs]atomic.Pointer[[]atomic.Uint64]
	mu   sync.Mutex
	odd  map[int]uint64 // ranks outside the segments
}

// peerSeg locates rank in the segment geometry: segment index and offset.
func peerSeg(rank int) (k, off int) {
	k = bits.Len(uint(rank>>peerSegShift+1)) - 1
	return k, rank - (peerSegBase<<k - peerSegBase)
}

func (pt *peerTable) inc(rank int) {
	if rank < 0 || rank >= peerTableCap {
		pt.mu.Lock()
		if pt.odd == nil {
			pt.odd = map[int]uint64{}
		}
		pt.odd[rank]++
		pt.mu.Unlock()
		return
	}
	k, off := peerSeg(rank)
	seg := pt.segs[k].Load()
	if seg == nil {
		// First touch: whichever racing writer installs its segment
		// first wins, and every writer counts into the installed one.
		s := make([]atomic.Uint64, peerSegBase<<k)
		pt.segs[k].CompareAndSwap(nil, &s)
		seg = pt.segs[k].Load()
	}
	(*seg)[off].Add(1)
}

// addTo adds every nonzero count into m, keyed by rank.
func (pt *peerTable) addTo(m map[int]uint64) {
	for k := range pt.segs {
		seg := pt.segs[k].Load()
		if seg == nil {
			continue
		}
		base := peerSegBase<<k - peerSegBase
		for i := range *seg {
			if v := (*seg)[i].Load(); v != 0 {
				m[base+i] += v
			}
		}
	}
	pt.mu.Lock()
	for r, v := range pt.odd {
		m[r] += v
	}
	pt.mu.Unlock()
}

// emptyTrafficStats is the shared zero-value constructor: every map
// initialized, so callers can index a snapshot for a communicator that
// has carried no traffic without nil-map surprises.
func emptyTrafficStats() TrafficStats {
	return TrafficStats{
		PeerSends: map[int]uint64{},
		PeerRecvs: map[int]uint64{},
		Wire:      map[string]int64{},
	}
}

// NewInstrumented wraps inner with traffic accounting.
func NewInstrumented(inner Transport) *Instrumented {
	return &Instrumented{Middleware: Middleware{Inner: inner}}
}

func (t *Instrumented) commCounters(comm int) *trafficCounters {
	if comm == 0 {
		return &t.world
	}
	if s := t.commCache.Load(); s != nil && s.id == comm {
		return s.tc
	}
	v, ok := t.comms.Load(comm)
	if !ok {
		v, _ = t.comms.LoadOrStore(comm, &trafficCounters{})
	}
	tc := v.(*trafficCounters)
	t.commCache.Store(&commSlot{id: comm, tc: tc})
	return tc
}

// Send implements Transport, counting messages the layer below accepted.
func (t *Instrumented) Send(to int, m Message) error {
	if err := t.Inner.Send(to, m); err != nil {
		return err
	}
	t.commCounters(m.Comm).recordSend(to, uint64(len(m.Payload)))
	return nil
}

// Recv implements Transport, counting delivered messages.
func (t *Instrumented) Recv(rank int, mt Match) (Message, error) {
	m, err := t.Inner.Recv(rank, mt)
	if err == nil {
		t.commCounters(m.Comm).recordRecv(m.Src, uint64(len(m.Payload)))
	}
	return m, err
}

// RecvTimeout implements Transport, counting delivered messages.
func (t *Instrumented) RecvTimeout(rank int, mt Match, timeoutNanos int64) (Message, error) {
	m, err := t.Inner.RecvTimeout(rank, mt, timeoutNanos)
	if err == nil {
		t.commCounters(m.Comm).recordRecv(m.Src, uint64(len(m.Payload)))
	}
	return m, err
}

// Totals returns the counters summed over every communicator, with the
// underlying transport's wire-level counters (when it keeps any) merged
// into the Wire map — this is where misrouted frames become visible
// instead of being dropped silently inside a read loop.
func (t *Instrumented) Totals() TrafficStats {
	st := emptyTrafficStats()
	t.world.addTo(&st)
	t.comms.Range(func(_, v any) bool {
		v.(*trafficCounters).addTo(&st)
		return true
	})
	for name, v := range WireStats(t.Inner) {
		st.Wire[name] = v
	}
	return st
}

// CommStats returns the counters for one communicator id. An id that has
// carried no traffic reports zeroes with every map initialized.
func (t *Instrumented) CommStats(comm int) TrafficStats {
	st := emptyTrafficStats()
	if comm == 0 {
		t.world.addTo(&st)
	} else if v, ok := t.comms.Load(comm); ok {
		v.(*trafficCounters).addTo(&st)
	}
	return st
}

// FoldInto adds this transport's traffic totals to the collector's
// counter set under "cluster."-prefixed names — the hook mpi.Run uses to
// surface world traffic in a process-wide telemetry summary. Wire-level
// counters fold under the same prefix (cluster.misrouted_frames,
// cluster.flush_immediate, …).
func (t *Instrumented) FoldInto(col *telemetry.Collector) {
	st := t.Totals()
	col.Counter("cluster.sends").Add(int64(st.Sends))
	col.Counter("cluster.recvs").Add(int64(st.Recvs))
	col.Counter("cluster.bytes_sent").Add(int64(st.BytesSent))
	col.Counter("cluster.bytes_recvd").Add(int64(st.BytesRecvd))
	for name, v := range st.Wire {
		col.Counter("cluster." + name).Add(v)
	}
}
