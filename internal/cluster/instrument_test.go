package cluster

import (
	"sync"
	"testing"
)

// The flat traffic counters: recording is allocation-free once a peer has
// been seen, and per-peer counts stay exact under concurrent traffic
// across the peer table's segment boundaries.

func TestInstrumentedSendRecvAllocFree(t *testing.T) {
	tr := NewInstrumented(NewChanTransport(2))
	defer tr.Close()
	payload := []byte{1, 2, 3}
	for _, comm := range []int{0, 9} {
		round := func() {
			if err := tr.Send(1, Message{Src: 0, Tag: 1, Comm: comm, Payload: payload}); err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Recv(1, MatchAny()); err != nil {
				t.Fatal(err)
			}
			if err := tr.Send(0, Message{Src: 1, Tag: 2, Comm: comm, Payload: payload}); err != nil {
				t.Fatal(err)
			}
			if _, err := tr.RecvTimeout(0, MatchAny(), 1e9); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			round() // first touch of the comm bucket, peer segments and mailbox queues
		}
		if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
			t.Errorf("comm %d: send/recv through Instrumented allocates %.1f objects per round, want 0", comm, allocs)
		}
	}
}

// Every rank of a 130-rank world sends (s%3)+1 messages to every other
// rank, on communicator 0 from even senders and 7 from odd ones, while
// every rank drains its mailbox concurrently. 130 ranks cross the peer
// table's first two segment boundaries (32 and 96).
func TestInstrumentedPeerCountsExactUnderConcurrency(t *testing.T) {
	const np = 130
	tr := NewInstrumented(NewChanTransport(np))
	defer tr.Close()
	perMsg := func(src int) int { return src%3 + 1 }
	commOf := func(src int) int { return src % 2 * 7 }

	var wg sync.WaitGroup
	for r := 0; r < np; r++ {
		wg.Add(2)
		go func(src int) {
			defer wg.Done()
			for dst := 0; dst < np; dst++ {
				for k := 0; dst != src && k < perMsg(src); k++ {
					if err := tr.Send(dst, Message{Src: src, Comm: commOf(src), Payload: []byte{byte(k)}}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(r)
		go func(dst int) {
			defer wg.Done()
			want := 0
			for src := 0; src < np; src++ {
				if src != dst {
					want += perMsg(src)
				}
			}
			for i := 0; i < want; i++ {
				if _, err := tr.Recv(dst, MatchAny()); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	tot := tr.Totals()
	byComm := map[int]TrafficStats{0: tr.CommStats(0), 7: tr.CommStats(7)}
	var sent uint64
	for r := 0; r < np; r++ {
		// Rank r received from every other rank and sent (np-1)*perMsg(r).
		var in uint64
		inByComm := map[int]uint64{}
		for src := 0; src < np; src++ {
			if src != r {
				in += uint64(perMsg(src))
				inByComm[commOf(src)] += uint64(perMsg(src))
			}
		}
		out := uint64((np - 1) * perMsg(r))
		sent += out
		if tot.PeerSends[r] != in || tot.PeerRecvs[r] != out {
			t.Fatalf("rank %d: PeerSends/PeerRecvs = %d/%d, want %d/%d", r, tot.PeerSends[r], tot.PeerRecvs[r], in, out)
		}
		for comm, st := range byComm {
			if st.PeerSends[r] != inByComm[comm] {
				t.Fatalf("comm %d rank %d: PeerSends = %d, want %d", comm, r, st.PeerSends[r], inByComm[comm])
			}
			var want uint64
			if commOf(r) == comm {
				want = out
			}
			if st.PeerRecvs[r] != want {
				t.Fatalf("comm %d rank %d: PeerRecvs = %d, want %d", comm, r, st.PeerRecvs[r], want)
			}
		}
	}
	if tot.Sends != sent || tot.Recvs != sent || tot.BytesSent != sent || tot.BytesRecvd != sent {
		t.Fatalf("totals = %+v, want %d messages and bytes each way", tot, sent)
	}
	if len(tot.PeerSends) != np || len(tot.PeerRecvs) != np {
		t.Fatalf("peer maps hold %d/%d ranks, want %d", len(tot.PeerSends), len(tot.PeerRecvs), np)
	}
}

// Ranks outside the peer table — a negative source, or one far beyond
// any world — still count exactly, under their own keys.
func TestInstrumentedOutlyingRanks(t *testing.T) {
	tr := NewInstrumented(NewChanTransport(2))
	defer tr.Close()
	for _, src := range []int{-3, peerTableCap, 1 << 30, -3} {
		if err := tr.Send(1, Message{Src: src, Payload: []byte{1}}); err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Recv(1, MatchAny()); err != nil {
			t.Fatal(err)
		}
	}
	got := tr.CommStats(0).PeerRecvs
	want := map[int]uint64{-3: 2, peerTableCap: 1, 1 << 30: 1}
	if len(got) != len(want) {
		t.Fatalf("PeerRecvs = %v, want %v", got, want)
	}
	for r, n := range want {
		if got[r] != n {
			t.Fatalf("PeerRecvs = %v, want %v", got, want)
		}
	}
}
