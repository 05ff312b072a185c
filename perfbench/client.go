package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection: a caller that sends its
// next request only after the previous reply has been read.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	body bytes.Buffer
}

// post sends one POST and reads the whole reply. status 0 with a non-nil
// error is a transport failure; the connection is redialled next time.
func (k *conn) post(path string, body []byte) (int, []byte, error) {
	if k.c == nil {
		c, err := net.Dial("tcp", k.addr)
		if err != nil {
			return 0, nil, err
		}
		k.c, k.br, k.bw = c, bufio.NewReader(c), bufio.NewWriter(c)
	}
	fmt.Fprintf(k.bw, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		path, k.addr, len(body))
	k.bw.Write(body)
	if err := k.bw.Flush(); err != nil {
		k.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(k.br, nil)
	if err != nil {
		k.close()
		return 0, nil, err
	}
	k.body.Reset()
	_, err = k.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		k.close()
		return 0, nil, err
	}
	if resp.Close {
		k.close()
	}
	return resp.StatusCode, k.body.Bytes(), nil
}

func (k *conn) close() {
	if k.c != nil {
		k.c.Close()
		k.c = nil
	}
}

// sample is one request sent in a window.
type sample struct {
	id     int64  // names the expected output (see call)
	sig    uint64 // the reply's signature; set for status 200 only
	start  int64  // ns since the window began
	lat    int64  // ns from sending the request to reading the reply
	status int16  // HTTP status; 0 = transport failure
}

// window is everything one timed phase of closed-loop load produced.
type window struct {
	samples []sample
	elapsed time.Duration // until the last caller's last reply
}

// Phases give each stretch of load its own request stream, so a seed
// names the same inputs in every run.
const (
	phaseWarmup = iota + 1
	phaseWindow
	phaseTraced
	phaseLadder
)

// callerRand is the request stream of one caller in one phase.
func callerRand(seed int64, phase, caller int) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(uint64(seed)*31+uint64(phase)*7919+uint64(caller)) >> 1)))
}

// drive runs conns closed-loop callers against addr for d: each sends a
// request, waits for the reply, records it, and sends the next, until
// d has passed. A request started before the end is always completed.
// With spans set, every request is also recorded as a span. With tick
// set, tick(k) runs k whole seconds into the window, from 0 until the
// callers finish.
func drive(addr string, tr traffic, seed int64, phase, conns int, d time.Duration, spans *spanLog, tick func(k int)) window {
	var parent int64
	if spans != nil {
		parent = spans.open("window", 0, 0)
	}
	per := make([][]sample, conns)
	var wg sync.WaitGroup
	t0 := time.Now()
	done := make(chan struct{})
	ticked := make(chan struct{})
	if tick == nil {
		close(ticked)
	} else {
		go func() {
			defer close(ticked)
			tick(0)
			tk := time.NewTicker(time.Second)
			defer tk.Stop()
			for k := 1; ; k++ {
				select {
				case <-tk.C:
					tick(k)
				case <-done:
					// The callers stop just after the window's last whole
					// second; record that boundary if the ticker has not.
					if time.Since(t0) >= time.Duration(k)*time.Second {
						tick(k)
					}
					return
				}
			}
		}()
	}
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := callerRand(seed, phase, c)
			k := &conn{addr: addr}
			defer k.close()
			var out []sample
			for req := int64(c); time.Since(t0) < d; req += int64(conns) {
				call := tr.next(rng)
				st := time.Now()
				status, body, err := k.post("/run", call.body)
				end := time.Now()
				s := sample{id: call.id, start: int64(st.Sub(t0)), lat: int64(end.Sub(st)), status: int16(status)}
				if err == nil && status == http.StatusOK {
					s.sig = signReply(tr, body)
				}
				out = append(out, s)
				if spans != nil {
					spans.add("client.run", parent, req, st, end)
				}
			}
			per[c] = out
		}(c)
	}
	wg.Wait()
	w := window{elapsed: time.Since(t0)}
	close(done)
	<-ticked
	if spans != nil {
		spans.close(parent)
	}
	for _, s := range per {
		w.samples = append(w.samples, s...)
	}
	return w
}

// nullFloor is the loopback floor under every rung: the same client
// posting body to a null net/http handler in this process, for d. It
// returns the median round trip in microseconds.
func nullFloor(body []byte, d time.Duration) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("{}\n"))
	})}
	go srv.Serve(ln)
	defer srv.Close()
	k := &conn{addr: ln.Addr().String()}
	defer k.close()
	var lat []float64
	for t0 := time.Now(); time.Since(t0) < d || len(lat) < 100; {
		st := time.Now()
		status, _, err := k.post("/", body)
		if err != nil {
			return 0, err
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("null handler answered %d", status)
		}
		lat = append(lat, float64(time.Since(st))/1e3)
	}
	return median(lat), nil
}
