package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
)

// The single Run entry point: ctx handling, the captured Result, and the
// SafeWriter capture mode that fills it.

func TestRunExpiredContextNeverStartsBody(t *testing.T) {
	r := NewRegistry()
	started := false
	p := testPatternlet("late", OpenMP)
	p.Run = func(rc *RunContext) error {
		started = true
		return nil
	}
	r.MustRegister(p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.Run(ctx, "late.omp", RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if started {
		t.Fatal("body ran despite an already-cancelled context")
	}
}

func TestRunNilContextBehavesAsBackground(t *testing.T) {
	r := NewRegistry()
	p := testPatternlet("nilctx", OpenMP)
	p.Run = func(rc *RunContext) error {
		if rc.Ctx == nil {
			t.Error("rc.Ctx nil under Registry.Run")
		}
		if rc.Context().Done() != nil {
			t.Error("nil caller ctx should resolve to Background")
		}
		return nil
	}
	r.MustRegister(p)
	//lint:ignore SA1012 the nil-ctx fallback is exactly what this pins
	if _, err := r.Run(nil, "nilctx.omp", RunOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDeadlineBecomesRecvTimeout(t *testing.T) {
	r := NewRegistry()
	var got time.Duration
	p := testPatternlet("deadline", MPI)
	p.Run = func(rc *RunContext) error {
		got = rc.RecvTimeout
		return nil
	}
	r.MustRegister(p)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := r.Run(ctx, "deadline.mpi", RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if got <= 0 || got > time.Minute {
		t.Fatalf("RecvTimeout = %v, want in (0, 1m]", got)
	}
	// An explicit RecvTimeout wins over the deadline.
	if _, err := r.Run(ctx, "deadline.mpi", RunOptions{RecvTimeout: time.Second}); err != nil {
		t.Fatal(err)
	}
	if got != time.Second {
		t.Fatalf("explicit RecvTimeout = %v, want 1s", got)
	}
}

// An MPI world whose receives are bounded by the derived RecvTimeout
// fails with mpi.ErrDeadlock when the deadline passes; the run must still
// report the deadline as its cause, as an omp run under the same deadline
// does, so callers answer it as a timeout rather than a failure.
func TestRunMPIDeadlineSurfacesAsDeadline(t *testing.T) {
	r := NewRegistry()
	p := testPatternlet("deadline", MPI)
	p.Run = func(rc *RunContext) error {
		return mpi.Run(2, func(c *mpi.Comm) error {
			if c.Rank() == 0 {
				// Rank 1 never sends: the receive waits out the deadline.
				_, _, err := mpi.Recv[int](c, 1, 0)
				return err
			}
			return nil
		}, mpi.WithRecvTimeout(rc.RecvTimeout))
	}
	r.MustRegister(p)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := r.Run(ctx, "deadline.mpi", RunOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if !errors.Is(err, mpi.ErrDeadlock) {
		t.Fatalf("err = %v, want the body's ErrDeadlock kept alongside", err)
	}
}

func TestRunContextFiredSurfacesError(t *testing.T) {
	r := NewRegistry()
	p := testPatternlet("fired", OpenMP)
	p.Run = func(rc *RunContext) error {
		rc.W.Printf("partial\n")
		<-rc.Context().Done()
		return nil // a cancelled omp region returns no error of its own
	}
	r.MustRegister(p)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := r.Run(ctx, "fired.omp", RunOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if res.Output != "partial\n" {
		t.Fatalf("partial Result.Output = %q", res.Output)
	}
}

func TestRunStreamTeesLive(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(testPatternlet("tee", OpenMP))
	var live bytes.Buffer
	res, err := r.Run(context.Background(), "tee.omp", RunOptions{NumTasks: 2, Stream: &live})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output == "" || res.Output != live.String() {
		t.Fatalf("capture %q != live stream %q", res.Output, live.String())
	}
}

func TestRunCollectFillsTelemetry(t *testing.T) {
	r := NewRegistry()
	p := testPatternlet("tele", OpenMP)
	p.Run = func(rc *RunContext) error {
		rc.Record(0, "phase-a", 1)
		return nil
	}
	r.MustRegister(p)
	res, err := r.Run(context.Background(), "tele.omp", RunOptions{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 1 || res.Phases[0].Phase != "phase-a" {
		t.Fatalf("Phases = %v", res.Phases)
	}
	if len(res.Events) == 0 {
		t.Fatal("Collect produced no telemetry events")
	}
	if res.Counters == nil {
		t.Fatal("Collect produced no counter snapshot")
	}
	if res.Elapsed <= 0 {
		t.Fatalf("Elapsed = %v", res.Elapsed)
	}
}

// Concurrent runs must not cross-contaminate: plain runs share the
// telemetry gate, instrumented runs serialize, and each run's capture
// holds only its own output.
func TestRunConcurrentCapturesIsolated(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(testPatternlet("iso", OpenMP))
	const n = 16
	var wg sync.WaitGroup
	outs := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := RunOptions{NumTasks: 1 + i%4}
			opts.Collect = i%5 == 0
			res, err := r.Run(context.Background(), "iso.omp", opts)
			outs[i], errs[i] = res.Output, err
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		want := "ran iso with " + string(rune('0'+1+i%4)) + " tasks\n"
		if outs[i] != want {
			t.Fatalf("run %d output %q, want %q", i, outs[i], want)
		}
	}
}

// Satellite: the per-run buffered capture is byte-for-byte deterministic
// for single-threaded patternlets...
func TestCaptureDeterministicSingleThreaded(t *testing.T) {
	r := NewRegistry()
	p := testPatternlet("det", OpenMP)
	p.Run = func(rc *RunContext) error {
		for i := 0; i < 50; i++ {
			rc.W.Printf("line %02d of a single-threaded run\n", i)
		}
		return nil
	}
	r.MustRegister(p)
	first, err := captureRun(r, "det.omp", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		out, err := captureRun(r, "det.omp", RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if out != first {
			t.Fatalf("run %d differs:\n%q\nvs\n%q", i, out, first)
		}
	}
}

// ...and line-stable otherwise: each Printf lands intact, only the
// interleaving order varies.
func TestCaptureLineStableMultiThreaded(t *testing.T) {
	r := NewRegistry()
	p := testPatternlet("stable", OpenMP)
	p.Run = func(rc *RunContext) error {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for j := 0; j < 100; j++ {
					rc.W.Printf("writer-%d-line-%d\n", w, j)
				}
			}(w)
		}
		wg.Wait()
		return nil
	}
	r.MustRegister(p)
	out, err := captureRun(r, "stable.omp", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 800 {
		t.Fatalf("%d lines captured, want 800", len(lines))
	}
	seen := map[string]bool{}
	for _, l := range lines {
		if !strings.HasPrefix(l, "writer-") || !strings.Contains(l, "-line-") {
			t.Fatalf("corrupted line %q", l)
		}
		if seen[l] {
			t.Fatalf("duplicated line %q", l)
		}
		seen[l] = true
	}
}

// The capture-mode writer tees every write to the live sink under the
// same lock, so the tee sees the same line-stable transcript.
func TestCaptureTeeMatchesBuffer(t *testing.T) {
	var tee bytes.Buffer
	w := NewCapture(&tee)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				w.Printf("t%d-%d\n", i, j)
			}
			w.Write([]byte("raw\n"))
		}(i)
	}
	wg.Wait()
	if w.Captured() != tee.String() {
		t.Fatalf("capture and tee diverged:\n%q\nvs\n%q", w.Captured(), tee.String())
	}
	if got := NewSafeWriter(&tee).Captured(); got != "" {
		t.Fatalf("non-capture writer Captured() = %q, want empty", got)
	}
}
