package server

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAdmitCountsBeforeWorkerSees is the regression test for the
// admission ordering race: admit used to register a task with the drain
// WaitGroup only after the queue send, so a worker finishing a µs-scale
// launch (an idempotent replay here) could call pending.Done first and
// panic with "negative WaitGroup counter". It drives the handler's
// admission sequence directly, 10⁴ times from several goroutines on a 2-P
// daemon with a queue small enough to bounce, and then requires the drain
// to finish: every admitted and bounced task must have left pending
// balanced.
func TestAdmitCountsBeforeWorkerSees(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s, _, c := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 2
		cfg.QueueDepth = 1
	})
	prog, err := c.Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	sid, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	seed := uint32(1)
	for _, name := range []string{"x", "y"} {
		if err := c.CreateBuffer(sid, &BufferRequest{Name: name, Kind: "float32", Len: 64, FillSeed: &seed}); err != nil {
			t.Fatal(err)
		}
	}
	a, n := 1.0, int64(64)
	req := &LaunchRequest{
		SessionID: sid, ProgramID: prog.ProgramID, Kernel: "scale",
		Args:   []LaunchArg{{Buf: "x"}, {Buf: "y"}, {Float: &a}, {Int: &n}},
		Global: []int{64}, Local: []int{64},
		IdemKey: "storm",
	}
	// Execute once through the front door so every later launch replays
	// the idempotency key: microseconds of worker time.
	if _, err := c.Launch(req); err != nil {
		t.Fatal(err)
	}
	sess, _ := s.session(sid)
	p, _ := s.programs.Get(prog.ProgramID)

	const goroutines, per = 4, 2500
	var served, bounced atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tk, err := launchFromRequest(req)
				if err != nil {
					t.Error(err)
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				tk.sess, tk.prog, tk.ctx, tk.cancel = sess, p, ctx, cancel
				tk.admitted, tk.done = time.Now(), make(chan launchOutcome, 1)
				switch status := s.admit(tk); status {
				case 0:
					out := <-tk.done
					if out.err != nil {
						t.Errorf("admitted launch: %v", out.err)
					} else if !out.res.replayed {
						t.Error("admitted launch executed instead of replaying its key")
					}
					served.Add(1)
				case http.StatusTooManyRequests:
					bounced.Add(1)
					cancel()
				default:
					cancel()
					t.Errorf("admit = %d", status)
				}
			}
		}()
	}
	wg.Wait()
	if got := served.Load() + bounced.Load(); got != goroutines*per {
		t.Fatalf("accounted for %d launches, want %d", got, goroutines*per)
	}
	if got := s.met.idemReplays.Load(); got != served.Load() {
		t.Errorf("idempotent replays = %d, want %d", got, served.Load())
	}
	t.Logf("served=%d bounced=%d", served.Load(), bounced.Load())

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain after the storm: %v (pending left unbalanced)", err)
	}
}
