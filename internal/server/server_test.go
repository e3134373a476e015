package server

// End-to-end tests of the daemon over real HTTP: the protocol flow,
// program dedup, per-session isolation, admission backpressure,
// deadline expiry, graceful drain, and the observability surface.
// The stress test (stress_test.go) covers the ≥64-session concurrent
// bit-exactness requirement.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dopia/internal/clc"
	"dopia/internal/interp"
	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// scaleSrc is a 1-D kernel whose output y depends on both the input and
// the index, fully overwriting y — safe to relaunch with new scalars.
const scaleSrc = `
__kernel void scale(__global float* x, __global float* y, float a, int n) {
    int i = get_global_id(0);
    if (i < n) {
        y[i] = a * x[i] + (float)i * 0.5f;
    }
}`

func newTestServer(t testing.TB, mutate func(*Config)) (*Server, *httptest.Server, *Client) {
	t.Helper()
	cfg := Config{Machine: sim.Kaveri()}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts, NewClient(ts.URL, nil)
}

// scaleReference runs the same kernel in-process through the sequential
// interpreter on identically seeded inputs and returns the expected y.
func scaleReference(t *testing.T, n int, seed uint32, a float64) []float32 {
	t.Helper()
	prog, err := clc.Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := interp.NewExec(prog.Kernel("scale"))
	if err != nil {
		t.Fatal(err)
	}
	x := workloads.NewFilledFloat(n, seed)
	y := interp.NewFloatBuffer(n)
	if err := ex.Bind(interp.BufArg(x), interp.BufArg(y), interp.FloatArg(a), interp.IntArg(int64(n))); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(interp.ND1(n, 64)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	out := make([]float32, n)
	copy(out, y.F32)
	return out
}

func TestProgramDedup(t *testing.T) {
	_, _, c := newTestServer(t, nil)

	p1, err := c.Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Cached {
		t.Error("first compile reported cached")
	}
	if len(p1.Kernels) != 1 || p1.Kernels[0] != "scale" {
		t.Errorf("kernels = %v, want [scale]", p1.Kernels)
	}
	if want := ProgramID(scaleSrc); p1.ProgramID != want {
		t.Errorf("program ID %q, want %q", p1.ProgramID, want)
	}
	p2, err := c.Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Cached || p2.ProgramID != p1.ProgramID {
		t.Errorf("second compile: cached=%v id=%q, want cached id %q", p2.Cached, p2.ProgramID, p1.ProgramID)
	}

	if _, err := c.Compile("__kernel void broken(__global float* x { }"); err == nil {
		t.Error("malformed source compiled")
	}
}

func TestLaunchBitExact(t *testing.T) {
	_, _, c := newTestServer(t, nil)

	prog, err := c.Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	sid, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	const n, seed = 256, uint32(42)
	a := 1.25
	fillSeed := seed
	if err := c.CreateBuffer(sid, &BufferRequest{Name: "x", Kind: "float32", Len: n, FillSeed: &fillSeed}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateBuffer(sid, &BufferRequest{Name: "y", Kind: "float32", Len: n}); err != nil {
		t.Fatal(err)
	}
	ai := int64(n)
	resp, err := c.Launch(&LaunchRequest{
		SessionID: sid, ProgramID: prog.ProgramID, Kernel: "scale",
		Args:   []LaunchArg{{Buf: "x"}, {Buf: "y"}, {Float: &a}, {Int: &ai}},
		Global: []int{n}, Local: []int{64},
		Read: []string{"y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rung != "managed" {
		t.Errorf("rung = %q, want managed", resp.Rung)
	}
	if resp.Result == nil || resp.Result.WGsCPU+resp.Result.WGsGPU != n/64 {
		t.Errorf("result = %+v, want %d work-groups", resp.Result, n/64)
	}
	if resp.Fallback == nil || resp.Fallback.Managed != 1 || resp.Fallback.Plain != 0 {
		t.Errorf("fallback delta = %+v, want exactly one managed", resp.Fallback)
	}
	got, err := DecodeF32(resp.Buffers["y"].F32B64)
	if err != nil {
		t.Fatal(err)
	}
	want := scaleReference(t, n, seed, a)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("y[%d] = %v, want %v (bit-exact)", i, got[i], want[i])
		}
	}

	// Read-back endpoint agrees with the launch's Read set.
	bd, err := c.ReadBuffer(sid, "y")
	if err != nil {
		t.Fatal(err)
	}
	if bd.F32B64 != resp.Buffers["y"].F32B64 {
		t.Error("GET buffer disagrees with launch read-back")
	}
}

func TestSessionIsolation(t *testing.T) {
	_, _, c := newTestServer(t, nil)
	prog, err := c.Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	seed := uint32(7)
	if err := c.CreateBuffer(s1, &BufferRequest{Name: "x", Kind: "float32", Len: 64, FillSeed: &seed}); err != nil {
		t.Fatal(err)
	}
	// s1's buffer must not be visible from s2.
	if _, err := c.ReadBuffer(s2, "x"); err == nil {
		t.Error("buffer leaked across sessions")
	}
	a, n := 1.0, int64(64)
	_, err = c.Launch(&LaunchRequest{
		SessionID: s2, ProgramID: prog.ProgramID, Kernel: "scale",
		Args:   []LaunchArg{{Buf: "x"}, {Buf: "x"}, {Float: &a}, {Int: &n}},
		Global: []int{64}, Local: []int{64},
	})
	if err == nil {
		t.Error("launch in s2 resolved s1's buffer")
	}
}

func TestRequestValidation(t *testing.T) {
	_, _, c := newTestServer(t, nil)
	prog, err := c.Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	sid, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	seed := uint32(1)
	if err := c.CreateBuffer(sid, &BufferRequest{Name: "x", Kind: "float32", Len: 64, FillSeed: &seed}); err != nil {
		t.Fatal(err)
	}
	a, n := 1.0, int64(64)
	good := func() *LaunchRequest {
		return &LaunchRequest{
			SessionID: sid, ProgramID: prog.ProgramID, Kernel: "scale",
			Args:   []LaunchArg{{Buf: "x"}, {Buf: "x"}, {Float: &a}, {Int: &n}},
			Global: []int{64}, Local: []int{64},
		}
	}

	cases := []struct {
		name   string
		mutate func(*LaunchRequest)
		status int
	}{
		{"unknown session", func(r *LaunchRequest) { r.SessionID = "nope" }, http.StatusNotFound},
		{"unknown program", func(r *LaunchRequest) { r.ProgramID = "p-ffffffffffff" }, http.StatusNotFound},
		{"unknown kernel", func(r *LaunchRequest) { r.Kernel = "nope" }, http.StatusBadRequest},
		{"wrong arg count", func(r *LaunchRequest) { r.Args = r.Args[:2] }, http.StatusBadRequest},
		{"unknown buffer", func(r *LaunchRequest) { r.Args[0].Buf = "nope" }, http.StatusBadRequest},
		{"empty arg", func(r *LaunchRequest) { r.Args[2] = LaunchArg{} }, http.StatusBadRequest},
		{"no geometry", func(r *LaunchRequest) { r.Global, r.Local = nil, nil }, http.StatusBadRequest},
		{"mismatched dims", func(r *LaunchRequest) { r.Local = []int{8, 8} }, http.StatusBadRequest},
		{"unknown read buffer", func(r *LaunchRequest) { r.Read = []string{"nope"} }, http.StatusBadRequest},
	}
	for _, tc := range cases {
		req := good()
		tc.mutate(req)
		_, err := c.Launch(req)
		apiErr, ok := err.(*APIError)
		if !ok {
			t.Errorf("%s: error = %v, want APIError", tc.name, err)
			continue
		}
		if apiErr.Status != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, apiErr.Status, tc.status)
		}
	}
	// The session still works after all those rejections.
	if _, err := c.Launch(good()); err != nil {
		t.Fatalf("launch after rejections: %v", err)
	}
}

func TestBufferValidation(t *testing.T) {
	_, _, c := newTestServer(t, func(cfg *Config) { cfg.MaxBufferBytes = 1024 })
	sid, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	seed := uint32(1)
	bad := []*BufferRequest{
		{Name: "", Kind: "float32", Len: 4},                                         // no name
		{Name: "x", Kind: "float64", Len: 4},                                        // bad kind
		{Name: "x", Kind: "float32"},                                                // no length
		{Name: "x", Kind: "float32", Len: 1024},                                     // over byte limit
		{Name: "x", Kind: "float32", Len: 2, F32: []float32{1, 2}, FillSeed: &seed}, // two sources
		{Name: "x", Kind: "float32", I32: []int32{1}},                               // wrong element type
		{Name: "x", Kind: "int32", F32: []float32{1}},                               // wrong element type
		{Name: "x", Kind: "float32", Len: 3, F32: []float32{1, 2}},                  // len contradicts data
		{Name: "x", Kind: "float32", F32B64: "!!!"},                                 // bad base64
	}
	for i, req := range bad {
		if err := c.CreateBuffer(sid, req); err == nil {
			t.Errorf("bad buffer %d accepted: %+v", i, req)
		}
	}
	// A good one still lands, and duplicates are refused.
	if err := c.CreateBuffer(sid, &BufferRequest{Name: "x", Kind: "int32", I32: []int32{3, 1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateBuffer(sid, &BufferRequest{Name: "x", Kind: "int32", Len: 4}); err == nil {
		t.Error("duplicate buffer name accepted")
	}
	bd, err := c.ReadBuffer(sid, "x")
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeI32(bd.I32B64)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 1 || got[2] != 2 {
		t.Errorf("int buffer round-trip = %v", got)
	}
}

// TestQueueFull deterministically wedges the single worker on the
// session lock and checks that the bounded queue answers 429 with
// Retry-After once full, over both protocols.
func TestQueueFull(t *testing.T) {
	s, addr := newMixedTestServer(t, func(cfg *Config) {
		cfg.Workers = 1
		cfg.QueueDepth = 1
	})
	c := NewClient("http://"+addr, nil)
	bc, err := DialBin(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	prog, err := c.Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	sid, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	seed := uint32(1)
	if err := c.CreateBuffer(sid, &BufferRequest{Name: "x", Kind: "float32", Len: 64, FillSeed: &seed}); err != nil {
		t.Fatal(err)
	}
	a, n := 1.0, int64(64)
	launch := func() (*LaunchResponse, error) {
		return c.Launch(&LaunchRequest{
			SessionID: sid, ProgramID: prog.ProgramID, Kernel: "scale",
			Args:   []LaunchArg{{Buf: "x"}, {Buf: "x"}, {Float: &a}, {Int: &n}},
			Global: []int{64}, Local: []int{64},
		})
	}

	// Hold the session lock: the worker picks up launch #1 and blocks,
	// launch #2 fills the queue, launch #3 must bounce with 429.
	sess, _ := s.session(sid)
	sess.mu.Lock()
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := launch()
			results <- err
		}()
	}
	// Wait until one launch occupies the worker and one sits queued.
	deadline := time.Now().Add(5 * time.Second)
	for (s.inflight.Load() != 1 || s.queueLen() != 1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.inflight.Load() != 1 || s.queueLen() != 1 {
		sess.mu.Unlock()
		t.Fatalf("worker/queue never saturated: inflight=%d queued=%d", s.inflight.Load(), s.queueLen())
	}
	_, err = launch()
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Status != http.StatusTooManyRequests {
		sess.mu.Unlock()
		t.Fatalf("overflow launch: %v, want 429", err)
	}
	if apiErr.RetryAfterMS <= 0 {
		t.Errorf("429 without Retry-After: %+v", apiErr)
	}
	if !apiErr.IsRetryable() {
		t.Error("429 not classified retryable")
	}
	// The binary protocol reports the same overflow as an error frame.
	_, err = bc.Launch(&BinLaunch{
		SessionID: sid, ProgramID: prog.ProgramID, Kernel: "scale",
		Args:   []LaunchArg{{Buf: "x"}, {Buf: "x"}, {Float: &a}, {Int: &n}},
		Global: []int{64}, Local: []int{64},
	})
	binErr, ok := err.(*BinError)
	if !ok || binErr.Status != http.StatusTooManyRequests {
		sess.mu.Unlock()
		t.Fatalf("binary overflow launch: %v, want 429", err)
	}
	if binErr.RetryAfterMS <= 0 || !binErr.IsRetryable() {
		t.Errorf("binary 429 without a retry-after: %+v", binErr)
	}

	sess.mu.Unlock()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("blocked launch %d: %v", i, err)
		}
	}
	if got := s.met.rejected.Load(); got != 2 {
		t.Errorf("rejected counter = %d, want 2", got)
	}
}

// TestDeadlineExpiry wedges the worker past a short request deadline
// and checks the request fails with 504 without corrupting the session.
func TestDeadlineExpiry(t *testing.T) {
	s, _, c := newTestServer(t, func(cfg *Config) { cfg.Workers = 1 })
	prog, err := c.Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	sid, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	seed := uint32(1)
	if err := c.CreateBuffer(sid, &BufferRequest{Name: "x", Kind: "float32", Len: 64, FillSeed: &seed}); err != nil {
		t.Fatal(err)
	}
	a, n := 1.0, int64(64)
	req := func(deadlineMS int64) *LaunchRequest {
		return &LaunchRequest{
			SessionID: sid, ProgramID: prog.ProgramID, Kernel: "scale",
			Args:   []LaunchArg{{Buf: "x"}, {Buf: "x"}, {Float: &a}, {Int: &n}},
			Global: []int{64}, Local: []int{64},
			DeadlineMS: deadlineMS,
		}
	}

	sess, _ := s.session(sid)
	sess.mu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := c.Launch(req(50))
		done <- err
	}()
	time.Sleep(250 * time.Millisecond) // let the 50ms deadline lapse
	sess.mu.Unlock()

	err = <-done
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("expired launch: %v, want 504", err)
	}
	if got := s.met.deadlineExpired.Load(); got == 0 {
		t.Error("deadlineExpired counter not bumped")
	}
	// The session survives and serves the next launch normally.
	resp, err := c.Launch(req(0))
	if err != nil {
		t.Fatalf("launch after expiry: %v", err)
	}
	if resp.Rung != "managed" {
		t.Errorf("post-expiry rung = %q, want managed", resp.Rung)
	}
}

// TestLaunchBoundOnlyByDeadline: a served launch's request deadline is
// its only bound. A framework watchdog under it (30 s by default) would
// abort a launch whose client allowed it up to MaxDeadline, and serve it
// on the plain rung; without one, a long deadline lets the launch finish
// managed, and a deadline that lapses mid-run still aborts it.
func TestLaunchBoundOnlyByDeadline(t *testing.T) {
	s, _, c := newTestServer(t, nil)
	if d := s.fw.WatchdogTimeout; d >= 0 {
		t.Fatalf("framework watchdog = %v under the request deadline, want off (< 0)", d)
	}
	sid, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 20
	prog, _ := setupAcc(t, c, sid, n)
	nn := int64(n)
	launch := func(deadlineMS int64) (*LaunchResponse, error) {
		return c.Launch(&LaunchRequest{
			SessionID: sid, ProgramID: prog, Kernel: "acc",
			Args:   []LaunchArg{{Buf: "x"}, {Buf: "y"}, {Int: &nn}},
			Global: []int{n}, Local: []int{256},
			DeadlineMS: deadlineMS,
		})
	}
	resp, err := launch(10000)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rung != "managed" || resp.Fallback == nil || resp.Fallback.Timeouts != 0 {
		t.Fatalf("launch under a 10 s deadline: rung %q, fallback %+v; want managed with no timeout", resp.Rung, resp.Fallback)
	}
	_, err = launch(1)
	if apiErr, ok := err.(*APIError); !ok || apiErr.Status != http.StatusGatewayTimeout {
		t.Fatalf("launch under a 1 ms deadline: %v, want 504", err)
	}
}

func TestGracefulDrain(t *testing.T) {
	s, _, c := newTestServer(t, nil)
	prog, err := c.Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	sid, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	seed := uint32(1)
	if err := c.CreateBuffer(sid, &BufferRequest{Name: "x", Kind: "float32", Len: 64, FillSeed: &seed}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Liveness stays up while draining; readiness drops.
	h, err := c.Healthz()
	if err != nil {
		t.Fatalf("draining healthz failed: %v", err)
	}
	if h.Status != "draining" || h.Ready {
		t.Errorf("draining healthz = %+v, want status=draining ready=false", h)
	}
	if _, err := c.Readyz(); err == nil {
		t.Fatal("draining readyz succeeded, want 503")
	} else if apiErr, ok := err.(*APIError); !ok || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz error = %v, want 503", err)
	}
	a, n := 1.0, int64(64)
	_, err = c.Launch(&LaunchRequest{
		SessionID: sid, ProgramID: prog.ProgramID, Kernel: "scale",
		Args:   []LaunchArg{{Buf: "x"}, {Buf: "x"}, {Float: &a}, {Int: &n}},
		Global: []int{64}, Local: []int{64},
	})
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("launch while draining: %v, want 503", err)
	}
	if _, err := c.NewSession(); err == nil {
		t.Error("session created while draining")
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, _, c := newTestServer(t, nil)
	prog, err := c.Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	sid, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	seed := uint32(3)
	if err := c.CreateBuffer(sid, &BufferRequest{Name: "x", Kind: "float32", Len: 128, FillSeed: &seed}); err != nil {
		t.Fatal(err)
	}
	a, n := 2.0, int64(128)
	for i := 0; i < 3; i++ {
		if _, err := c.Launch(&LaunchRequest{
			SessionID: sid, ProgramID: prog.ProgramID, Kernel: "scale",
			Args:   []LaunchArg{{Buf: "x"}, {Buf: "x"}, {Float: &a}, {Int: &n}},
			Global: []int{128}, Local: []int{64},
		}); err != nil {
			t.Fatal(err)
		}
	}

	h, err := c.Healthz()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Sessions != 1 || h.Launches != 3 || h.QueueCapacity != 256 {
		t.Errorf("healthz = %+v", h)
	}

	page, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dopia_launches_total 3",
		"dopia_sessions_active 1",
		"dopia_queue_capacity 256",
		"dopia_fallback_managed_total 3",
		"dopia_fallback_plain_total 0",
		"dopia_panics_contained_total 0",
		"dopia_request_seconds{quantile=\"0.99\"}",
		"dopia_request_seconds_count 3",
		"dopia_progcache_hits_total",
		"dopia_program_evictions_total 0",
		"dopia_queue_wait_seconds_count 3",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// No launch is answered from another's execution, so no series counts
	// coalesced or memoized launches.
	for _, gone := range []string{"coalesced", "memo"} {
		if strings.Contains(page, gone) {
			t.Errorf("/metrics still carries a %q series", gone)
		}
	}

	// Session close works and is reflected.
	if err := c.CloseSession(sid); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseSession(sid); err == nil {
		t.Error("double close succeeded")
	}
	h, err = c.Healthz()
	if err != nil {
		t.Fatal(err)
	}
	if h.Sessions != 0 {
		t.Errorf("sessions after close = %d, want 0", h.Sessions)
	}
}
