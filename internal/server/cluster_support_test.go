package server

// Tests of the cluster-facing server machinery added for the router
// tier: client-named sessions, session export/import, the per-session
// idempotency cache, the /healthz-vs-/readyz split, program eviction,
// and the client's Retry-After-honoring backoff.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// accSrc accumulates into y, so applying a launch twice is detectable:
// y[i] grows by x[i]+1 exactly once per applied launch.
const accSrc = `
__kernel void acc(__global float* x, __global float* y, int n) {
    int i = get_global_id(0);
    if (i < n) {
        y[i] = y[i] + x[i] + 1.0f;
    }
}`

func setupAcc(t testing.TB, c *Client, sid string, n int) (progID string, launch func(idem string) *LaunchResponse) {
	t.Helper()
	prog, err := c.Compile(accSrc)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint32(7)
	if err := c.CreateBuffer(sid, &BufferRequest{Name: "x", Kind: "float32", Len: n, FillSeed: &seed}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateBuffer(sid, &BufferRequest{Name: "y", Kind: "float32", Len: n}); err != nil {
		t.Fatal(err)
	}
	nn := int64(n)
	return prog.ProgramID, func(idem string) *LaunchResponse {
		t.Helper()
		resp, err := c.Launch(&LaunchRequest{
			SessionID: sid, ProgramID: prog.ProgramID, Kernel: "acc",
			Args:   []LaunchArg{{Buf: "x"}, {Buf: "y"}, {Int: &nn}},
			Global: []int{n}, Local: []int{32},
			Read:    []string{"y"},
			IdemKey: idem,
		})
		if err != nil {
			t.Fatalf("launch (idem %q): %v", idem, err)
		}
		return resp
	}
}

func TestNamedSessionAndConflict(t *testing.T) {
	_, _, c := newTestServer(t, nil)
	if err := c.NewSessionWithID("c-42"); err != nil {
		t.Fatal(err)
	}
	err := c.NewSessionWithID("c-42")
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Status != http.StatusConflict {
		t.Fatalf("duplicate named session: %v, want 409", err)
	}
	// Anonymous sessions still get generated IDs.
	sid, err := c.NewSession()
	if err != nil || sid == "" {
		t.Fatalf("anonymous session: %q, %v", sid, err)
	}
}

func TestIdempotentLaunchReplay(t *testing.T) {
	_, _, c := newTestServer(t, nil)
	sid, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	_, launch := setupAcc(t, c, sid, 64)

	first := launch("k1")
	if first.Replayed {
		t.Error("first launch reported replayed")
	}
	replay := launch("k1")
	if !replay.Replayed {
		t.Error("second launch under same idem key was not a replay")
	}
	if replay.Buffers["y"].F32B64 != first.Buffers["y"].F32B64 {
		t.Error("replayed response payload differs from the original")
	}
	// State advanced exactly once: a fresh key advances it again and the
	// new y differs from the replayed one.
	second := launch("k2")
	if second.Replayed {
		t.Error("fresh key reported replayed")
	}
	if second.Buffers["y"].F32B64 == first.Buffers["y"].F32B64 {
		t.Error("fresh launch did not advance state — idem key leaked across keys")
	}
}

func TestSessionExportImportRoundTrip(t *testing.T) {
	s, _, c := newTestServer(t, nil)
	sid, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	_, launch := setupAcc(t, c, sid, 64)
	var last *LaunchResponse
	for i := 0; i < 3; i++ {
		last = launch("key-" + strconv.Itoa(i))
	}

	exp, err := c.ExportSession(sid)
	if err != nil {
		t.Fatal(err)
	}
	if exp.SessionID != sid || exp.Launches != 3 || len(exp.Buffers) != 2 || len(exp.Idem) != 3 {
		t.Fatalf("export = id %q launches %d bufs %d idem %d", exp.SessionID, exp.Launches, len(exp.Buffers), len(exp.Idem))
	}
	if exp.Buffers["y"].F32B64 != last.Buffers["y"].F32B64 {
		t.Error("exported y differs from last response")
	}

	// Import on a second daemon: buffer state and idempotency survive.
	_, _, c2 := newTestServer(t, nil)
	if _, err := c2.Compile(accSrc); err != nil {
		t.Fatal(err)
	}
	if err := c2.ImportSession(exp); err != nil {
		t.Fatal(err)
	}
	got, err := c2.ReadBuffer(sid, "y")
	if err != nil {
		t.Fatal(err)
	}
	if got.F32B64 != exp.Buffers["y"].F32B64 {
		t.Error("imported y not bit-identical to export")
	}
	// Replaying an already-applied launch on the importee is a no-op.
	nn := int64(64)
	resp, err := c2.Launch(&LaunchRequest{
		SessionID: sid, ProgramID: ProgramID(accSrc), Kernel: "acc",
		Args:   []LaunchArg{{Buf: "x"}, {Buf: "y"}, {Int: &nn}},
		Global: []int{64}, Local: []int{32},
		Read:    []string{"y"},
		IdemKey: "key-2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Replayed {
		t.Error("imported session re-executed an already-applied launch")
	}
	// Re-import overwrites (migration replaces stale replicas).
	if err := c2.ImportSession(exp); err != nil {
		t.Fatalf("re-import: %v", err)
	}
	if n := s.SessionCount(); n != 1 {
		t.Errorf("source SessionCount = %d, want 1", n)
	}
}

func TestStartUnreadyAndEviction(t *testing.T) {
	s, _, c := newTestServer(t, nil)
	s.SetReady(false)
	if _, err := c.Readyz(); err == nil {
		t.Fatal("unready readyz succeeded, want 503")
	}
	h, err := c.Healthz()
	if err != nil {
		t.Fatalf("unready healthz failed: %v", err)
	}
	if h.Status != "not-ready" || h.Ready {
		t.Errorf("unready healthz = %+v", h)
	}
	s.SetReady(true)
	if r, err := c.Readyz(); err != nil || !r.Ready {
		t.Fatalf("readyz after SetReady = %+v, %v", r, err)
	}

	// Eviction: registered programs vanish, launches 404 until re-push.
	p, err := c.Compile(accSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.programs.Get(p.ProgramID); !ok || s.programs.Stats().Entries != 1 {
		t.Errorf("registry holds %d programs, want only %s", s.programs.Stats().Entries, p.ProgramID)
	}
	if n := s.EvictPrograms(); n != 1 {
		t.Errorf("EvictPrograms = %d, want 1", n)
	}
	sid, _ := c.NewSession()
	nn := int64(8)
	_, err = c.Launch(&LaunchRequest{
		SessionID: sid, ProgramID: p.ProgramID, Kernel: "acc",
		Args: []LaunchArg{{Buf: "x"}, {Buf: "y"}, {Int: &nn}}, Global: []int{8}, Local: []int{8},
	})
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Status != http.StatusNotFound {
		t.Fatalf("launch after eviction: %v, want 404", err)
	}
	if p2, err := c.Compile(accSrc); err != nil || p2.ProgramID != p.ProgramID {
		t.Fatalf("re-push after eviction: %+v, %v", p2, err)
	}
}

func TestClientRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write([]byte(`{"error":"queue full","retry_after_ms":250}`))
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"session_id":"s-1"}`))
	}))
	defer ts.Close()

	c := NewClient(ts.URL, nil)
	c.SetRetryPolicy(&RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second, Seed: 42})
	t0 := time.Now()
	sid, err := c.NewSession()
	if err != nil || sid != "s-1" {
		t.Fatalf("NewSession = %q, %v", sid, err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3", got)
	}
	if c.Retries() != 2 {
		t.Errorf("Retries = %d, want 2", c.Retries())
	}
	// Two backoffs floored at the body's retry_after_ms=250 each.
	if elapsed := time.Since(t0); elapsed < 500*time.Millisecond {
		t.Errorf("elapsed %v, want >= 500ms (Retry-After floor)", elapsed)
	}
}

func TestClientRetryAfterFromHeaderOnly(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":"draining"}`))
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"session_id":"s-2"}`))
	}))
	defer ts.Close()

	// Without a policy: error surfaces, header parsed into the APIError.
	c := NewClient(ts.URL, nil)
	_, err := c.NewSession()
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.RetryAfterMS != 1000 {
		t.Fatalf("err = %v (RetryAfterMS %d), want header-derived 1000", err, apiErr.RetryAfterMS)
	}
	if calls.Load() != 1 {
		t.Fatalf("policy-less client retried: %d calls", calls.Load())
	}

	// With a policy: the header value floors the sleep.
	calls.Store(0)
	c2 := NewClient(ts.URL, nil)
	c2.SetRetryPolicy(&RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, Seed: 1})
	t0 := time.Now()
	if _, err := c2.NewSession(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(t0); elapsed < time.Second {
		t.Errorf("elapsed %v, want >= 1s from Retry-After header", elapsed)
	}
}

func TestExportImportValidation(t *testing.T) {
	_, _, c := newTestServer(t, nil)
	if _, err := c.ExportSession("nope"); err == nil {
		t.Error("export of missing session succeeded")
	}
	err := c.ImportSession(&SessionExport{})
	if apiErr, ok := err.(*APIError); !ok || apiErr.Status != http.StatusBadRequest {
		t.Errorf("empty import: %v, want 400", err)
	}
	err = c.ImportSession(&SessionExport{
		SessionID: "bad-buf",
		Buffers:   map[string]BufferData{"x": {Kind: "float32", F32B64: "!!!not-base64!!!"}},
	})
	if apiErr, ok := err.(*APIError); !ok || apiErr.Status != http.StatusBadRequest {
		t.Errorf("corrupt import: %v, want 400", err)
	}
	err = c.ImportSession(&SessionExport{
		SessionID: "bad-order",
		Idem: []IdemEntry{{
			Key:  "k",
			Resp: &LaunchResponse{Buffers: map[string]BufferData{"x": {Kind: "float32", Len: 1, F32B64: EncodeF32([]float32{1})}}},
			Read: []string{"y"},
		}},
	})
	if apiErr, ok := err.(*APIError); !ok || apiErr.Status != http.StatusBadRequest {
		t.Errorf("import whose read order names an absent buffer: %v, want 400", err)
	}
}

// TestResultFromResponseReadOrder pins the import side of IdemEntry.Read:
// the named order is kept, an export without the field falls back to name
// order, and an order that is not a permutation of the carried buffers is
// refused.
func TestResultFromResponseReadOrder(t *testing.T) {
	one := func(v float32) BufferData {
		return BufferData{Kind: "float32", Len: 1, F32B64: EncodeF32([]float32{v})}
	}
	resp := &LaunchResponse{Buffers: map[string]BufferData{"y": one(1), "x": one(2)}}
	for _, tc := range []struct {
		order []string
		want  string // "" = refused
	}{
		{nil, "x y"},
		{[]string{"y", "x"}, "y x"},
		{[]string{"x", "y"}, "x y"},
		{[]string{"y"}, ""},
		{[]string{"y", "y"}, ""},
		{[]string{"y", "z"}, ""},
	} {
		res, err := resultFromResponse(resp, tc.order)
		if tc.want == "" {
			if err == nil {
				t.Errorf("order %q accepted", tc.order)
			}
			continue
		}
		if err != nil {
			t.Errorf("order %q: %v", tc.order, err)
			continue
		}
		var got []string
		for _, rb := range res.bufs {
			got = append(got, rb.name)
		}
		if strings.Join(got, " ") != tc.want {
			t.Errorf("order %q: read-set %q, want %q", tc.order, got, tc.want)
		}
	}
}

// registrySrc returns a program text no other test registers.
func registrySrc(i int) string {
	return fmt.Sprintf(`__kernel void k(__global float* a, int n) {
	int i = get_global_id(0);
	if (i < n) a[i] = a[i] + %d.0f; // registry
}`, i+1000)
}

// TestProgramRegistryIsBounded registers one program more than the
// registry holds: the least recently *launched* one is evicted (not the
// least recently registered), a launch naming it gets the 404 a router
// repairs by re-pushing, the eviction is counted, and — the reason the
// bound exists — once the clc program cache has let go of it too, its
// analysis and malleable code are collected even though the daemon that
// compiled them is still running.
func TestProgramRegistryIsBounded(t *testing.T) {
	s, _, c := newTestServer(t, nil)
	sid, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	if err := c.CreateBuffer(sid, &BufferRequest{Name: "a", Kind: "float32", Len: n}); err != nil {
		t.Fatal(err)
	}
	nn := int64(n)
	launch := func(progID string) error {
		_, err := c.Launch(&LaunchRequest{
			SessionID: sid, ProgramID: progID, Kernel: "k",
			Args: []LaunchArg{{Buf: "a"}, {Int: &nn}}, Global: []int{n}, Local: []int{16},
		})
		return err
	}
	register := func(i int) string {
		t.Helper()
		p, err := c.Compile(registrySrc(i))
		if err != nil {
			t.Fatal(err)
		}
		return p.ProgramID
	}

	// keep is registered first, so registration order would evict it;
	// launch order (victim, then keep) makes victim the one to go.
	keep, victim := register(-1), register(-2)
	freed := make(chan string, 2)
	func() {
		if err := launch(victim); err != nil {
			t.Fatal(err)
		}
		p, _ := s.programs.Get(victim)
		k := p.prog.Compiled().Kernel("k")
		res, err := s.fw.Analysis(k)
		if err != nil {
			t.Fatal(err)
		}
		mall, err := s.fw.Malleable(k, 1)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(res, func(any) { freed <- "analysis" })
		runtime.SetFinalizer(mall, func(any) { freed <- "malleable" })
	}()
	if err := launch(keep); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < programRegistryCap-1; i++ {
		register(i)
	}
	if got := s.programs.Stats().Entries; got != programRegistryCap {
		t.Fatalf("%d programs registered after cap+1 registrations, want %d", got, programRegistryCap)
	}
	err = launch(victim)
	if apiErr, ok := err.(*APIError); !ok || apiErr.Status != http.StatusNotFound || !strings.Contains(apiErr.Message, "no program") {
		t.Fatalf("launch of the least recently launched program: %v, want 404 no program", err)
	}
	if err := launch(keep); err != nil {
		t.Fatalf("the more recently launched program was evicted: %v", err)
	}
	page, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page, "dopia_program_evictions_total 1\n") {
		t.Error("/metrics does not count the capacity eviction")
	}
	if got := register(-2); got != victim {
		t.Fatalf("re-push of the evicted source: id %s, want %s", got, victim)
	}
	if err := launch(victim); err != nil {
		t.Fatalf("launch after re-push: %v", err)
	}

	// Re-pushed, the program is resident in the registry and (it never
	// left) in the equally sized process-wide clc program cache: nothing
	// may be collected yet. Then push it out of both.
	runtime.GC()
	select {
	case what := <-freed:
		t.Fatalf("%s of a resident program was collected", what)
	case <-time.After(50 * time.Millisecond):
	}
	for i := 0; i <= programRegistryCap; i++ {
		register(programRegistryCap + i)
	}
	deadline := time.After(10 * time.Second)
	for got := 0; got < 2; {
		runtime.GC()
		select {
		case <-freed:
			got++
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatalf("only %d of 2 artifacts of an evicted program were collected inside a running Server", got)
		}
	}
}
