package server

// Tests of the closed-loop serving path: the 64-session stress with the
// learner answering (zero failed launches, zero byte mismatches against
// the sequential reference, no session answered from another's
// launches), the learner's state dying with its session, and the
// /v1/models and dopia_online_* observability surface.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dopia/internal/core"
	"dopia/internal/ml"
)

// onlineStub is a deterministic static model for online tests: it
// prefers balanced configurations, stays inside (0, 1), and never
// discards.
type onlineStub struct{}

func (onlineStub) Name() string { return "STUB" }
func (onlineStub) Predict(x ml.Features) float64 {
	return 0.3 + 0.4*x[ml.FCPUUtil] + 0.2*x[ml.FGPUUtil]
}

// TestOnlineUnderFire drives 64 concurrent sessions against a daemon
// whose learner answers their launches mid-run. Every session uses
// private data and every launch executes, so every response carries a
// live decision. The run must finish with zero failed launches and every
// output bit-identical to the sequential reference. All sessions launch
// the same three signatures, so the memo holds each row after the first
// session's launch of it; a session's first launch of a geometry must
// still never be learned, since another tenant's launches never answer
// for it, and its second launch of one must be.
func TestOnlineUnderFire(t *testing.T) {
	const nSessions = 64
	const perSession = 12
	s, _, c := newTestServer(t, func(cfg *Config) {
		cfg.Model = onlineStub{}
		cfg.QueueDepth = 4 * nSessions
		cfg.Online = true
	})
	prog, err := c.Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Three geometries per session: distinct global sizes are distinct
	// decision signatures.
	sizes := []int{64, 128, 256}

	var failures atomic.Int64
	errCh := make(chan error, nSessions)
	var wg sync.WaitGroup
	for w := 0; w < nSessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			report := func(format string, args ...any) {
				failures.Add(1)
				select {
				case errCh <- fmt.Errorf("session %d: "+format, append([]any{w}, args...)...):
				default:
				}
			}
			sid, err := c.NewSession()
			if err != nil {
				report("create: %v", err)
				return
			}
			seed := uint32(1000 + w) // private data: no cross-session sharing
			a := 1.0 + float64(w)*0.125
			want := map[int][]float32{}
			for _, n := range sizes {
				fs := seed + uint32(n)
				if err := c.CreateBuffer(sid, &BufferRequest{
					Name: fmt.Sprintf("x%d", n), Kind: "float32", Len: n, FillSeed: &fs,
				}); err != nil {
					report("buffer x%d: %v", n, err)
					return
				}
				if err := c.CreateBuffer(sid, &BufferRequest{
					Name: fmt.Sprintf("y%d", n), Kind: "float32", Len: n,
				}); err != nil {
					report("buffer y%d: %v", n, err)
					return
				}
				want[n] = scaleReference(t, n, fs, a)
			}
			for i := 0; i < perSession; i++ {
				n := sizes[i%len(sizes)]
				ai := int64(n)
				resp, err := c.Launch(&LaunchRequest{
					SessionID: sid, ProgramID: prog.ProgramID, Kernel: "scale",
					Args: []LaunchArg{
						{Buf: fmt.Sprintf("x%d", n)}, {Buf: fmt.Sprintf("y%d", n)},
						{Float: &a}, {Int: &ai},
					},
					Global: []int{n}, Local: []int{64},
					Read: []string{fmt.Sprintf("y%d", n)},
				})
				if err != nil {
					report("launch %d: %v", i, err)
					return
				}
				got, err := DecodeF32(resp.Buffers[fmt.Sprintf("y%d", n)].F32B64)
				if err != nil {
					report("launch %d decode: %v", i, err)
					return
				}
				for j := range want[n] {
					if got[j] != want[n][j] {
						report("launch %d: y%d[%d] = %v, want %v (the learner changed result bytes)",
							i, n, j, got[j], want[n][j])
						return
					}
				}
				if d := resp.Decision; d == nil || d.Learned != (i >= len(sizes)) {
					report("launch %d of size %d: decision %+v, want learned exactly when the session launched the size before", i, n, d)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d sessions failed", n)
	}

	if st, want := s.Learner().Status(), int64(nSessions*(perSession-len(sizes))); st.Learned != want {
		t.Fatalf("%d launches learned under fire, want %d: %+v", st.Learned, want, st)
	}
}

// TestModelsEndpointAndOnlineMetrics covers the observability surface:
// GET /v1/models reports the learner's per-tenant state, and /metrics
// exposes the dopia_online_* counter family and no collector-queue series.
func TestModelsEndpointAndOnlineMetrics(t *testing.T) {
	_, ts, c := newTestServer(t, func(cfg *Config) {
		cfg.Model = onlineStub{}
		cfg.Online = true
	})
	prog, err := c.Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	sid, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	fs := uint32(5)
	if err := c.CreateBuffer(sid, &BufferRequest{Name: "x", Kind: "float32", Len: 128, FillSeed: &fs}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateBuffer(sid, &BufferRequest{Name: "y", Kind: "float32", Len: 128}); err != nil {
		t.Fatal(err)
	}
	a, ai := 1.5, int64(128)
	// The learner learns from the first launch, so it answers the second.
	for i := 0; i < 2; i++ {
		resp, err := c.Launch(&LaunchRequest{
			SessionID: sid, ProgramID: prog.ProgramID, Kernel: "scale",
			Args:   []LaunchArg{{Buf: "x"}, {Buf: "y"}, {Float: &a}, {Int: &ai}},
			Global: []int{128}, Local: []int{64},
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Decision == nil || resp.Decision.Learned != (i == 1) {
			t.Fatalf("launch %d: decision %+v, want learned exactly on the second", i, resp.Decision)
		}
	}

	hres, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	body, err := io.ReadAll(hres.Body)
	if err != nil {
		t.Fatal(err)
	}
	var models ModelsResponse
	var rawModels struct{ Learner map[string]json.RawMessage }
	if err := json.Unmarshal(body, &models); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &rawModels); err != nil {
		t.Fatal(err)
	}
	if !models.Online || models.Learner == nil {
		t.Fatalf("/v1/models = %+v, want online learner status", models)
	}
	if models.StaticModel != "STUB" {
		t.Errorf("static model %q, want STUB", models.StaticModel)
	}
	if models.Learner.Learned < 1 {
		t.Errorf("learner learned = %d, want >= 1", models.Learner.Learned)
	}
	found := false
	for _, ten := range models.Learner.Tenants {
		if ten.Tenant == sid && ten.Learned >= 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("tenant %s with a learned launch missing from %+v", sid, models.Learner.Tenants)
	}

	page, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"dopia_online_enabled 1",
		"dopia_online_samples_ingested_total",
		"dopia_online_sweeps_total",
		"dopia_online_learned_total",
		"dopia_online_explorations_total",
	} {
		if !strings.Contains(page, name) {
			t.Errorf("/metrics missing %q", name)
		}
	}
	if v := metricOf(t, page, "dopia_online_learned_total"); v < 1 {
		t.Errorf("dopia_online_learned_total = %g, want >= 1", v)
	}
	// The model-generation series went with the generations themselves,
	// and every sample series but the ingested count with the collector
	// queue.
	for _, line := range strings.Split(page, "\n") {
		name, _, _ := strings.Cut(line, " ")
		if !strings.HasPrefix(name, "dopia_online_") {
			continue
		}
		for _, gone := range []string{"retrains", "swaps", "generation"} {
			if strings.Contains(name, gone) {
				t.Errorf("/metrics still exports %q", line)
			}
		}
		if strings.HasPrefix(name, "dopia_online_samples_") && name != "dopia_online_samples_ingested_total" {
			t.Errorf("/metrics still exports %q", line)
		}
	}
	for key := range rawModels.Learner {
		if strings.HasPrefix(key, "samples_") && key != "samples_ingested" {
			t.Errorf("/v1/models learner still reports %q", key)
		}
	}
}

// metricOf extracts one un-labeled sample value from a metrics page.
func metricOf(t *testing.T, page, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err == nil {
				return v
			}
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestLearnerStateDiesWithSessions: a daemon that served and closed 300
// sessions, each launching its own geometry, keeps learner state for the
// one session still open only, and its memo of oracle sweeps stays
// within its bound.
func TestLearnerStateDiesWithSessions(t *testing.T) {
	const sessions = 300
	s, _, c := newTestServer(t, func(cfg *Config) {
		cfg.Model = onlineStub{}
		cfg.Online = true
	})
	prog, err := c.Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	// A distinct global size per session is a distinct decision
	// signature, so every session costs the learner a fresh oracle sweep.
	launch := func(sid string, n int) {
		t.Helper()
		for _, name := range []string{"x", "y"} {
			if err := c.CreateBuffer(sid, &BufferRequest{Name: name, Kind: "float32", Len: n}); err != nil {
				t.Fatal(err)
			}
		}
		a, ai := 2.0, int64(n)
		if _, err := c.Launch(&LaunchRequest{
			SessionID: sid, ProgramID: prog.ProgramID, Kernel: "scale",
			Args:   []LaunchArg{{Buf: "x"}, {Buf: "y"}, {Float: &a}, {Int: &ai}},
			Global: []int{n}, Local: []int{32},
		}); err != nil {
			t.Fatal(err)
		}
	}
	live, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	launch(live, 32)
	for i := 1; i <= sessions; i++ {
		sid, err := c.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		launch(sid, 32*(i+1))
		if err := c.CloseSession(sid); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Learner().Status()
	if len(st.Tenants) != 1 || st.Tenants[0].Tenant != live {
		t.Fatalf("learner holds %d tenants after closing %d of %d sessions, want only %s",
			len(st.Tenants), sessions, sessions+1, live)
	}
	if rows := s.Learner().OracleRows(); rows.Entries > core.OracleRowCap {
		t.Fatalf("oracle-sweep memo holds %d signatures, bound %d", rows.Entries, core.OracleRowCap)
	}
}
