package server

// Tests of the single launch path that both codecs share: the 429 memo
// bypass inside submit, and the stored form of an idempotent launch
// surviving the export/import edge.

import (
	"bytes"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMemoBypassBothProtocols saturates a one-worker, one-deep daemon and
// then offers it, over each protocol, a launch whose result is memoized
// (answered 200 through the bypass, marked coalesced) and one that is not
// (the honest 429).
func TestMemoBypassBothProtocols(t *testing.T) {
	var blocked atomic.Bool
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	s, addr := newMixedTestServer(t, func(cfg *Config) {
		cfg.Workers = 1
		cfg.QueueDepth = 1
	})
	s.testHookLeader = func() {
		if blocked.Load() {
			entered <- struct{}{}
			<-gate
		}
	}
	jc := NewClient("http://"+addr, nil)
	bc, err := DialBin(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	prog, err := jc.Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 128
	newSess := func(seed uint32) string {
		t.Helper()
		sid, err := jc.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		if err := jc.CreateBuffer(sid, &BufferRequest{Name: "x", Kind: "float32", Len: n, FillSeed: &seed}); err != nil {
			t.Fatal(err)
		}
		if err := jc.CreateBuffer(sid, &BufferRequest{Name: "y", Kind: "float32", Len: n}); err != nil {
			t.Fatal(err)
		}
		return sid
	}
	cnt := int64(n)
	args := func(a float64) []LaunchArg {
		return []LaunchArg{{Buf: "x"}, {Buf: "y"}, {Float: &a}, {Int: &cnt}}
	}
	// Each protocol reports (coalesced, y bytes, HTTP-shaped status).
	viaJSON := func(sid string, a float64) (bool, []byte, int) {
		resp, err := jc.Launch(&LaunchRequest{
			SessionID: sid, ProgramID: prog.ProgramID, Kernel: "scale", Args: args(a),
			Global: []int{n}, Local: []int{64}, Read: []string{"y"},
		})
		if apiErr, ok := err.(*APIError); ok {
			return false, nil, apiErr.Status
		} else if err != nil {
			t.Fatal(err)
		}
		ys, err := DecodeF32(resp.Buffers["y"].F32B64)
		if err != nil {
			t.Fatal(err)
		}
		raw := make([]byte, 4*len(ys))
		F32ToLE(raw, ys)
		return resp.Coalesced, raw, http.StatusOK
	}
	viaBin := func(sid string, a float64) (bool, []byte, int) {
		res, err := bc.Launch(&BinLaunch{
			SessionID: sid, ProgramID: prog.ProgramID, Kernel: "scale", Args: args(a),
			Global: []int{n}, Local: []int{64}, Read: []string{"y"},
		})
		if binErr, ok := err.(*BinError); ok {
			return false, nil, binErr.Status
		} else if err != nil {
			t.Fatal(err)
		}
		return res.Coalesced, append([]byte(nil), res.Bufs[0].Raw...), http.StatusOK
	}

	// Populate the memo on session A: the second identical launch keys on
	// y's post-launch content, which is the state every later identical
	// launch (and the bypass probe) sees.
	sidA := newSess(11)
	for i := 0; i < 2; i++ {
		if _, _, status := viaJSON(sidA, 2.0); status != http.StatusOK {
			t.Fatalf("warm-up launch: status %d", status)
		}
	}
	want := make([]byte, 4*n)
	F32ToLE(want, scaleReference(t, n, 11, 2.0))

	// Saturate: session B's first launch parks inside the leader hook on
	// the only worker, its second fills the one-deep queue.
	blocked.Store(true)
	sidB := newSess(22)
	var bg sync.WaitGroup
	for _, a := range []float64{3.0, 4.0} {
		bg.Add(1)
		go func() {
			defer bg.Done()
			if _, _, status := viaJSON(sidB, a); status != http.StatusOK {
				t.Errorf("saturating launch a=%v: status %d", a, status)
			}
		}()
		if a == 3.0 {
			<-entered
		}
	}
	for deadline := time.Now().Add(5 * time.Second); s.queueLen() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
	}

	for i, leg := range []struct {
		name   string
		launch func(string, float64) (bool, []byte, int)
	}{{"json", viaJSON}, {"binary", viaBin}} {
		coalesced, y, status := leg.launch(sidA, 2.0)
		if status != http.StatusOK || !coalesced {
			t.Errorf("%s: memoized launch under saturation: status %d coalesced %v", leg.name, status, coalesced)
		}
		if !bytes.Equal(y, want) {
			t.Errorf("%s: bypassed y differs from the reference", leg.name)
		}
		if got := s.met.memoBypass.Load(); got != int64(i+1) {
			t.Errorf("%s: memoBypass = %d, want %d", leg.name, got, i+1)
		}
		if _, _, status := leg.launch(sidA, 9.5+float64(i)); status != http.StatusTooManyRequests {
			t.Errorf("%s: unmemoized launch under saturation: status %d, want 429", leg.name, status)
		}
	}

	blocked.Store(false)
	close(gate)
	bg.Wait()
}

// TestIdempotentResultSurvivesMigration executes an idempotent launch
// over the binary protocol, moves the session to a fresh daemon through
// export() and restore(), and replays the launch there over both
// protocols: same metadata, same read-set bytes in the order requested
// (not name order), no execution.
func TestIdempotentResultSurvivesMigration(t *testing.T) {
	_, addr1 := newMixedTestServer(t, nil)
	_, addr2 := newMixedTestServer(t, nil)
	jc1, jc2 := NewClient("http://"+addr1, nil), NewClient("http://"+addr2, nil)
	bc1, err := DialBin(addr1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer bc1.Close()
	bc2, err := DialBin(addr2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer bc2.Close()

	const n = 64
	sid, err := jc1.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	progID, _ := setupAcc(t, jc1, sid, n)
	if _, err := jc2.Compile(accSrc); err != nil {
		t.Fatal(err)
	}
	nn := int64(n)
	req := &BinLaunch{
		SessionID: sid, ProgramID: progID, Kernel: "acc",
		Args:   []LaunchArg{{Buf: "x"}, {Buf: "y"}, {Int: &nn}},
		Global: []int{n}, Local: []int{32},
		Read: []string{"y", "x"}, IdemKey: "moved",
	}
	first, err := bc1.Launch(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Replayed || len(first.Bufs) != 2 {
		t.Fatalf("first launch: replayed=%v bufs=%d", first.Replayed, len(first.Bufs))
	}
	want := *first
	want.Bufs = nil
	for _, bv := range first.Bufs {
		want.Bufs = append(want.Bufs, BinBufView{Name: bv.Name, Kind: bv.Kind, Elems: bv.Elems, Raw: append([]byte(nil), bv.Raw...)})
	}
	wantDec, wantRes := *first.Decision, *first.Result

	exp, err := jc1.ExportSession(sid)
	if err != nil {
		t.Fatal(err)
	}
	if err := jc2.ImportSession(exp); err != nil {
		t.Fatal(err)
	}

	// Binary replay on the importee.
	got, err := bc2.Launch(req)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Replayed {
		t.Error("binary: imported session re-executed an applied launch")
	}
	if got.Rung != want.Rung || got.Engine != want.Engine || got.Coalesced != want.Coalesced ||
		got.Fallback != want.Fallback || *got.Decision != wantDec || *got.Result != wantRes {
		t.Errorf("binary: replayed metadata differs: got %+v want %+v", got, want)
	}
	if len(got.Bufs) != len(want.Bufs) {
		t.Fatalf("binary: %d read-set buffers, want %d", len(got.Bufs), len(want.Bufs))
	}
	for i, w := range want.Bufs {
		g := got.Bufs[i]
		if g.Name != w.Name || g.Kind != w.Kind || g.Elems != w.Elems || !bytes.Equal(g.Raw, w.Raw) {
			t.Errorf("binary: read-set slot %d (%s) differs after migration", i, w.Name)
		}
	}

	// JSON replay on the importee.
	jresp, err := jc2.Launch(&LaunchRequest{
		SessionID: sid, ProgramID: progID, Kernel: "acc", Args: req.Args,
		Global: req.Global, Local: req.Local, Read: req.Read, IdemKey: req.IdemKey,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !jresp.Replayed || jresp.Rung != want.Rung || jresp.Engine != want.Engine {
		t.Errorf("json: replayed=%v rung=%q engine=%q", jresp.Replayed, jresp.Rung, jresp.Engine)
	}
	if jresp.Decision == nil || jresp.Decision.CPUCores != wantDec.CPUCores || jresp.Decision.GPUFrac != wantDec.GPUFrac ||
		jresp.Result == nil || *jresp.Result != wantRes {
		t.Errorf("json: replayed decision/result differ: %+v %+v", jresp.Decision, jresp.Result)
	}
	for _, w := range want.Bufs {
		xs, err := DecodeF32(jresp.Buffers[w.Name].F32B64)
		if err != nil {
			t.Fatal(err)
		}
		raw := make([]byte, 4*len(xs))
		F32ToLE(raw, xs)
		if !bytes.Equal(raw, w.Raw) {
			t.Errorf("json: buffer %s differs after migration", w.Name)
		}
	}

	// Neither replay executed: y on the importee is what the first launch left.
	_, _, yNow, err := bc2.ReadBuffer(sid, "y")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(yNow, want.Bufs[0].Raw) {
		t.Error("a replay on the importee re-executed the accumulator")
	}
}
