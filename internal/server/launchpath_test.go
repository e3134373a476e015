package server

// Tests of the single launch path that both codecs share: every launch
// that does not replay its own idempotency key executes, and the stored
// form of an idempotent launch survives the export/import edge.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// accInputs returns the deterministic x contents and the expected y
// after k applied launches of accSrc.
func accInputs(n int) (x []float32, after func(k int) []float32) {
	x = make([]float32, n)
	for i := range x {
		x[i] = float32(i%7) * 0.25
	}
	after = func(k int) []float32 {
		y := make([]float32, n)
		for i := range y {
			y[i] = float32(k) * (x[i] + 1)
		}
		return y
	}
	return x, after
}

// TestIdenticalLaunchesEachExecute gives two sessions byte-identical
// buffers and launches the same accumulator kernel in both, first one
// after the other and then concurrently. Nothing is answered from the
// other session's execution: the fail-open ladder counts every launch,
// no response is marked coalesced, each session's y advances by exactly
// one step per launch, and the online learner has learned from every
// launch by the time it returns.
func TestIdenticalLaunchesEachExecute(t *testing.T) {
	s, _, c := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 4
		cfg.Model = onlineStub{}
		cfg.Online = true
	})
	prog, err := c.Compile(accSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	x, after := accInputs(n)
	// Two consecutive sessions land on distinct workers, so the
	// concurrent leg really overlaps.
	var sids []string
	for len(sids) < 2 {
		sid, err := c.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range []*BufferRequest{
			{Name: "x", Kind: "float32", F32B64: EncodeF32(x)},
			{Name: "y", Kind: "float32", Len: n},
		} {
			if err := c.CreateBuffer(sid, req); err != nil {
				t.Fatal(err)
			}
		}
		sids = append(sids, sid)
	}
	first, _ := s.session(sids[0])
	second, _ := s.session(sids[1])
	if first.worker == second.worker {
		t.Fatalf("consecutive sessions %s and %s share worker %d", sids[0], sids[1], first.worker)
	}
	nn := int64(n)
	launch := func(sid string) (*LaunchResponse, error) {
		return c.Launch(&LaunchRequest{
			SessionID: sid, ProgramID: prog.ProgramID, Kernel: "acc",
			Args:   []LaunchArg{{Buf: "x"}, {Buf: "y"}, {Int: &nn}},
			Global: []int{n}, Local: []int{32},
			Read: []string{"y"},
		})
	}

	ladder := func() int64 {
		fb := s.fw.Stats.Snapshot()
		return fb.Managed + fb.CoExecAll + fb.Plain
	}
	launched := int64(0)
	check := func(leg string, steps int, resps ...*LaunchResponse) {
		t.Helper()
		launched += int64(len(resps))
		want := EncodeF32(after(steps))
		for i, r := range resps {
			if r.Coalesced || r.Replayed {
				t.Errorf("%s: response %d coalesced=%v replayed=%v, want an execution", leg, i, r.Coalesced, r.Replayed)
			}
			if r.Buffers["y"].F32B64 != want {
				t.Errorf("%s: response %d: y is not exactly %d accumulation steps", leg, i, steps)
			}
		}
		if got := ladder(); got != launched {
			t.Errorf("%s: ladder counted %d launches, want %d", leg, got, launched)
		}
		if got := s.Learner().Status().SamplesIngested; got != launched {
			t.Errorf("%s: learner ingested %d samples, want %d", leg, got, launched)
		}
	}

	// One after the other: the second session's launch is identical to the
	// first's, byte for byte.
	var seq []*LaunchResponse
	for _, sid := range sids {
		r, err := launch(sid)
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, r)
	}
	check("sequential", 1, seq...)

	// Concurrently, again over identical pre-state.
	const rounds = 3
	for round := 0; round < rounds; round++ {
		resps := make([]*LaunchResponse, len(sids))
		errs := make([]error, len(sids))
		var wg sync.WaitGroup
		for i, sid := range sids {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resps[i], errs[i] = launch(sid)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		check(fmt.Sprintf("concurrent round %d", round), 2+round, resps...)
	}
	if got := s.met.launchesOK.Load(); got != launched {
		t.Errorf("launchesOK = %d, want %d", got, launched)
	}
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
