package server

// Exactly-once semantics of launch coalescing, proven on an accumulator
// kernel: y[i] += x[i] + 1 makes every extra (or missing) physical
// execution visible in the output bytes. The tests force real
// coalitions with the testHookLeader hook — the leader blocks under its
// session lock while identical launches from other sessions pile on as
// followers — and then check that every session's buffer advanced by
// exactly one application.

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// accInputs returns the deterministic x contents and the expected y
// after k applied launches.
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

// newAccSession creates a session with identical x/y contents — the
// precondition for cross-session coalescing.
func newAccSession(t *testing.T, c *Client, n int) string {
	t.Helper()
	sid, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	x, _ := accInputs(n)
	if err := c.CreateBuffer(sid, &BufferRequest{Name: "x", Kind: "float32", F32B64: EncodeF32(x)}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateBuffer(sid, &BufferRequest{Name: "y", Kind: "float32", F32B64: EncodeF32(make([]float32, n))}); err != nil {
		t.Fatal(err)
	}
	return sid
}

func launchAcc(c *Client, progID, sid string, n int, deadlineMS int64) (*LaunchResponse, error) {
	nn := int64(n)
	return c.Launch(&LaunchRequest{
		SessionID: sid, ProgramID: progID, Kernel: "acc",
		Args:       []LaunchArg{{Buf: "x"}, {Buf: "y"}, {Int: &nn}},
		Global:     []int{n}, Local: []int{32},
		Read:       []string{"y"},
		DeadlineMS: deadlineMS,
	})
}

// waitSessionBusy polls until the session's lock is held — i.e. its
// worker has entered runStages for the parked follower.
func waitSessionBusy(t *testing.T, s *Server, sid string) {
	t.Helper()
	s.mu.Lock()
	sess := s.sessions[sid]
	s.mu.Unlock()
	if sess == nil {
		t.Fatalf("session %s not found", sid)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if sess.mu.TryLock() {
			sess.mu.Unlock()
			time.Sleep(time.Millisecond)
			continue
		}
		return
	}
	t.Fatalf("session %s never entered execution", sid)
}

// distinctWorkerSessions creates sessions until `want` of them map to
// pairwise-distinct workers, so their launches genuinely run
// concurrently.
func distinctWorkerSessions(t *testing.T, s *Server, c *Client, n, want int) []string {
	t.Helper()
	used := map[int]bool{}
	var out []string
	for tries := 0; tries < 256 && len(out) < want; tries++ {
		sid := newAccSession(t, c, n)
		if w := s.workerOf(sid); !used[w] {
			used[w] = true
			out = append(out, sid)
		}
	}
	if len(out) < want {
		t.Fatalf("could not place %d sessions on distinct workers", want)
	}
	return out
}

func TestCoalesceExactlyOnceAccumulator(t *testing.T) {
	s, _, c := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 4
		cfg.QueueDepth = 64
	})
	prog, err := c.Compile(accSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	sids := distinctWorkerSessions(t, s, c, n, 3)

	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var hookOnce sync.Once
	s.testHookLeader = func() {
		hookOnce.Do(func() {
			close(leaderIn)
			<-release
		})
	}

	type outcome struct {
		resp *LaunchResponse
		err  error
	}
	results := make([]outcome, 3)
	var wg sync.WaitGroup
	launch := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := launchAcc(c, prog.ProgramID, sids[i], n, 0)
			results[i] = outcome{resp, err}
		}()
	}
	launch(0)
	select {
	case <-leaderIn:
	case <-time.After(10 * time.Second):
		t.Fatal("leader never reached execution")
	}
	launch(1)
	launch(2)
	waitSessionBusy(t, s, sids[1])
	waitSessionBusy(t, s, sids[2])
	// The followers hold their session locks; give them a beat to park
	// on the coalition, then let the leader run.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	coalesced := 0
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("launch %d: %v", i, r.err)
		}
		if r.resp.Coalesced {
			coalesced++
		}
	}
	if coalesced != 2 {
		t.Errorf("%d launches coalesced, want 2 (both non-leaders)", coalesced)
	}
	// Both rode the leader's execution — in-flight if they parked before
	// the publish, from the memo in the (unlikely) race where one
	// arrived after.
	followers := s.met.coalescedFollowers.Load()
	memo := s.coal.memo.Stats().Hits
	if followers+memo != int64(coalesced) || followers == 0 {
		t.Errorf("followers=%d memo=%d, want them to sum to %d with followers > 0", followers, memo, coalesced)
	}

	// Exactly-once: every session's y advanced by exactly ONE
	// application. A double-applied follower (shared copy + own
	// execution) or a twice-run leader would read 2*(x[i]+1).
	_, after := accInputs(n)
	want := EncodeF32(after(1))
	for i, sid := range sids {
		bd, err := c.ReadBuffer(sid, "y")
		if err != nil {
			t.Fatal(err)
		}
		if bd.F32B64 != want {
			t.Errorf("session %d (%s): y is not exactly one accumulation step", i, sid)
		}
	}
}

func TestLaunchMemoExactlyOnce(t *testing.T) {
	s, _, c := newTestServer(t, nil)
	prog, err := c.Compile(accSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	_, after := accInputs(n)

	// Session A executes for real and seeds the memo.
	a := newAccSession(t, c, n)
	ra, err := launchAcc(c, prog.ProgramID, a, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Coalesced {
		t.Error("first-ever launch reported coalesced")
	}

	// Session B holds identical content: the memo answers without
	// executing, and B's buffer still advances exactly one step.
	b := newAccSession(t, c, n)
	rb, err := launchAcc(c, prog.ProgramID, b, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rb.Coalesced {
		t.Error("identical launch after completion was not served from the memo")
	}
	if got := s.coal.memo.Stats().Hits; got != 1 {
		t.Errorf("memo hits = %d, want 1", got)
	}
	if want := EncodeF32(after(1)); rb.Buffers["y"].F32B64 != want {
		t.Error("memo-replayed launch did not advance y by exactly one step")
	}

	// Accumulators never wrongly memoize: A's second launch starts from
	// y = one step, whose digest differs, so it executes and reads two
	// steps — never the memoized one-step output.
	ra2, err := launchAcc(c, prog.ProgramID, a, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ra2.Coalesced {
		t.Error("launch over different pre-state was wrongly coalesced")
	}
	if want := EncodeF32(after(2)); ra2.Buffers["y"].F32B64 != want {
		t.Error("second accumulation step is not exactly two applications")
	}
}

func TestCanceledFollowerDoesNotCancelLeader(t *testing.T) {
	s, _, c := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 4
		cfg.QueueDepth = 64
	})
	prog, err := c.Compile(accSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	sids := distinctWorkerSessions(t, s, c, n, 2)

	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var hookOnce sync.Once
	s.testHookLeader = func() {
		hookOnce.Do(func() {
			close(leaderIn)
			<-release
		})
	}

	var wg sync.WaitGroup
	var leaderResp *LaunchResponse
	var leaderErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		leaderResp, leaderErr = launchAcc(c, prog.ProgramID, sids[0], n, 0)
	}()
	select {
	case <-leaderIn:
	case <-time.After(10 * time.Second):
		t.Fatal("leader never reached execution")
	}

	// The follower's short deadline expires while it is parked behind
	// the held leader: it must come back 504 without touching its
	// session or disturbing the leader.
	var followerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, followerErr = launchAcc(c, prog.ProgramID, sids[1], n, 300)
	}()
	waitSessionBusy(t, s, sids[1])
	time.Sleep(400 * time.Millisecond)
	close(release)
	wg.Wait()

	if followerErr == nil {
		t.Fatal("parked follower with an expired deadline succeeded")
	}
	apiErr, ok := followerErr.(*APIError)
	if !ok || apiErr.Status != 504 {
		t.Fatalf("follower error = %v, want a 504", followerErr)
	}
	if !strings.Contains(apiErr.Message, "coalesced") {
		t.Errorf("follower 504 does not name the coalition: %q", apiErr.Message)
	}
	if leaderErr != nil {
		t.Fatalf("leader failed after follower cancellation: %v", leaderErr)
	}

	// The leader's execution completed and its state advanced; the
	// canceled follower's session is untouched.
	_, after := accInputs(n)
	if want := EncodeF32(after(1)); leaderResp.Buffers["y"].F32B64 != want {
		t.Error("leader output is not exactly one accumulation step")
	}
	bd, err := c.ReadBuffer(sids[1], "y")
	if err != nil {
		t.Fatal(err)
	}
	if want := EncodeF32(after(0)); bd.F32B64 != want {
		t.Error("canceled follower's session was mutated")
	}
	if got := s.met.coalescedFollowers.Load(); got != 0 {
		t.Errorf("coalescedFollowers = %d, want 0 (the only follower was canceled)", got)
	}
}

// TestMemoLookupDoesNotAllocate pins the share stage's probe — hash the
// launch identity, look it up in the memo — at zero allocations, hit or
// miss: it runs on every launch, memoized or not.
func TestMemoLookupDoesNotAllocate(t *testing.T) {
	s, _, _ := newTestServer(t, nil)
	sess := s.newSession("alloc")
	bufArgs := make([]*sessionBuffer, 3)
	for i, name := range []string{"x", "y"} {
		if _, err := sess.newBuffer(name, 'f', 64, 1<<20, nil); err != nil {
			t.Fatal(err)
		}
		bufArgs[i] = sess.bufs[name]
	}
	nd, err := ndFrom([]int{64}, []int{32})
	if err != nil {
		t.Fatal(err)
	}
	l := &launch{
		prog: &program{id: ProgramID(accSrc)}, kernel: "acc", nd: nd,
		args: []launchArg{{kind: 'b', buf: "x"}, {kind: 'b', buf: "y"}, {kind: 'i', i: 64}},
	}
	for _, hit := range []bool{false, true} {
		if hit {
			s.coal.memo.Put(s.coal.keyFor(l, bufArgs), &sharedResult{bytes: 512})
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, ok := s.coal.memo.Get(s.coal.keyFor(l, bufArgs)); ok != hit {
				t.Errorf("memo hit = %v, want %v", ok, hit)
			}
		})
		if allocs != 0 {
			t.Errorf("memo probe (hit=%v) allocates %.1f times per launch, want 0", hit, allocs)
		}
	}
}
