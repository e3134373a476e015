package interp_test

// Tests of the segment-list primitive (Exec.RunSegments) and of the pool
// hand-off behind it. The scheduler-level equivalence matrix lives in
// internal/sched/plan_test.go.

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"dopia/internal/clc"
	"dopia/internal/conformance"
	"dopia/internal/interp"
	"dopia/internal/workloads"
)

// TestRunSegmentsOutOfOrder runs an out-of-order segment list (the shape
// of a co-execution plan, whose spans arrive in simulated-completion
// order) on one executor, and demands that every shard count reproduces
// the sequential walk of the list: buffers and profile.
func TestRunSegmentsOutOfOrder(t *testing.T) {
	ws, err := workloads.RealWorkloads(256, 32)
	if err != nil {
		t.Fatal(err)
	}
	w := ws[9] // MVT1: read-modify-write of x1, so ordering bugs show
	k, err := w.CompileKernel()
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		bufs [][]byte
		prof *interp.Profile
	}
	run := func(par int) outcome {
		inst, err := w.Setup()
		if err != nil {
			t.Fatal(err)
		}
		ex, err := interp.NewExec(k)
		if err != nil {
			t.Fatal(err)
		}
		ex.Parallelism = par
		if err := ex.Bind(inst.Args...); err != nil {
			t.Fatal(err)
		}
		if err := ex.Launch(inst.ND); err != nil {
			t.Fatal(err)
		}
		if r := ex.ShardPinned(); r != "" {
			t.Fatalf("%s is pinned (%s): the sharded path is not under test", w.Name, r)
		}
		segs := []interp.Segment{
			{Start: 5, Count: 1},
			{Start: 0, Count: 3},
			{Start: 3, Count: 2},
			{Start: 7, Count: 0},
			{Start: 6, Count: 2},
		}
		if err := ex.RunSegments(segs); err != nil {
			t.Fatalf("shards=%d: %v", par, err)
		}
		o := outcome{prof: ex.Stats()}
		for _, a := range inst.Args {
			if a.IsBuf {
				o.bufs = append(o.bufs, conformance.BufferBytes(a.Buf))
			}
		}
		return o
	}
	want := run(interp.Sequential)
	if want.prof.GroupsRun != 8 {
		t.Fatalf("groups run: %d, want 8", want.prof.GroupsRun)
	}
	for _, par := range []int{2, 3, 8} {
		got := run(par)
		if !reflect.DeepEqual(got.bufs, want.bufs) {
			t.Errorf("shards=%d: buffers differ from the sequential walk", par)
		}
		if !reflect.DeepEqual(got.prof, want.prof) {
			t.Errorf("shards=%d: profile differs from the sequential walk", par)
		}
	}
}

// TestRunSegmentsRequiresLaunch: segments are spans of the executor's
// launched ND range, so a run before the first launch, or of a group past
// the launch's last, is an error.
func TestRunSegmentsRequiresLaunch(t *testing.T) {
	prog, err := clc.Compile(cancelKernel)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := interp.NewExec(prog.Kernel("spin"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Bind(interp.BufArg(interp.NewFloatBuffer(256))); err != nil {
		t.Fatal(err)
	}
	if err := ex.RunSegments([]interp.Segment{{Count: 1}}); err == nil {
		t.Error("segment on an executor that was never launched: no error")
	}
	if err := ex.Launch(interp.ND1(256, 16)); err != nil {
		t.Fatal(err)
	}
	if err := ex.RunSegments([]interp.Segment{{Start: 15, Count: 2}}); err == nil {
		t.Error("segment past the launch's 16 groups: no error")
	}
}

// TestBusyPoolRunsInline saturates the shard pool with one launch whose
// every shard blocks, then requires a second, concurrent launch to finish
// anyway: a shard is handed to a pool worker only if one is idle, so the
// second launch runs all its shards on its own goroutine instead of
// queueing behind the first launch's.
func TestBusyPoolRunsInline(t *testing.T) {
	prog, err := clc.Compile(cancelKernel)
	if err != nil {
		t.Fatal(err)
	}
	newExec := func(par int) *interp.Exec {
		ex, err := interp.NewExec(prog.Kernel("spin"))
		if err != nil {
			t.Fatal(err)
		}
		ex.Parallelism = par
		if err := ex.Bind(interp.BufArg(interp.NewFloatBuffer(64 * 16))); err != nil {
			t.Fatal(err)
		}
		if err := ex.Launch(interp.ND1(64*16, 16)); err != nil {
			t.Fatal(err)
		}
		if r := ex.ShardPinned(); r != "" {
			t.Fatalf("spin is pinned: %s", r)
		}
		return ex
	}

	// The hog asks for more shards than the machine has cores; the caller
	// plus every pool worker end up blocked inside Check. Only an idle
	// worker takes a shard, so the hog starts once the earlier tests'
	// hand-offs have drained.
	if !interp.PoolQuiet(10 * time.Second) {
		t.Fatal("the shard pool never went idle")
	}
	procs := runtime.GOMAXPROCS(0)
	hog := newExec(procs + 1)
	release := make(chan struct{})
	entered := make(chan struct{}, 64) // one send per work-group poll, never blocks
	hog.Check = func() error {
		entered <- struct{}{}
		<-release
		return nil
	}
	hogDone := make(chan error, 1)
	go func() { hogDone <- hog.Run() }()
	defer func() {
		close(release)
		if err := <-hogDone; err != nil {
			t.Errorf("hog: %v", err)
		}
	}()
	for i := 0; i < procs; i++ {
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("pool never saturated: %d of %d goroutines blocked", i, procs)
		}
	}

	second := newExec(4)
	done := make(chan error, 1)
	go func() { done <- second.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("second launch: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second launch is stuck behind the first launch's shards")
	}
	if g := second.Stats().GroupsRun; g != 64 {
		t.Errorf("second launch ran %d groups, want 64", g)
	}
}
