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
	"dopia/internal/transform"
	"dopia/internal/workloads"
)

// TestRunSegmentsTwoExecs runs an out-of-order segment list that
// alternates between the original kernel and its malleable form (as
// offset sub-range launches), both tracing into one sink, and demands
// that every shard count reproduces the sequential walk of the list:
// buffers, both executors' profiles, and the interleaved trace stream.
func TestRunSegmentsTwoExecs(t *testing.T) {
	ws, err := workloads.RealWorkloads(256, 32)
	if err != nil {
		t.Fatal(err)
	}
	w := ws[9] // MVT1: read-modify-write of x1, so ordering bugs show
	k, err := w.CompileKernel()
	if err != nil {
		t.Fatal(err)
	}
	mall, err := transform.MalleableGPU(k, 1)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		bufs     [][]byte
		cpu, gpu *interp.Profile
		trace    []conformance.TraceEvent
	}
	run := func(par int) outcome {
		inst, err := w.Setup()
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := interp.NewExec(k)
		if err != nil {
			t.Fatal(err)
		}
		gpu, err := interp.NewExec(mall.Kernel)
		if err != nil {
			t.Fatal(err)
		}
		gpu.AS = cpu.AS
		var sink conformance.RecordingSink
		cpu.Sink, gpu.Sink = &sink, &sink
		cpu.Parallelism = par
		if err := cpu.Bind(inst.Args...); err != nil {
			t.Fatal(err)
		}
		gargs := append(append([]interp.Arg(nil), inst.Args...), interp.IntArg(4), interp.IntArg(3))
		if err := gpu.Bind(gargs...); err != nil {
			t.Fatal(err)
		}
		for _, ex := range []*interp.Exec{cpu, gpu} {
			if err := ex.Launch(inst.ND); err != nil {
				t.Fatal(err)
			}
		}
		if r := cpu.ShardPinned(); r != "" {
			t.Fatalf("%s is pinned (%s): the sharded path is not under test", w.Name, r)
		}
		sub := func(start, count int) interp.Segment {
			nd, err := inst.ND.SubRange(start, count)
			if err != nil {
				t.Fatal(err)
			}
			return interp.Segment{Ex: gpu, ND: nd, Count: count}
		}
		segs := []interp.Segment{
			{Ex: cpu, ND: inst.ND, Start: 5, Count: 1},
			sub(0, 3),
			{Ex: cpu, ND: inst.ND, Start: 3, Count: 2},
			{Ex: cpu, ND: inst.ND, Start: 7, Count: 0},
			sub(6, 2),
		}
		if err := cpu.RunSegments(segs); err != nil {
			t.Fatalf("shards=%d: %v", par, err)
		}
		o := outcome{cpu: cpu.Stats(), gpu: gpu.Stats(), trace: sink.Events}
		for _, a := range inst.Args {
			if a.IsBuf {
				o.bufs = append(o.bufs, conformance.BufferBytes(a.Buf))
			}
		}
		return o
	}
	want := run(interp.Sequential)
	if want.cpu.GroupsRun != 3 || want.gpu.GroupsRun != 5 {
		t.Fatalf("groups run: cpu %d gpu %d, want 3 and 5", want.cpu.GroupsRun, want.gpu.GroupsRun)
	}
	for _, par := range []int{2, 3, 8} {
		got := run(par)
		if !reflect.DeepEqual(got.bufs, want.bufs) {
			t.Errorf("shards=%d: buffers differ from the sequential walk", par)
		}
		if !reflect.DeepEqual(got.cpu, want.cpu) || !reflect.DeepEqual(got.gpu, want.gpu) {
			t.Errorf("shards=%d: profiles differ from the sequential walk", par)
		}
		if d := conformance.DiffTraces(want.trace, got.trace); d != "" {
			t.Errorf("shards=%d: trace: %s", par, d)
		}
	}
}

// TestRunSegmentsRejectsForeignShape: a segment whose work-group shape
// differs from its executor's launch cannot reuse that launch's scratch.
func TestRunSegmentsRejectsForeignShape(t *testing.T) {
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
	if err := ex.RunSegments([]interp.Segment{{Ex: ex, ND: interp.ND1(256, 16), Count: 1}}); err == nil {
		t.Error("segment on an executor that was never launched: no error")
	}
	if err := ex.Launch(interp.ND1(256, 16)); err != nil {
		t.Fatal(err)
	}
	if err := ex.RunSegments([]interp.Segment{{Ex: ex, ND: interp.ND1(256, 32), Count: 1}}); err == nil {
		t.Error("segment with a different work-group size: no error")
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
	// plus every pool worker end up blocked inside Check.
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
