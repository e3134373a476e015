package server

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"dopia/internal/clc"
	"dopia/internal/interp"
	"dopia/internal/workloads"
)

// gatherSrc reads x through an index buffer, so its sampled profile
// depends on idx's contents: the kernel's model memo may answer a launch
// only when idx is byte-identical to the profiled launch's.
const gatherSrc = `
__kernel void gather(__global int* idx, __global float* x, __global float* y, float a, int n) {
    int i = get_global_id(0);
    if (i < n) {
        y[i] = a * x[idx[i]] + (float)i;
    }
}`

// TestConcurrentRelaunchReusesProfile: eight sessions relaunch one
// kernel of one shared program concurrently at GOMAXPROCS 4, each over
// its own byte-identical buffers. Every response carries the sequential
// reference's bytes and the same decision, and the kernel's model memo
// answers some of the launches, which /metrics counts.
func TestConcurrentRelaunchReusesProfile(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s, _, c := newTestServer(t, func(cfg *Config) {
		cfg.Workers = 4
		cfg.Model = onlineStub{}
	})
	prog, err := c.Compile(gatherSrc)
	if err != nil {
		t.Fatal(err)
	}
	const sessions, rounds, n = 8, 4, 256
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32((i*37 + 11) % n)
	}
	x := workloads.NewFilledFloat(n, 7)
	a, nn := 1.5, int64(n)
	want := EncodeF32(gatherReference(t, idx, x, a, n))

	sids := make([]string, sessions)
	for i := range sids {
		if sids[i], err = c.NewSession(); err != nil {
			t.Fatal(err)
		}
		for _, req := range []*BufferRequest{
			{Name: "idx", Kind: "int32", I32B64: EncodeI32(idx)},
			{Name: "x", Kind: "float32", F32B64: EncodeF32(x.F32)},
			{Name: "y", Kind: "float32", Len: n},
		} {
			if err := c.CreateBuffer(sids[i], req); err != nil {
				t.Fatal(err)
			}
		}
	}

	resps := make([][]*LaunchResponse, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i, sid := range sids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds && errs[i] == nil; r++ {
				var resp *LaunchResponse
				resp, errs[i] = c.Launch(&LaunchRequest{
					SessionID: sid, ProgramID: prog.ProgramID, Kernel: "gather",
					Args:   []LaunchArg{{Buf: "idx"}, {Buf: "x"}, {Buf: "y"}, {Float: &a}, {Int: &nn}},
					Global: []int{n}, Local: []int{64},
					Read: []string{"y"},
				})
				resps[i] = append(resps[i], resp)
			}
		}()
	}
	wg.Wait()

	var decision string
	for i, rs := range resps {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		for r, resp := range rs {
			if resp.Rung != "managed" {
				t.Fatalf("session %d launch %d: rung %q, want managed", i, r, resp.Rung)
			}
			if resp.Buffers["y"].F32B64 != want {
				t.Errorf("session %d launch %d: y differs from the sequential reference", i, r)
			}
			d := *resp.Decision
			d.InferUS = 0
			if got := fmt.Sprintf("%+v", d); decision == "" {
				decision = got
			} else if got != decision {
				t.Errorf("session %d launch %d: decision %s, want %s", i, r, got, decision)
			}
		}
	}
	page, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	reused := metricOf(t, page, "dopia_launch_profiles_reused_total")
	if reused < 1 || reused > sessions*rounds {
		t.Errorf("dopia_launch_profiles_reused_total = %v, want 1..%d", reused, sessions*rounds)
	}
	if got := s.met.profilesReused.Load(); float64(got) != reused {
		t.Errorf("/metrics reads %v reused profiles, the counter %d", reused, got)
	}
}

// gatherReference runs gatherSrc sequentially in-process.
func gatherReference(t *testing.T, idx []int32, x *interp.Buffer, a float64, n int) []float32 {
	t.Helper()
	prog, err := clc.Compile(gatherSrc)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := interp.NewExec(prog.Kernel("gather"))
	if err != nil {
		t.Fatal(err)
	}
	y := interp.NewFloatBuffer(n)
	if err := ex.Bind(interp.BufArg(interp.FromInts(idx)), interp.BufArg(x), interp.BufArg(y),
		interp.FloatArg(a), interp.IntArg(int64(n))); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(interp.ND1(n, 64)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	return y.F32
}
