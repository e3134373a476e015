package server

// The multi-tenant stress test: 64+ concurrent sessions hammering one
// daemon through real HTTP, mixed float/int workloads sharing the
// process-wide caches, every response verified bit-identical against a
// sequential in-process reference computed from the same deterministic
// seeds. Run under -race in CI, this is the isolation contract's
// regression test: any cross-session buffer leak, cache corruption, or
// counter race shows up as a bit mismatch or a race report.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"dopia/internal/clc"
	"dopia/internal/interp"
	"dopia/internal/workloads"
)

// The stress mix: one float kernel with an inner loop (model features
// vary with n), one int kernel, one reduction-flavored float kernel.
const stressSrc = `
__kernel void saxpy(__global float* x, __global float* y, float a, int n) {
    int i = get_global_id(0);
    if (i < n) {
        y[i] = a * x[i] + y[i];
    }
}

__kernel void isum(__global int* u, __global int* v, __global int* w, int n) {
    int i = get_global_id(0);
    if (i < n) {
        w[i] = u[i] * 3 + v[i];
    }
}

__kernel void rowdot(__global float* A, __global float* x, __global float* y, int n) {
    int i = get_global_id(0);
    if (i < n) {
        float acc = 0.0f;
        for (int j = 0; j < 16; j++) {
            acc += A[i * 16 + j] * x[j];
        }
        y[i] = acc;
    }
}`

// stressRef executes one kernel sequentially in-process on freshly
// seeded buffers and returns the outputs, bit-exact.
type stressRef struct {
	prog *clc.Program
}

func (r *stressRef) run(t *testing.T, kernel string, args []interp.Arg, nd interp.NDRange) {
	t.Helper()
	ex, err := interp.NewExec(r.prog.Kernel(kernel))
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Bind(args...); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(nd); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStress64Sessions is the headline multi-tenant test: 64 tenants,
// mixed workloads, three launches each, all concurrent, all verified
// bit-identical against the sequential reference.
func TestStress64Sessions(t *testing.T) {
	const (
		tenants  = 64
		launches = 3
		n        = 256
		wg       = 64
	)
	s, _, c := newTestServer(t, func(cfg *Config) {
		cfg.QueueDepth = 2 * tenants * launches // no 429s in this test
	})

	prog, err := c.Compile(stressSrc)
	if err != nil {
		t.Fatal(err)
	}
	refProg, err := clc.Compile(stressSrc)
	if err != nil {
		t.Fatal(err)
	}
	ref := &stressRef{prog: refProg}

	var wgrp sync.WaitGroup
	errs := make(chan error, tenants)
	for tenant := 0; tenant < tenants; tenant++ {
		wgrp.Add(1)
		go func(tenant int) {
			defer wgrp.Done()
			seed := uint32(1000 + tenant)
			fail := func(format string, args ...any) {
				errs <- fmt.Errorf("tenant %d: "+format, append([]any{tenant}, args...)...)
			}

			sid, err := c.NewSession()
			if err != nil {
				fail("session: %v", err)
				return
			}
			defer c.CloseSession(sid)

			switch tenant % 3 {
			case 0: // saxpy: y accumulates across launches
				s1, s2 := seed, seed+1
				if err := c.CreateBuffer(sid, &BufferRequest{Name: "x", Kind: "float32", Len: n, FillSeed: &s1}); err != nil {
					fail("buffer x: %v", err)
					return
				}
				if err := c.CreateBuffer(sid, &BufferRequest{Name: "y", Kind: "float32", Len: n, FillSeed: &s2}); err != nil {
					fail("buffer y: %v", err)
					return
				}
				// Reference: same seeds, same launch sequence, sequential.
				rx := workloads.NewFilledFloat(n, s1)
				ry := workloads.NewFilledFloat(n, s2)
				var last *LaunchResponse
				for l := 0; l < launches; l++ {
					a := 0.5 + float64(tenant)/8 + float64(l)
					ai := int64(n)
					resp, err := c.Launch(&LaunchRequest{
						SessionID: sid, ProgramID: prog.ProgramID, Kernel: "saxpy",
						Args:   []LaunchArg{{Buf: "x"}, {Buf: "y"}, {Float: &a}, {Int: &ai}},
						Global: []int{n}, Local: []int{wg},
						Read: []string{"y"},
					})
					if err != nil {
						fail("saxpy launch %d: %v", l, err)
						return
					}
					ref.run(t, "saxpy", []interp.Arg{
						interp.BufArg(rx), interp.BufArg(ry), interp.FloatArg(a), interp.IntArg(int64(n)),
					}, interp.ND1(n, wg))
					last = resp
					got, err := DecodeF32(resp.Buffers["y"].F32B64)
					if err != nil {
						fail("decode: %v", err)
						return
					}
					for i := range ry.F32 {
						if got[i] != ry.F32[i] {
							fail("saxpy launch %d: y[%d] = %v, want %v (bit-exact)", l, i, got[i], ry.F32[i])
							return
						}
					}
				}
				if last.Fallback != nil && (last.Fallback.Panics != 0 || last.Fallback.Plain != 0) {
					fail("degraded: %+v", last.Fallback)
				}

			case 1: // isum: int32 buffers
				s1, s2 := seed, seed+1
				if err := c.CreateBuffer(sid, &BufferRequest{Name: "u", Kind: "int32", Len: n, FillSeed: &s1, FillMod: 1000}); err != nil {
					fail("buffer u: %v", err)
					return
				}
				if err := c.CreateBuffer(sid, &BufferRequest{Name: "v", Kind: "int32", Len: n, FillSeed: &s2, FillMod: 1000}); err != nil {
					fail("buffer v: %v", err)
					return
				}
				if err := c.CreateBuffer(sid, &BufferRequest{Name: "w", Kind: "int32", Len: n}); err != nil {
					fail("buffer w: %v", err)
					return
				}
				ru := workloads.NewFilledInt(n, s1, 1000)
				rv := workloads.NewFilledInt(n, s2, 1000)
				rw := interp.NewIntBuffer(n)
				ref.run(t, "isum", []interp.Arg{
					interp.BufArg(ru), interp.BufArg(rv), interp.BufArg(rw), interp.IntArg(int64(n)),
				}, interp.ND1(n, wg))
				for l := 0; l < launches; l++ {
					ai := int64(n)
					resp, err := c.Launch(&LaunchRequest{
						SessionID: sid, ProgramID: prog.ProgramID, Kernel: "isum",
						Args:   []LaunchArg{{Buf: "u"}, {Buf: "v"}, {Buf: "w"}, {Int: &ai}},
						Global: []int{n}, Local: []int{wg},
						Read: []string{"w"},
					})
					if err != nil {
						fail("isum launch %d: %v", l, err)
						return
					}
					got, err := DecodeI32(resp.Buffers["w"].I32B64)
					if err != nil {
						fail("decode: %v", err)
						return
					}
					for i := range rw.I32 {
						if got[i] != rw.I32[i] {
							fail("isum launch %d: w[%d] = %d, want %d", l, i, got[i], rw.I32[i])
							return
						}
					}
				}

			default: // rowdot: inner-loop float kernel
				s1, s2 := seed, seed+1
				if err := c.CreateBuffer(sid, &BufferRequest{Name: "A", Kind: "float32", Len: n * 16, FillSeed: &s1}); err != nil {
					fail("buffer A: %v", err)
					return
				}
				if err := c.CreateBuffer(sid, &BufferRequest{Name: "x", Kind: "float32", Len: 16, FillSeed: &s2}); err != nil {
					fail("buffer x: %v", err)
					return
				}
				if err := c.CreateBuffer(sid, &BufferRequest{Name: "y", Kind: "float32", Len: n}); err != nil {
					fail("buffer y: %v", err)
					return
				}
				rA := workloads.NewFilledFloat(n*16, s1)
				rx := workloads.NewFilledFloat(16, s2)
				ry := interp.NewFloatBuffer(n)
				ref.run(t, "rowdot", []interp.Arg{
					interp.BufArg(rA), interp.BufArg(rx), interp.BufArg(ry), interp.IntArg(int64(n)),
				}, interp.ND1(n, wg))
				for l := 0; l < launches; l++ {
					ai := int64(n)
					resp, err := c.Launch(&LaunchRequest{
						SessionID: sid, ProgramID: prog.ProgramID, Kernel: "rowdot",
						Args:   []LaunchArg{{Buf: "A"}, {Buf: "x"}, {Buf: "y"}, {Int: &ai}},
						Global: []int{n}, Local: []int{wg},
						Read: []string{"y"},
					})
					if err != nil {
						fail("rowdot launch %d: %v", l, err)
						return
					}
					got, err := DecodeF32(resp.Buffers["y"].F32B64)
					if err != nil {
						fail("decode: %v", err)
						return
					}
					for i := range ry.F32 {
						if got[i] != ry.F32[i] {
							fail("rowdot launch %d: y[%d] = %v, want %v (bit-exact)", l, i, got[i], ry.F32[i])
							return
						}
					}
				}
			}
		}(tenant)
	}
	wgrp.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// The whole storm was served without a single contained panic or
	// plain-runtime fallback, and the ladder alone accounts for every
	// launch: each one executed, including the repeats of overwrite-style
	// kernels (isum, rowdot) over content that no longer changes.
	fb := s.fw.Stats.Snapshot()
	if fb.Panics != 0 || fb.Timeouts != 0 || fb.Plain != 0 {
		t.Errorf("fallback ladder after stress: %s", fb)
	}
	wantLaunches := int64(tenants * launches)
	if got := fb.Managed + fb.CoExecAll; got != wantLaunches {
		t.Errorf("ladder accounted %d launches, want %d", got, wantLaunches)
	}
	if got := s.met.launchesOK.Load(); got != wantLaunches {
		t.Errorf("launchesOK = %d, want %d", got, wantLaunches)
	}

	// The metrics page is live and coherent right after the storm.
	page, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("dopia_launches_total %d", wantLaunches),
		"dopia_panics_contained_total 0",
		fmt.Sprintf("dopia_sessions_created_total %d", tenants),
		fmt.Sprintf("dopia_request_seconds_count %d", wantLaunches),
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
