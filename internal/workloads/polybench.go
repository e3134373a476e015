package workloads

import (
	"fmt"

	"dopia/internal/interp"
)

// DefaultRealSize is the default problem size for the real-world kernels.
// The paper uses 16384 on silicon; the functional interpreter defaults to
// a scaled-down size so that full experiment sweeps stay tractable, and
// accepts larger sizes through the Size parameter of RealWorkloads.
const DefaultRealSize = 4096

// Desc describes one real-world workload family.
type Desc struct {
	Name string
	// Build creates the workload for problem size n and work-group size wg.
	Build func(n, wg int) (*Workload, error)
	// TwoDim marks kernels with two-dimensional index spaces (their
	// work-group sizes are 8x8 / 16x16).
	TwoDim bool
}

// RealDescs lists the fourteen kernels of Table 4 in the paper's order.
func RealDescs() []Desc {
	return []Desc{
		{Name: "2DCONV", Build: build2DConv, TwoDim: true},
		{Name: "ATAX1", Build: buildATAX1},
		{Name: "ATAX2", Build: buildATAX2},
		{Name: "BICG1", Build: buildBICG1},
		{Name: "BICG2", Build: buildBICG2},
		{Name: "FDTD1", Build: buildFDTD1, TwoDim: true},
		{Name: "FDTD2", Build: buildFDTD2, TwoDim: true},
		{Name: "FDTD3", Build: buildFDTD3, TwoDim: true},
		{Name: "GESUMMV", Build: buildGesummv},
		{Name: "MVT1", Build: buildMVT1},
		{Name: "MVT2", Build: buildMVT2},
		{Name: "SYR2K", Build: buildSYR2K, TwoDim: true},
		{Name: "PageRank", Build: buildPageRank},
		{Name: "SpMV", Build: buildSpMV},
	}
}

// RealWorkloads instantiates all fourteen kernels at problem size n with
// the given work-group size (1-D kernels use wg work-items; 2-D kernels
// use the matching square group, 8x8 for 64 and 16x16 for 256).
func RealWorkloads(n, wg int) ([]*Workload, error) {
	var out []*Workload
	for _, d := range RealDescs() {
		w, err := d.Build(n, wg)
		if err != nil {
			return nil, fmt.Errorf("workloads: %s: %w", d.Name, err)
		}
		out = append(out, w)
	}
	return out, nil
}

// wg1d clamps a 1-D work-group size to the global size so small problem
// instances remain launchable.
func wg1d(n, wg int) int {
	if wg > n {
		return n
	}
	return wg
}

func side(wg int) int {
	if wg >= 256 {
		return 16
	}
	return 8
}

func nameOf(base string, n, wg int) string {
	return fmt.Sprintf("%s.n%d.wg%d", base, n, wg)
}

// matVecInstance builds the common (matrix, x, y) instance.
func matVecInstance(d draw, n, wg int, extraIn int) *Instance {
	inst := &Instance{BufBytes: map[int]int64{}}
	A := memoFloat(d, n*n, 3)
	inst.Args = append(inst.Args, interp.BufArg(A))
	inst.BufBytes[0] = A.Bytes()
	arg := 1
	for i := 0; i < extraIn; i++ {
		v := memoFloat(d, n, uint32(5+i))
		inst.Args = append(inst.Args, interp.BufArg(v))
		inst.BufBytes[arg] = v.Bytes()
		arg++
	}
	out := zeroFloat(d, n)
	inst.Args = append(inst.Args, interp.BufArg(out))
	inst.BufBytes[arg] = out.Bytes()
	inst.OutputArgs = []int{arg}
	inst.Args = append(inst.Args, interp.IntArg(int64(n)))
	inst.ND = interp.ND1(n, wg1d(n, wg))
	return inst
}

// --- ATAX: y = A^T (A x), two kernels -------------------------------------

func buildATAX1(n, wg int) (*Workload, error) {
	src := `__kernel void atax1(__global float* A, __global float* x,
                     __global float* tmp, int N) {
    int i = get_global_id(0);
    if (i < N) {
        float acc = 0.0f;
        for (int j = 0; j < N; j++) {
            acc += A[i * N + j] * x[j];
        }
        tmp[i] = acc;
    }
}`
	return &Workload{
		Name: nameOf("ATAX1", n, wg), Source: src, Kernel: "atax1", WorkDim: 1,
		build: func(d draw) (*Instance, error) { return matVecInstance(d, n, wg, 1), nil },
	}, nil
}

func buildATAX2(n, wg int) (*Workload, error) {
	// Column-major walk: A[j*N + i] with i the work-item — lane-continuous
	// but iteration-strided.
	src := `__kernel void atax2(__global float* A, __global float* tmp,
                     __global float* y, int N) {
    int i = get_global_id(0);
    if (i < N) {
        float acc = 0.0f;
        for (int j = 0; j < N; j++) {
            acc += A[j * N + i] * tmp[j];
        }
        y[i] = acc;
    }
}`
	return &Workload{
		Name: nameOf("ATAX2", n, wg), Source: src, Kernel: "atax2", WorkDim: 1,
		build: func(d draw) (*Instance, error) { return matVecInstance(d, n, wg, 1), nil },
	}, nil
}

// --- BICG: two sub-kernels -------------------------------------------------

func buildBICG1(n, wg int) (*Workload, error) {
	src := `__kernel void bicg1(__global float* A, __global float* r,
                     __global float* s, int N) {
    int j = get_global_id(0);
    if (j < N) {
        float acc = 0.0f;
        for (int i = 0; i < N; i++) {
            acc += A[i * N + j] * r[i];
        }
        s[j] = acc;
    }
}`
	return &Workload{
		Name: nameOf("BICG1", n, wg), Source: src, Kernel: "bicg1", WorkDim: 1,
		build: func(d draw) (*Instance, error) { return matVecInstance(d, n, wg, 1), nil },
	}, nil
}

func buildBICG2(n, wg int) (*Workload, error) {
	src := `__kernel void bicg2(__global float* A, __global float* p,
                     __global float* q, int N) {
    int i = get_global_id(0);
    if (i < N) {
        float acc = 0.0f;
        for (int j = 0; j < N; j++) {
            acc += A[i * N + j] * p[j];
        }
        q[i] = acc;
    }
}`
	return &Workload{
		Name: nameOf("BICG2", n, wg), Source: src, Kernel: "bicg2", WorkDim: 1,
		build: func(d draw) (*Instance, error) { return matVecInstance(d, n, wg, 1), nil },
	}, nil
}

// --- GESUMMV ---------------------------------------------------------------

func buildGesummv(n, wg int) (*Workload, error) {
	src := `__kernel void gesummv(__global float* A, __global float* B,
                     __global float* x, __global float* y,
                     float alpha, float beta, int N) {
    int i = get_global_id(0);
    if (i < N) {
        float tmp = 0.0f;
        float yv = 0.0f;
        for (int j = 0; j < N; j++) {
            tmp += A[i * N + j] * x[j];
            yv += B[i * N + j] * x[j];
        }
        y[i] = alpha * tmp + beta * yv;
    }
}`
	return &Workload{
		Name: nameOf("GESUMMV", n, wg), Source: src, Kernel: "gesummv", WorkDim: 1,
		build: func(d draw) (*Instance, error) {
			inst := &Instance{BufBytes: map[int]int64{}}
			A := memoFloat(d, n*n, 3)
			B := memoFloat(d, n*n, 7)
			x := memoFloat(d, n, 11)
			y := zeroFloat(d, n)
			inst.Args = []interp.Arg{
				interp.BufArg(A), interp.BufArg(B), interp.BufArg(x), interp.BufArg(y),
				interp.FloatArg(1.5), interp.FloatArg(1.2), interp.IntArg(int64(n)),
			}
			inst.BufBytes = map[int]int64{0: A.Bytes(), 1: B.Bytes(), 2: x.Bytes(), 3: y.Bytes()}
			inst.OutputArgs = []int{3}
			inst.ND = interp.ND1(n, wg1d(n, wg))
			return inst, nil
		},
	}, nil
}

// --- MVT: two kernels ------------------------------------------------------

func buildMVT1(n, wg int) (*Workload, error) {
	src := `__kernel void mvt1(__global float* A, __global float* y1,
                     __global float* x1, int N) {
    int i = get_global_id(0);
    if (i < N) {
        float acc = x1[i];
        for (int j = 0; j < N; j++) {
            acc += A[i * N + j] * y1[j];
        }
        x1[i] = acc;
    }
}`
	return &Workload{
		Name: nameOf("MVT1", n, wg), Source: src, Kernel: "mvt1", WorkDim: 1,
		build: func(d draw) (*Instance, error) { return mvtInstance(d, n, wg), nil },
	}, nil
}

func buildMVT2(n, wg int) (*Workload, error) {
	src := `__kernel void mvt2(__global float* A, __global float* y2,
                     __global float* x2, int N) {
    int i = get_global_id(0);
    if (i < N) {
        float acc = x2[i];
        for (int j = 0; j < N; j++) {
            acc += A[j * N + i] * y2[j];
        }
        x2[i] = acc;
    }
}`
	return &Workload{
		Name: nameOf("MVT2", n, wg), Source: src, Kernel: "mvt2", WorkDim: 1,
		build: func(d draw) (*Instance, error) { return mvtInstance(d, n, wg), nil },
	}, nil
}

func mvtInstance(d draw, n, wg int) *Instance {
	A := memoFloat(d, n*n, 3)
	yv := memoFloat(d, n, 5)
	xv := memoFloat(d, n, 9)
	return &Instance{
		Args: []interp.Arg{
			interp.BufArg(A), interp.BufArg(yv), interp.BufArg(xv), interp.IntArg(int64(n)),
		},
		BufBytes:   map[int]int64{0: A.Bytes(), 1: yv.Bytes(), 2: xv.Bytes()},
		OutputArgs: []int{2},
		ND:         interp.ND1(n, wg1d(n, wg)),
	}
}

// --- 2DCONV ----------------------------------------------------------------

func build2DConv(n, wg int) (*Workload, error) {
	src := `__kernel void conv2d(__global float* A, __global float* B, int NI, int NJ) {
    int j = get_global_id(0);
    int i = get_global_id(1);
    if (i > 0 && i < NI - 1 && j > 0 && j < NJ - 1) {
        float c11 = 0.2f; float c12 = -0.3f; float c13 = 0.4f;
        float c21 = 0.5f; float c22 = 0.6f;  float c23 = 0.7f;
        float c31 = -0.8f; float c32 = -0.9f; float c33 = 0.1f;
        B[i * NJ + j] =
            c11 * A[(i - 1) * NJ + (j - 1)] + c12 * A[i * NJ + (j - 1)] + c13 * A[(i + 1) * NJ + (j - 1)] +
            c21 * A[(i - 1) * NJ + j]       + c22 * A[i * NJ + j]       + c23 * A[(i + 1) * NJ + j] +
            c31 * A[(i - 1) * NJ + (j + 1)] + c32 * A[i * NJ + (j + 1)] + c33 * A[(i + 1) * NJ + (j + 1)];
    }
}`
	return &Workload{
		Name: nameOf("2DCONV", n, wg), Source: src, Kernel: "conv2d", WorkDim: 2,
		build: func(d draw) (*Instance, error) {
			A := memoFloat(d, n*n, 3)
			B := zeroFloat(d, n*n)
			s := side(wg)
			return &Instance{
				Args: []interp.Arg{
					interp.BufArg(A), interp.BufArg(B),
					interp.IntArg(int64(n)), interp.IntArg(int64(n)),
				},
				BufBytes:   map[int]int64{0: A.Bytes(), 1: B.Bytes()},
				OutputArgs: []int{1},
				ND:         interp.ND2(n, n, s, s),
			}, nil
		},
	}, nil
}

// --- FDTD-2D: three kernels ------------------------------------------------

func fdtdInstance(d draw, n, wg int) *Instance {
	ex := memoFloat(d, n*n, 3)
	ey := memoFloat(d, n*n, 5)
	hz := memoFloat(d, n*n, 7)
	fict := memoFloat(d, n, 9)
	s := side(wg)
	return &Instance{
		Args: []interp.Arg{
			interp.BufArg(ex), interp.BufArg(ey), interp.BufArg(hz), interp.BufArg(fict),
			interp.IntArg(0), interp.IntArg(int64(n)), interp.IntArg(int64(n)),
		},
		BufBytes:   map[int]int64{0: ex.Bytes(), 1: ey.Bytes(), 2: hz.Bytes(), 3: fict.Bytes()},
		OutputArgs: []int{0, 1, 2},
		ND:         interp.ND2(n, n, s, s),
	}
}

func buildFDTD1(n, wg int) (*Workload, error) {
	src := `__kernel void fdtd1(__global float* ex, __global float* ey,
                     __global float* hz, __global float* fict,
                     int t, int NX, int NY) {
    int j = get_global_id(0);
    int i = get_global_id(1);
    if (i < NX && j < NY) {
        if (i == 0) {
            ey[i * NY + j] = fict[t];
        } else {
            ey[i * NY + j] = ey[i * NY + j] - 0.5f * (hz[i * NY + j] - hz[(i - 1) * NY + j]);
        }
    }
}`
	return &Workload{
		Name: nameOf("FDTD1", n, wg), Source: src, Kernel: "fdtd1", WorkDim: 2,
		build: func(d draw) (*Instance, error) { return fdtdInstance(d, n, wg), nil },
	}, nil
}

func buildFDTD2(n, wg int) (*Workload, error) {
	src := `__kernel void fdtd2(__global float* ex, __global float* ey,
                     __global float* hz, __global float* fict,
                     int t, int NX, int NY) {
    int j = get_global_id(0);
    int i = get_global_id(1);
    if (i < NX && j > 0 && j < NY) {
        ex[i * NY + j] = ex[i * NY + j] - 0.5f * (hz[i * NY + j] - hz[i * NY + (j - 1)]);
    }
}`
	return &Workload{
		Name: nameOf("FDTD2", n, wg), Source: src, Kernel: "fdtd2", WorkDim: 2,
		build: func(d draw) (*Instance, error) { return fdtdInstance(d, n, wg), nil },
	}, nil
}

func buildFDTD3(n, wg int) (*Workload, error) {
	src := `__kernel void fdtd3(__global float* ex, __global float* ey,
                     __global float* hz, __global float* fict,
                     int t, int NX, int NY) {
    int j = get_global_id(0);
    int i = get_global_id(1);
    if (i < NX - 1 && j < NY - 1) {
        hz[i * NY + j] = hz[i * NY + j] - 0.7f *
            (ex[i * NY + (j + 1)] - ex[i * NY + j] +
             ey[(i + 1) * NY + j] - ey[i * NY + j]);
    }
}`
	return &Workload{
		Name: nameOf("FDTD3", n, wg), Source: src, Kernel: "fdtd3", WorkDim: 2,
		build: func(d draw) (*Instance, error) { return fdtdInstance(d, n, wg), nil },
	}, nil
}

// --- SYR2K -------------------------------------------------------------------

func buildSYR2K(n, wg int) (*Workload, error) {
	// The paper runs SYR2K at 1024 while the 1-D kernels use 16384: the
	// kernel is O(N^3). Scale the requested size down by the same 16x.
	sn := n / 16
	if sn < 64 {
		sn = 64
	}
	src := `__kernel void syr2k(__global float* A, __global float* B,
                     __global float* C, float alpha, float beta, int N) {
    int j = get_global_id(0);
    int i = get_global_id(1);
    if (i < N && j < N) {
        float acc = C[i * N + j] * beta;
        for (int k = 0; k < N; k++) {
            acc += alpha * A[i * N + k] * B[j * N + k];
            acc += alpha * B[i * N + k] * A[j * N + k];
        }
        C[i * N + j] = acc;
    }
}`
	return &Workload{
		Name: nameOf("SYR2K", sn, wg), Source: src, Kernel: "syr2k", WorkDim: 2,
		build: func(d draw) (*Instance, error) {
			A := memoFloat(d, sn*sn, 3)
			B := memoFloat(d, sn*sn, 5)
			C := memoFloat(d, sn*sn, 7)
			s := side(wg)
			return &Instance{
				Args: []interp.Arg{
					interp.BufArg(A), interp.BufArg(B), interp.BufArg(C),
					interp.FloatArg(1.1), interp.FloatArg(0.9), interp.IntArg(int64(sn)),
				},
				BufBytes:   map[int]int64{0: A.Bytes(), 1: B.Bytes(), 2: C.Bytes()},
				OutputArgs: []int{2},
				ND:         interp.ND2(sn, sn, s, s),
			}, nil
		},
	}, nil
}
