// Package workloads provides the kernels of the Dopia evaluation: the
// parameterizable synthetic workload generator of Table 2 (1,224 training
// workloads, Table 4), the fourteen real-world OpenCL kernels (twelve
// Polybench kernels, SpMV over CSR, and PageRank), and deterministic input
// generators for dense matrices, sparse matrices, and graphs.
package workloads

import (
	"fmt"
	"math/bits"

	"dopia/internal/clc"
	"dopia/internal/interp"
)

// Workload is one benchmark kernel plus a recipe for its inputs.
type Workload struct {
	// Name uniquely identifies the workload (e.g. "2mat3d2c1T.f32.d1.s16384.wg64"
	// or "GESUMMV.wg256").
	Name string
	// Source is the OpenCL C program text.
	Source string
	// Kernel is the kernel name within Source.
	Kernel string
	// WorkDim is the launch dimensionality.
	WorkDim int
	// build returns the launch instance, drawing every memoized input
	// through d (see Setup and Views).
	build func(d draw) (*Instance, error)
}

// Setup allocates and fills fresh input buffers and returns the launch
// instance. Each call returns independent buffers.
func (w *Workload) Setup() (*Instance, error) { return w.build(master.clone) }

// Views returns the launch instance with every memoized input bound as a
// read-only view of the memo's master: a fresh, unplaced buffer over the
// master's elements, so binding it places the view, never the master.
// Buffers no memo holds (outputs, derived arrays) are fresh as in Setup.
// Nothing may write a view: bind it only where no buffer is written, such
// as a timing-only sched.Executor, whose profile writes private copies.
func (w *Workload) Views() (*Instance, error) { return w.build(master.view) }

// Instance is a concrete, runnable instantiation of a workload.
type Instance struct {
	Args []interp.Arg
	ND   interp.NDRange
	// BufBytes maps kernel parameter indices to buffer sizes, as the
	// performance model needs them.
	BufBytes map[int]int64
	// OutputArgs lists the parameter indices of output buffers (used by
	// correctness checks).
	OutputArgs []int
}

// CompileKernel returns the workload's kernel, shared and read-only: every
// workload and ocl build of the same source gets one *clc.Kernel and one
// set of its memos (clc.CompileShared). Call clc.Compile for a private one.
func (w *Workload) CompileKernel() (*clc.Kernel, error) {
	prog, err := clc.CompileShared(w.Source)
	if err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", w.Name, err)
	}
	k := prog.Kernel(w.Kernel)
	if k == nil {
		return nil, fmt.Errorf("workloads: %s: kernel %q not found", w.Name, w.Kernel)
	}
	return k, nil
}

// xorshift32 is the deterministic generator used for all input data.
type xorshift32 uint32

func (s *xorshift32) next() uint32 {
	x := uint32(*s)
	if x == 0 {
		x = 0x9e3779b9
	}
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	*s = xorshift32(x)
	return x
}

// FillFloats fills a float buffer with deterministic values in [-1, 1).
func FillFloats(b *interp.Buffer, seed uint32) {
	s := xorshift32(seed)
	for i := range b.F32 {
		b.F32[i] = float32(s.next()%2000)/1000 - 1
	}
}

// FillInts fills an int buffer with deterministic values in [0, mod): each
// draw's int32 residue. A negative draw x − 2³² has the residue of
// x − (2³² mod mod), so every draw is reduced by Lemire's fastmod, a
// reciprocal multiply exact for 32-bit operands (m wraps to 0 at mod = 1).
func FillInts(b *interp.Buffer, seed uint32, mod int32) {
	s := xorshift32(seed)
	if mod <= 0 {
		mod = 1 << 30
	}
	d := uint64(mod)
	m, wrap := ^uint64(0)/d+1, uint32((1<<32)%d)
	for i := range b.I32 {
		x := s.next()
		hi, _ := bits.Mul64(m*uint64(x-(x>>31)*wrap), d)
		b.I32[i] = int32(hi)
	}
}

// NewFilledFloat allocates a float buffer with deterministic content.
func NewFilledFloat(n int, seed uint32) *interp.Buffer {
	b := interp.NewFloatBuffer(n)
	FillFloats(b, seed)
	return b
}

// NewFilledInt allocates an int buffer with deterministic content in
// [0, mod).
func NewFilledInt(n int, seed uint32, mod int32) *interp.Buffer {
	b := interp.NewIntBuffer(n)
	FillInts(b, seed, mod)
	return b
}
