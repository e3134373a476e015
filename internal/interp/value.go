// Package interp executes OpenCL C kernels (as compiled by internal/clc)
// functionally: work-item by work-item against real buffers. It is the
// "silicon" of this reproduction — kernels genuinely compute their results
// here — and at the same time the instrumentation layer: it counts
// arithmetic operations and classifies memory-access patterns
// dynamically (per loop iteration and per lane).
//
// The interpreter uses closure compilation: each AST node is compiled once
// into a Go closure, so the per-operation interpretive overhead is a single
// indirect call.
package interp

import (
	"fmt"
	"slices"
	"unsafe"

	"dopia/internal/clc"
)

// Value is a scalar runtime value. Exactly one field is meaningful,
// determined by the static type of the expression that produced it:
// integer kinds use I, floating kinds use F.
type Value struct {
	I int64
	F float64
}

// IntValue returns a Value holding an integer.
func IntValue(i int64) Value { return Value{I: i} }

// FloatValue returns a Value holding a float.
func FloatValue(f float64) Value { return Value{F: f} }

// Buffer is a typed memory object kernels read and write through
// address-space-qualified pointer parameters. Base is the buffer's
// position in the flat simulated address space; it is assigned when the
// buffer is registered with an execution so the access addresses of
// different buffers never alias.
type Buffer struct {
	Kind clc.Kind // element kind: KindFloat, KindInt, KindUInt, ...
	F32  []float32
	I32  []int32
	F64  []float64
	I64  []int64

	ID   int
	Base int64
}

// NewBuffer allocates a buffer of n elements of the given kind.
func NewBuffer(kind clc.Kind, n int) *Buffer {
	b := &Buffer{Kind: kind}
	switch kind {
	case clc.KindFloat:
		b.F32 = make([]float32, n)
	case clc.KindDouble:
		b.F64 = make([]float64, n)
	case clc.KindInt, clc.KindUInt, clc.KindBool:
		b.I32 = make([]int32, n)
	case clc.KindLong, clc.KindULong:
		b.I64 = make([]int64, n)
	default:
		panic(fmt.Sprintf("interp: cannot allocate buffer of kind %v", kind))
	}
	return b
}

// NewFloatBuffer allocates a float32 buffer of n elements.
func NewFloatBuffer(n int) *Buffer { return NewBuffer(clc.KindFloat, n) }

// NewIntBuffer allocates an int32 buffer of n elements.
func NewIntBuffer(n int) *Buffer { return NewBuffer(clc.KindInt, n) }

// FromFloats wraps data in a float buffer (no copy).
func FromFloats(data []float32) *Buffer {
	return &Buffer{Kind: clc.KindFloat, F32: data}
}

// FromInts wraps data in an int buffer (no copy).
func FromInts(data []int32) *Buffer {
	return &Buffer{Kind: clc.KindInt, I32: data}
}

// Len returns the number of elements.
func (b *Buffer) Len() int {
	switch {
	case b.F32 != nil:
		return len(b.F32)
	case b.I32 != nil:
		return len(b.I32)
	case b.F64 != nil:
		return len(b.F64)
	case b.I64 != nil:
		return len(b.I64)
	}
	return 0
}

// ElemSize returns the element size in bytes.
func (b *Buffer) ElemSize() int64 {
	switch b.Kind {
	case clc.KindDouble, clc.KindLong, clc.KindULong:
		return 8
	default:
		return 4
	}
}

// Bytes returns the buffer's size in bytes.
func (b *Buffer) Bytes() int64 { return int64(b.Len()) * b.ElemSize() }

// CompatibleWith reports whether the buffer can be bound to a pointer
// parameter whose pointee kind is k. Signedness differences are allowed
// (uint* over an int buffer), matching OpenCL's untyped cl_mem objects.
func (b *Buffer) CompatibleWith(k clc.Kind) bool {
	switch k {
	case clc.KindFloat:
		return b.F32 != nil
	case clc.KindDouble:
		return b.F64 != nil
	case clc.KindInt, clc.KindUInt, clc.KindBool:
		return b.I32 != nil
	case clc.KindLong, clc.KindULong:
		return b.I64 != nil
	}
	return false
}

// Raw returns the buffer's contents as bytes, aliasing its storage: the
// view changes when the buffer does, and two views are equal exactly when
// the two buffers hold the same element bit patterns.
func (b *Buffer) Raw() []byte {
	switch {
	case b.F32 != nil:
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b.F32))), 4*len(b.F32))
	case b.I32 != nil:
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b.I32))), 4*len(b.I32))
	case b.F64 != nil:
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b.F64))), 8*len(b.F64))
	case b.I64 != nil:
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(b.I64))), 8*len(b.I64))
	}
	return nil
}

// Clone returns a deep copy of the buffer (ID/Base are not copied). An
// empty buffer's clone keeps its non-nil slice, so it binds wherever the
// original does (CompatibleWith).
func (b *Buffer) Clone() *Buffer {
	return &Buffer{
		Kind: b.Kind,
		F32:  slices.Clone(b.F32),
		I32:  slices.Clone(b.I32),
		F64:  slices.Clone(b.F64),
		I64:  slices.Clone(b.I64),
	}
}

// CopyFrom overwrites the buffer's contents with those of src, a Clone
// of it taken earlier.
func (b *Buffer) CopyFrom(src *Buffer) {
	copy(b.F32, src.F32)
	copy(b.I32, src.I32)
	copy(b.F64, src.F64)
	copy(b.I64, src.I64)
}

// ArgSnapshot preserves the contents of some buffer arguments, so a
// sampled profiling run or a partially executed fallback rung can be
// rolled back — keeping read-modify-write kernels bit-exact.
type ArgSnapshot struct {
	bufs, copies []*Buffer
}

// SnapshotArgs clones each distinct buffer bound to the given parameter
// slots (the kernel's analysis.Result.WrittenArgs).
func SnapshotArgs(args []Arg, slots []int) *ArgSnapshot {
	s := &ArgSnapshot{}
	for _, i := range slots {
		if a := args[i]; a.IsBuf && a.Buf != nil && !slices.Contains(s.bufs, a.Buf) {
			s.bufs = append(s.bufs, a.Buf)
			s.copies = append(s.copies, a.Buf.Clone())
		}
	}
	return s
}

// ReadBack returns the written slots whose buffer the kernel also loads,
// through that slot or any other bound to the same buffer: what a partial
// run must put back before the launch runs again. A store-only buffer
// needs no copy, since what a launch stores does not depend on what the
// buffer held: a complete run rewrites everything a partial one stored.
func ReadBack(args []Arg, written, loaded []int) []int {
	var slots []int
	for _, w := range written {
		for _, r := range loaded {
			if args[r].Buf == args[w].Buf {
				slots = append(slots, w)
				break
			}
		}
	}
	return slots
}

// Restore rolls every snapshotted buffer back to its contents at
// SnapshotArgs time.
func (s *ArgSnapshot) Restore() {
	for i, b := range s.bufs {
		b.CopyFrom(s.copies[i])
	}
}

// Swap exchanges each snapshotted buffer's storage with its copy's, in
// O(1): between two Swaps a run writes only the copies.
func (s *ArgSnapshot) Swap() {
	for i, b := range s.bufs {
		c := s.copies[i]
		c.ID, c.Base = b.ID, b.Base
		*b, *c = *c, *b
	}
}

// Equal reports whether two buffers hold identical contents.
func (b *Buffer) Equal(o *Buffer) bool {
	if b.Kind != o.Kind || b.Len() != o.Len() {
		return false
	}
	for i := range b.F32 {
		if b.F32[i] != o.F32[i] {
			return false
		}
	}
	for i := range b.I32 {
		if b.I32[i] != o.I32[i] {
			return false
		}
	}
	for i := range b.F64 {
		if b.F64[i] != o.F64[i] {
			return false
		}
	}
	for i := range b.I64 {
		if b.I64[i] != o.I64[i] {
			return false
		}
	}
	return true
}

// Arg is a kernel argument: either a buffer or a scalar value.
type Arg struct {
	Buf   *Buffer
	Val   Value
	IsBuf bool
}

// BufArg wraps a buffer as a kernel argument.
func BufArg(b *Buffer) Arg { return Arg{Buf: b, IsBuf: true} }

// IntArg wraps an integer scalar as a kernel argument.
func IntArg(v int64) Arg { return Arg{Val: IntValue(v)} }

// FloatArg wraps a float scalar as a kernel argument.
func FloatArg(v float64) Arg { return Arg{Val: FloatValue(v)} }
