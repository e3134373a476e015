package workloads

import (
	"slices"

	"dopia/internal/clc"
	"dopia/internal/interp"
	"dopia/internal/lru"
)

// inputMemoBytes bounds the input memo. The whole synthetic grid draws
// 21 distinct arrays (3 MiB), the fourteen real kernels at the relaunch
// benchmark's sizes 15 (9 MiB); Fig. 13's N=4096 matrices (64 MiB each)
// do not fit and are drawn afresh on every Setup.
const inputMemoBytes = 32 << 20

// inputKey names one input a workload's Setup draws: a dense array
// (kind KindFloat or KindInt) or, with kind KindVoid, a CSR matrix.
type inputKey struct {
	kind            clc.Kind
	n               int   // a dense array's length, a matrix's rows
	cols, nnzPerRow int   // matrices only
	mod             int32 // FillInts's modulus; int arrays only
	seed            uint32
}

// master is the memo's immutable copy of one input: buf for a dense
// array, csr for a matrix. Nothing outside this file sees a master, only
// clones of it and views over its elements, which nobody writes.
type master struct {
	buf *interp.Buffer
	csr *CSR
}

// inputs is the process-wide input memo. Setup is a pure function of the
// workload, so every Setup of a key past the first copies the master
// instead of running the generator again.
var inputs = lru.New[inputKey, master](inputMemoBytes, master.bytes)

func (k inputKey) generate() master {
	switch k.kind {
	case clc.KindFloat:
		return master{buf: NewFilledFloat(k.n, k.seed)}
	case clc.KindInt:
		return master{buf: NewFilledInt(k.n, k.seed, k.mod)}
	}
	return master{csr: RandomCSR(k.n, k.cols, k.nnzPerRow, k.seed)}
}

func (m master) bytes() int64 {
	if m.csr != nil {
		return 4 * int64(len(m.csr.RowPtr)+len(m.csr.ColIdx)+len(m.csr.Val))
	}
	return m.buf.Bytes()
}

// draw hands out a master: master.clone for a copy the caller owns,
// master.view for a read-only one.
type draw func(master) master

func (m master) clone() master {
	if m.csr != nil {
		c := *m.csr
		c.RowPtr, c.ColIdx, c.Val = slices.Clone(c.RowPtr), slices.Clone(c.ColIdx), slices.Clone(c.Val)
		return master{csr: &c}
	}
	return master{buf: m.buf.Clone()}
}

// view shares the master's elements under fresh headers. A view buffer
// has no address-space placement of its own yet, so executors binding
// views of one master concurrently each place their own header.
func (m master) view() master {
	if m.csr != nil {
		c := *m.csr
		return master{csr: &c}
	}
	v := *m.buf
	v.ID, v.Base = 0, 0
	return master{buf: &v}
}

// input returns k's input as d draws it.
func input(d draw, k inputKey) master {
	if m, ok := inputs.Get(k); ok {
		return d(m)
	}
	m := k.generate()
	if m.bytes() > inputMemoBytes {
		return m // too large to keep: the caller gets the only copy
	}
	inputs.Put(k, m)
	return d(m)
}

// memoFloat is NewFilledFloat through the memo.
func memoFloat(d draw, n int, seed uint32) *interp.Buffer {
	return input(d, inputKey{kind: clc.KindFloat, n: n, seed: seed}).buf
}

// memoInt is NewFilledInt through the memo.
func memoInt(d draw, n int, seed uint32, mod int32) *interp.Buffer {
	return input(d, inputKey{kind: clc.KindInt, n: n, mod: mod, seed: seed}).buf
}

// memoCSR is RandomCSR through the memo.
func memoCSR(d draw, rows, cols, nnzPerRow int, seed uint32) *CSR {
	return input(d, inputKey{n: rows, cols: cols, nnzPerRow: nnzPerRow, seed: seed}).csr
}
