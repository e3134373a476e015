package workloads

import (
	"dopia/internal/interp"
)

// CSR is a compressed-sparse-row matrix over float32 values, as used by
// the SpMV and PageRank workloads.
type CSR struct {
	Rows   int
	Cols   int
	RowPtr []int32 // length Rows+1
	ColIdx []int32 // length NNZ
	Val    []float32
}

// NNZ returns the number of stored non-zeros.
func (m *CSR) NNZ() int { return len(m.ColIdx) }

// RandomCSR builds a deterministic pseudo-random CSR matrix with the given
// average non-zeros per row (uniformly scattered columns).
func RandomCSR(rows, cols, nnzPerRow int, seed uint32) *CSR {
	m := &CSR{Rows: rows, Cols: cols}
	m.RowPtr = make([]int32, rows+1)
	s := xorshift32(seed)
	for r := 0; r < rows; r++ {
		// Vary the row length a little (±50%) for realistic imbalance.
		ln := nnzPerRow/2 + int(s.next()%uint32(nnzPerRow+1))
		if ln < 1 {
			ln = 1
		}
		for k := 0; k < ln; k++ {
			m.ColIdx = append(m.ColIdx, int32(s.next()%uint32(cols)))
			m.Val = append(m.Val, float32(s.next()%1000)/500-1)
		}
		m.RowPtr[r+1] = int32(len(m.ColIdx))
	}
	return m
}

// SpMVReference computes y = M x on the host for verification.
func SpMVReference(m *CSR, x []float32) []float32 {
	y := make([]float32, m.Rows)
	for r := 0; r < m.Rows; r++ {
		var acc float32
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			acc += m.Val[k] * x[m.ColIdx[k]]
		}
		y[r] = acc
	}
	return y
}

const spmvSrc = `__kernel void spmv(__global int* rowptr, __global int* colidx,
                   __global float* val, __global float* x,
                   __global float* y, int N) {
    int i = get_global_id(0);
    if (i < N) {
        float acc = 0.0f;
        for (int k = rowptr[i]; k < rowptr[i + 1]; k++) {
            acc += val[k] * x[colidx[k]];
        }
        y[i] = acc;
    }
}`

// buildSpMV creates the CSR sparse-matrix/vector multiply workload. The
// paper uses 16384 rows with 16,384 non-zeros per row; the reproduction
// keeps the row count and scales the per-row density with n.
func buildSpMV(n, wg int) (*Workload, error) {
	nnzPerRow := n / 8
	if nnzPerRow < 8 {
		nnzPerRow = 8
	}
	return &Workload{
		Name: nameOf("SpMV", n, wg), Source: spmvSrc, Kernel: "spmv", WorkDim: 1,
		build: func(d draw) (*Instance, error) {
			m := memoCSR(d, n, n, nnzPerRow, 42)
			rowptr := interp.FromInts(m.RowPtr)
			colidx := interp.FromInts(m.ColIdx)
			val := interp.FromFloats(m.Val)
			x := memoFloat(d, n, 13)
			y := zeroFloat(d, n)
			return &Instance{
				Args: []interp.Arg{
					interp.BufArg(rowptr), interp.BufArg(colidx), interp.BufArg(val),
					interp.BufArg(x), interp.BufArg(y), interp.IntArg(int64(n)),
				},
				BufBytes: map[int]int64{
					0: rowptr.Bytes(), 1: colidx.Bytes(), 2: val.Bytes(),
					3: x.Bytes(), 4: y.Bytes(),
				},
				OutputArgs: []int{4},
				ND:         interp.ND1(n, wg1d(n, wg)),
			}, nil
		},
	}, nil
}

const pagerankSrc = `__kernel void pagerank(__global int* rowptr, __global int* colidx,
                   __global float* rank, __global float* outdeg,
                   __global float* next, float damp, int N) {
    int i = get_global_id(0);
    if (i < N) {
        float acc = 0.0f;
        for (int k = rowptr[i]; k < rowptr[i + 1]; k++) {
            int src = colidx[k];
            acc += rank[src] / outdeg[src];
        }
        next[i] = (1.0f - damp) / (float)N + damp * acc;
    }
}`

// buildPageRank creates one pull-based PageRank iteration over a random
// graph in CSR form (in-edges per vertex).
func buildPageRank(n, wg int) (*Workload, error) {
	degree := 16
	return &Workload{
		Name: nameOf("PageRank", n, wg), Source: pagerankSrc, Kernel: "pagerank", WorkDim: 1,
		build: func(d draw) (*Instance, error) {
			g := memoCSR(d, n, n, degree, 77)
			rowptr := interp.FromInts(g.RowPtr)
			colidx := interp.FromInts(g.ColIdx)
			rank := interp.NewFloatBuffer(n)
			for i := range rank.F32 {
				rank.F32[i] = 1 / float32(n)
			}
			outdeg := interp.NewFloatBuffer(n)
			// Out-degrees of the transposed graph; approximate with the
			// column frequencies, and clamp to >= 1 so ranks stay finite.
			counts := make([]int32, n)
			for _, c := range g.ColIdx {
				counts[c]++
			}
			for i := range outdeg.F32 {
				if counts[i] == 0 {
					counts[i] = 1
				}
				outdeg.F32[i] = float32(counts[i])
			}
			next := zeroFloat(d, n)
			return &Instance{
				Args: []interp.Arg{
					interp.BufArg(rowptr), interp.BufArg(colidx), interp.BufArg(rank),
					interp.BufArg(outdeg), interp.BufArg(next),
					interp.FloatArg(0.85), interp.IntArg(int64(n)),
				},
				BufBytes: map[int]int64{
					0: rowptr.Bytes(), 1: colidx.Bytes(), 2: rank.Bytes(),
					3: outdeg.Bytes(), 4: next.Bytes(),
				},
				OutputArgs: []int{4},
				ND:         interp.ND1(n, wg1d(n, wg)),
			}, nil
		},
	}, nil
}

// PageRankReference computes one pull-based PageRank iteration on the host.
func PageRankReference(g *CSR, rank, outdeg []float32, damp float32) []float32 {
	n := g.Rows
	next := make([]float32, n)
	for i := 0; i < n; i++ {
		var acc float32
		for k := g.RowPtr[i]; k < g.RowPtr[i+1]; k++ {
			src := g.ColIdx[k]
			acc += rank[src] / outdeg[src]
		}
		next[i] = (1-damp)/float32(n) + damp*acc
	}
	return next
}
