package ml

import "fmt"

// This file holds the small dense linear algebra the regression models
// need: symmetric positive-definite solves via Cholesky factorization with
// a partial-pivot Gaussian elimination fallback.

// solveSPD solves A x = b for symmetric positive-definite A (row-major,
// n×n), in place of a copy. It first attempts Cholesky and falls back to
// Gaussian elimination with partial pivoting when the matrix is not
// numerically positive definite.
func solveSPD(a []float64, b []float64, n int) ([]float64, error) {
	if len(a) != n*n || len(b) != n {
		return nil, fmt.Errorf("ml: dimension mismatch (%d, %d, n=%d)", len(a), len(b), n)
	}
	l := make([]float64, n*n)
	copy(l, a)
	if cholesky(l, n) {
		x := make([]float64, n)
		copy(x, b)
		// Forward substitution L y = b.
		for i := 0; i < n; i++ {
			for j := 0; j < i; j++ {
				x[i] -= l[i*n+j] * x[j]
			}
			x[i] /= l[i*n+i]
		}
		// Back substitution L^T x = y.
		for i := n - 1; i >= 0; i-- {
			for j := i + 1; j < n; j++ {
				x[i] -= l[j*n+i] * x[j]
			}
			x[i] /= l[i*n+i]
		}
		return x, nil
	}
	return gaussSolve(a, b, n)
}

// cholesky factors a into lower-triangular form in place; returns false
// when a pivot is non-positive. Below the diagonal, each row i of column j
// is a dot product of row i's and row j's first j elements that no other
// row of the column reads, so the loop runs four rows through one k-loop
// to overlap their add chains. Each row keeps its own summation order, so
// every element is bit-equal to a row-at-a-time loop.
func cholesky(a []float64, n int) bool {
	for j := 0; j < n; j++ {
		rj := a[j*n : j*n+j]
		d := a[j*n+j]
		for _, v := range rj {
			d -= v * v
		}
		if d <= 0 {
			return false
		}
		d = sqrt(d)
		a[j*n+j] = d
		i := j + 1
		for ; i+4 <= n; i += 4 {
			r0 := a[i*n : i*n+j]
			r1 := a[(i+1)*n : (i+1)*n+j]
			r2 := a[(i+2)*n : (i+2)*n+j]
			r3 := a[(i+3)*n : (i+3)*n+j]
			s0, s1, s2, s3 := a[i*n+j], a[(i+1)*n+j], a[(i+2)*n+j], a[(i+3)*n+j]
			for k, v := range rj {
				s0 -= r0[k] * v
				s1 -= r1[k] * v
				s2 -= r2[k] * v
				s3 -= r3[k] * v
			}
			a[i*n+j], a[(i+1)*n+j], a[(i+2)*n+j], a[(i+3)*n+j] = s0/d, s1/d, s2/d, s3/d
		}
		for ; i < n; i++ {
			ri := a[i*n : i*n+j]
			s := a[i*n+j]
			for k, v := range rj {
				s -= ri[k] * v
			}
			a[i*n+j] = s / d
		}
	}
	return true
}

func sqrt(x float64) float64 {
	// Newton iterations; avoids importing math in the hot path for no
	// reason other than symmetry — precision matches math.Sqrt closely.
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 32; i++ {
		nz := 0.5 * (z + x/z)
		if nz == z {
			break
		}
		z = nz
	}
	return z
}

// gaussSolve solves A x = b by Gaussian elimination with partial pivoting.
func gaussSolve(aIn, bIn []float64, n int) ([]float64, error) {
	a := make([]float64, n*n)
	copy(a, aIn)
	b := make([]float64, n)
	copy(b, bIn)
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		max := abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := abs(a[r*n+col]); v > max {
				p, max = r, v
			}
		}
		if max < 1e-15 {
			return nil, fmt.Errorf("ml: singular system at column %d", col)
		}
		if p != col {
			for k := 0; k < n; k++ {
				a[p*n+k], a[col*n+k] = a[col*n+k], a[p*n+k]
			}
			b[p], b[col] = b[col], b[p]
		}
		inv := 1 / a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] * inv
			if f == 0 {
				continue
			}
			for k := col; k < n; k++ {
				a[r*n+k] -= f * a[col*n+k]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= a[i*n+k] * x[k]
		}
		x[i] = s / a[i*n+i]
	}
	return x, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
