package ml

import (
	"math"
	"testing"
)

// choleskyRowwise is the one-row-at-a-time factorization cholesky
// interleaves.
func choleskyRowwise(a []float64, n int) bool {
	for j := 0; j < n; j++ {
		d := a[j*n+j]
		for k := 0; k < j; k++ {
			d -= a[j*n+k] * a[j*n+k]
		}
		if d <= 0 {
			return false
		}
		d = sqrt(d)
		a[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= a[i*n+k] * a[j*n+k]
			}
			a[i*n+j] = s / d
		}
	}
	return true
}

// rbfSystem is the matrix SVRTrainer factors: the RBF kernel over n
// standardized samples plus the default ridge.
func rbfSystem(n int) []float64 {
	d := synthDataset(n, 11, nonlinearTarget)
	sc := fitScaler(d)
	k := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			k[i*n+j] = rbf(sc.apply(d.Samples[i].X), sc.apply(d.Samples[j].X), 1.0/NumFeatures)
		}
		k[i*n+i] += 1e-3
	}
	return k
}

func TestCholeskyMatchesRowwiseBits(t *testing.T) {
	for _, n := range []int{1, 3, 4, 5, 130} {
		want := rbfSystem(n)
		got := append([]float64(nil), want...)
		if !choleskyRowwise(want, n) || !cholesky(got, n) {
			t.Fatalf("n=%d: kernel matrix not positive definite", n)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: element (%d,%d) = %v, row-at-a-time gives %v", n, i/n, i%n, got[i], want[i])
			}
		}
	}
}

func BenchmarkSVRFit(b *testing.B) {
	d := synthDataset(2048, 12, nonlinearTarget)
	for i := 0; i < b.N; i++ {
		if _, err := (SVRTrainer{MaxTrain: 2048}).Fit(d); err != nil {
			b.Fatal(err)
		}
	}
}
