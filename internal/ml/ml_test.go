package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// synthDataset builds a dataset from a deterministic target function with
// mild noise.
func synthDataset(n int, seed int64, f func(x Features) float64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	for i := 0; i < n; i++ {
		var x Features
		for j := range x {
			x[j] = rng.Float64() * 4
		}
		d.Add(x, f(x)+rng.NormFloat64()*0.01)
	}
	return d
}

func linearTarget(x Features) float64 {
	return 0.3*x[FCPUUtil] - 0.2*x[FGPUUtil] + 0.05*x[FMemRandom] + 0.1
}

func nonlinearTarget(x Features) float64 {
	// A bumpy response resembling the DoP landscape: performance peaks at
	// a partial GPU allocation when random accesses dominate.
	p := x[FCPUUtil] * 0.2
	p += math.Sin(x[FGPUUtil]*2) * 0.3
	if x[FMemRandom] > 2 {
		p -= x[FGPUUtil] * 0.2
	}
	return p
}

func TestLinearRecoversLinearTarget(t *testing.T) {
	d := synthDataset(500, 1, linearTarget)
	m, err := LinearTrainer{}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	if mse := MSE(m, d); mse > 1e-3 {
		t.Errorf("LIN should fit a linear target: mse=%v", mse)
	}
}

func TestTreeBeatsLinearOnNonlinear(t *testing.T) {
	train := synthDataset(1500, 2, nonlinearTarget)
	test := synthDataset(300, 3, nonlinearTarget)
	lin, err := LinearTrainer{}.Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	dt, err := TreeTrainer{}.Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	lm, tm := MSE(lin, test), MSE(dt, test)
	t.Logf("nonlinear target: LIN mse=%.5f DT mse=%.5f", lm, tm)
	if tm >= lm {
		t.Errorf("DT (%v) should beat LIN (%v) on nonlinear target", tm, lm)
	}
}

func TestForestBeatsSingleTreeOutOfSample(t *testing.T) {
	train := synthDataset(800, 4, nonlinearTarget)
	test := synthDataset(400, 5, nonlinearTarget)
	dt, err := TreeTrainer{MaxDepth: 20, MinLeaf: 1}.Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := ForestTrainer{Trees: 30, Seed: 7}.Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	dtE, rfE := MSE(dt, test), MSE(rf, test)
	t.Logf("DT mse=%.5f RF mse=%.5f", dtE, rfE)
	if rfE >= dtE {
		t.Errorf("RF (%v) should generalize better than an unpruned tree (%v)", rfE, dtE)
	}
}

func TestSVRFitsSmoothTarget(t *testing.T) {
	train := synthDataset(600, 6, nonlinearTarget)
	test := synthDataset(200, 7, nonlinearTarget)
	svr, err := SVRTrainer{}.Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := LinearTrainer{}.Fit(train)
	if err != nil {
		t.Fatal(err)
	}
	se, le := MSE(svr, test), MSE(lin, test)
	t.Logf("SVR mse=%.5f LIN mse=%.5f", se, le)
	if se >= le {
		t.Errorf("SVR (%v) should beat LIN (%v) on smooth nonlinear target", se, le)
	}
}

func TestSVRSubsampling(t *testing.T) {
	d := synthDataset(300, 8, linearTarget)
	m, err := SVRTrainer{MaxTrain: 64}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	if sp := m.(*svrModel).SupportPoints(); sp > 150 {
		t.Errorf("subsampled SVR kept %d support points, want <= ~64", sp)
	}
}

func TestTreePredictionWithinTrainingRange(t *testing.T) {
	d := synthDataset(400, 9, nonlinearTarget)
	m, err := TreeTrainer{}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range d.Samples {
		lo = math.Min(lo, s.Y)
		hi = math.Max(hi, s.Y)
	}
	// Property: a regression tree can never extrapolate beyond the
	// training targets.
	f := func(a, b, c, g float64) bool {
		x := Features{math.Abs(a), math.Abs(b), math.Abs(c), 0, 0, 0, 1, 1024, 64, math.Mod(math.Abs(g), 1), 0.5}
		y := m.Predict(x)
		return y >= lo-1e-9 && y <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSVRInferenceCostlierThanTree(t *testing.T) {
	d := synthDataset(1200, 12, nonlinearTarget)
	inferTime := func(tr Trainer) time.Duration {
		m, err := tr.Fit(d)
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		for _, sm := range d.Samples {
			m.Predict(sm.X)
		}
		return time.Since(t0)
	}
	// The paper's Figure 10b: SVR inference is orders of magnitude more
	// expensive than DT.
	if svr, dt := inferTime(SVRTrainer{}), inferTime(TreeTrainer{}); svr < 5*dt {
		t.Errorf("SVR inference (%v) should dwarf DT (%v)", svr, dt)
	}
}

func TestSolveSPD(t *testing.T) {
	// Simple 2x2: [[2,1],[1,3]] x = [5, 10] -> x = [1, 3].
	x, err := solveSPD([]float64{2, 1, 1, 3}, []float64{5, 10}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Errorf("solveSPD = %v, want [1 3]", x)
	}
	// Non-SPD falls back to Gaussian elimination.
	x, err = solveSPD([]float64{0, 1, 1, 0}, []float64{2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-9 || math.Abs(x[1]-2) > 1e-9 {
		t.Errorf("gauss fallback = %v, want [3 2]", x)
	}
	// Singular system errors out.
	if _, err := solveSPD([]float64{1, 1, 1, 1}, []float64{1, 2}, 2); err == nil {
		t.Error("expected singular-system error")
	}
}

func TestScalerProperties(t *testing.T) {
	d := synthDataset(200, 14, linearTarget)
	sc := fitScaler(d)
	// Property: scaled features have ~zero mean and ~unit variance.
	var mean, varsum [NumFeatures]float64
	for _, s := range d.Samples {
		x := sc.apply(s.X)
		for i, v := range x {
			mean[i] += v
		}
	}
	n := float64(d.Len())
	for i := range mean {
		mean[i] /= n
	}
	for _, s := range d.Samples {
		x := sc.apply(s.X)
		for i, v := range x {
			dv := v - mean[i]
			varsum[i] += dv * dv
		}
	}
	for i := range mean {
		if math.Abs(mean[i]) > 1e-9 {
			t.Errorf("feature %d scaled mean = %v", i, mean[i])
		}
		if v := varsum[i] / n; math.Abs(v-1) > 1e-6 {
			t.Errorf("feature %d scaled variance = %v", i, v)
		}
	}
}
