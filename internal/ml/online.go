package ml

import (
	"fmt"
	"math"
)

// This file implements the incremental half of the training stack: an
// online ridge regressor whose sufficient statistics support both
// partial-fit (Observe) and exact sliding-window eviction (Forget), plus
// model provenance metadata so a hot-swapped model carries where it came
// from. The offline trainers in linreg.go/svr.go/tree.go stay the
// authority for ahead-of-time training; OnlineRidge exists so a serving
// system can keep learning from live launches without refitting from
// scratch on every sample.

// OnlineRidge accumulates the sufficient statistics of ridge regression
// (raw second moments, cross moments, and target sums) one sample at a
// time. Fit solves the standardized normal equations on demand, so the
// cost of producing a model is one 12x12 SPD solve regardless of how
// many samples were observed. Observe/Forget are exact inverses: a
// sliding-window trainer Observes the incoming sample and Forgets the
// evicted one, and the statistics equal a batch fit of the window.
//
// OnlineRidge is not internally locked; callers serialize access.
type OnlineRidge struct {
	// Ridge is the L2 regularization strength (default 1e-6, matching
	// LinearTrainer).
	Ridge float64

	n   float64                            // sample count
	sx  [NumFeatures]float64               // feature sums
	sxx [NumFeatures * NumFeatures]float64 // raw second moments X'X
	sxy [NumFeatures]float64               // cross moments X'y
	sy  float64                            // target sum
}

// Observe folds one (features, target) pair into the statistics.
func (o *OnlineRidge) Observe(x Features, y float64) { o.accumulate(x, y, 1) }

// Forget removes a previously observed pair (sliding-window eviction).
// Forgetting a pair that was never observed corrupts the statistics;
// the caller owns the window discipline.
func (o *OnlineRidge) Forget(x Features, y float64) { o.accumulate(x, y, -1) }

func (o *OnlineRidge) accumulate(x Features, y, sign float64) {
	o.n += sign
	o.sy += sign * y
	for i := 0; i < NumFeatures; i++ {
		o.sx[i] += sign * x[i]
		o.sxy[i] += sign * x[i] * y
		for j := 0; j < NumFeatures; j++ {
			o.sxx[i*NumFeatures+j] += sign * x[i] * x[j]
		}
	}
}

// Len reports how many samples the statistics currently cover.
func (o *OnlineRidge) Len() int { return int(o.n + 0.5) }

// Fit solves the current statistics into a linear model (same family and
// serialization as LinearTrainer's output). It standardizes features
// using the window's own mean/std — computed from the accumulated
// moments, not a second pass — so the solve is exactly the batch ridge
// fit of the current window. Fails when fewer than two samples are held
// or the system is degenerate.
func (o *OnlineRidge) Fit() (Model, error) {
	if o.n < 2 {
		return nil, fmt.Errorf("ml: online ridge has %d samples, want >= 2", o.Len())
	}
	ridge := o.Ridge
	if ridge <= 0 {
		ridge = 1e-6
	}
	sc := &scaler{}
	for i := 0; i < NumFeatures; i++ {
		mu := o.sx[i] / o.n
		sc.mean[i] = mu
		v := o.sxx[i*NumFeatures+i]/o.n - mu*mu
		if v > 1e-12 {
			sc.std[i] = math.Sqrt(v)
		} else {
			sc.std[i] = 1 // constant feature: pass through uncentered scale
		}
	}
	// Build the standardized normal equations from the raw moments:
	// with z_i = (x_i - mu_i)/sigma_i and an intercept column of ones,
	//   (Z'Z)[i][j] = (sxx[ij] - mu_i sx[j] - mu_j sx[i] + n mu_i mu_j) / (s_i s_j)
	//   (Z'Z)[i][b] = (sx[i] - n mu_i) / s_i            (~0 by construction)
	//   (Z'y)[i]    = (sxy[i] - mu_i sy) / s_i
	nc := NumFeatures + 1
	xtx := make([]float64, nc*nc)
	xty := make([]float64, nc)
	for i := 0; i < NumFeatures; i++ {
		mi, si := sc.mean[i], sc.std[i]
		for j := 0; j < NumFeatures; j++ {
			mj, sj := sc.mean[j], sc.std[j]
			xtx[i*nc+j] = (o.sxx[i*NumFeatures+j] - mi*o.sx[j] - mj*o.sx[i] + o.n*mi*mj) / (si * sj)
		}
		cross := (o.sx[i] - o.n*mi) / si
		xtx[i*nc+NumFeatures] = cross
		xtx[NumFeatures*nc+i] = cross
		xty[i] = (o.sxy[i] - mi*o.sy) / si
	}
	xtx[NumFeatures*nc+NumFeatures] = o.n
	xty[NumFeatures] = o.sy
	for i := 0; i < nc; i++ {
		xtx[i*nc+i] += ridge
	}
	w, err := solveSPD(xtx, xty, nc)
	if err != nil {
		return nil, err
	}
	if i := nonFiniteAt(w); i >= 0 {
		return nil, fmt.Errorf("ml: online ridge produced non-finite weight w[%d]", i)
	}
	return &linearModel{scale: sc, w: w}, nil
}

// Provenance records where a model came from, carried alongside the
// model through serialization and the /v1/models endpoint.
type Provenance struct {
	// Tenant that the model was trained for ("" = global).
	Tenant string `json:"tenant,omitempty"`
	// Generation assigned when the model was published (0 = static).
	Generation uint64 `json:"generation,omitempty"`
	// Samples is the training-window size at fit time.
	Samples int `json:"samples,omitempty"`
	// Origin describes how the model was produced ("offline", "online",
	// "warm-start", ...).
	Origin string `json:"origin,omitempty"`
	// Parent names the model this one was warm-started from.
	Parent string `json:"parent,omitempty"`
	// TrainedUnixMS is the wall-clock fit time in Unix milliseconds.
	TrainedUnixMS int64 `json:"trained_unix_ms,omitempty"`
}

// provModel attaches provenance to a model without changing its
// predictions. Prediction hot paths receive the unwrapped inner model.
type provModel struct {
	Model
	prov Provenance
}

// WithProvenance returns the model tagged with provenance. Tagging an
// already-tagged model replaces its provenance.
func WithProvenance(m Model, p Provenance) Model {
	if pm, ok := m.(*provModel); ok {
		m = pm.Model
	}
	return &provModel{Model: m, prov: p}
}

// ProvenanceOf extracts a model's provenance tag, if any.
func ProvenanceOf(m Model) (Provenance, bool) {
	if pm, ok := m.(*provModel); ok {
		return pm.prov, true
	}
	return Provenance{}, false
}

// Unwrap strips a provenance tag, returning the underlying model.
func Unwrap(m Model) Model {
	if pm, ok := m.(*provModel); ok {
		return pm.Model
	}
	return m
}
