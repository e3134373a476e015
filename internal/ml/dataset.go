// Package ml implements the machine-learning stack Dopia uses to predict
// the best degree of parallelism (paper §5.2 and §9.2): the Table 1
// feature vector, and from-scratch implementations of the four model
// families the paper compares — linear regression, support-vector
// regression (realized as RBF kernel ridge regression, which has the same
// O(#training points) inference cost profile that drives the paper's
// overhead findings), a CART decision-tree regressor, and a random forest.
// Cross-validation holds out workloads, not samples, so it lives in
// internal/experiments (CrossValSelections).
package ml

import "math"

// NumFeatures is the length of the Table 1 feature vector.
const NumFeatures = 11

// Feature indices into a feature vector (Table 1 of the paper).
const (
	FMemConstant = iota
	FMemContinuous
	FMemStride
	FMemRandom
	FArithInt
	FArithFloat
	FWorkDim
	FGlobalSize
	FLocalSize
	FCPUUtil
	FGPUUtil
)

// FeatureNames lists the feature names in index order.
var FeatureNames = [NumFeatures]string{
	"#mem_constant", "#mem_continuous", "#mem_stride", "#mem_random",
	"#arith_int", "#arith_float",
	"work_dim", "global_size", "local_size",
	"CPU_util", "GPU_util",
}

// Features is one Table 1 feature vector.
type Features [NumFeatures]float64

// Sample is a training example: a feature vector and its observed
// normalized performance (1 = the best configuration for the workload).
type Sample struct {
	X Features
	Y float64
}

// Dataset is a set of training samples.
type Dataset struct {
	Samples []Sample
}

// Add appends a sample.
func (d *Dataset) Add(x Features, y float64) {
	d.Samples = append(d.Samples, Sample{X: x, Y: y})
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// Model is a trained regressor over Table 1 feature vectors.
type Model interface {
	// Name identifies the model family (LIN, SVR, DT, RF).
	Name() string
	// Predict returns the estimated normalized performance of a
	// configuration described by the feature vector.
	Predict(x Features) float64
}

// Trainer fits a model to a dataset.
type Trainer interface {
	Name() string
	Fit(d *Dataset) (Model, error)
}

// scaler standardizes features (zero mean, unit variance); models that
// are scale-sensitive (LIN, SVR) embed one.
type scaler struct {
	mean [NumFeatures]float64
	std  [NumFeatures]float64
}

func fitScaler(d *Dataset) *scaler {
	s := &scaler{}
	n := float64(len(d.Samples))
	if n == 0 {
		for i := range s.std {
			s.std[i] = 1
		}
		return s
	}
	for _, sm := range d.Samples {
		for i, v := range sm.X {
			s.mean[i] += v
		}
	}
	for i := range s.mean {
		s.mean[i] /= n
	}
	for _, sm := range d.Samples {
		for i, v := range sm.X {
			dv := v - s.mean[i]
			s.std[i] += dv * dv
		}
	}
	for i := range s.std {
		s.std[i] = math.Sqrt(s.std[i] / n)
		if s.std[i] < 1e-12 {
			s.std[i] = 1
		}
	}
	return s
}

func (s *scaler) apply(x Features) Features {
	var out Features
	for i, v := range x {
		out[i] = (v - s.mean[i]) / s.std[i]
	}
	return out
}

// MSE returns the mean squared error of a model on a dataset.
func MSE(m Model, d *Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	var s float64
	for _, sm := range d.Samples {
		e := m.Predict(sm.X) - sm.Y
		s += e * e
	}
	return s / float64(d.Len())
}
