// Package online closes the Dopia loop: it turns every served launch
// into a training signal and feeds the result back into the decision
// path with zero downtime. The paper trains its models offline and
// freezes them; a serving system under a drifting tenant mix decays
// toward the static baseline the paper argues against. This package
// implements the production counterpart — a streaming collector, a
// bounded memo of oracle sweeps, a per-tenant table of the oracle rows of
// the signatures the tenant launched recently (published over the global
// offline model), an ε-greedy exploration layer with a regret budget
// enforced against the memoized sweep, and an atomic hot-swap path that
// publishes new model generations into core.Framework while in-flight
// launches finish on the model they started with.
package online

import (
	"dopia/internal/ml"
)

// sig identifies one launch signature: the kernel plus the
// configuration-independent feature vector (code features + geometry).
// Two launches with equal signatures have identical DoP timing rows, so
// the oracle sweep and the learned performance table are keyed by it.
type sig struct {
	Kernel string
	Base   ml.Features
}

// tenantModel is the model published for one tenant: the measured
// normalized performance of every (signature, configuration) row the
// tenant launched recently, which makes the decision sweep reproduce the
// oracle argmax for those signatures, over the global offline model for
// everything else (0 when none was configured).
//
// A tenantModel is immutable once published; retraining builds a new
// one and hot-swaps it under a fresh generation.
type tenantModel struct {
	perf map[ml.Features]float64 // full feature vector -> measured normalized perf
	base ml.Model                // may be nil
}

// Name implements ml.Model.
func (t *tenantModel) Name() string { return "ONLINE" }

// Predict implements ml.Model. Must stay pure and deterministic: a
// decision records the generation that scored it, and a generation names
// one immutable snapshot.
func (t *tenantModel) Predict(x ml.Features) float64 {
	if v, ok := t.perf[x]; ok {
		return v
	}
	if t.base == nil {
		return 0
	}
	return t.base.Predict(x)
}
