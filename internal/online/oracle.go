package online

import "dopia/internal/ml"

// sig identifies one launch signature: the kernel plus the
// configuration-independent feature vector (code features + geometry).
// Two launches with equal signatures have identical DoP timing rows, so
// the oracle memo and each tenant's recent signatures are keyed by it.
type sig struct {
	Kernel string
	Base   ml.Features
}

// oracleRow is the memoized ground-truth sweep of one signature: the
// simulated time of every DoP configuration, indexed like
// Machine.Configs(), with the oracle-best configuration precomputed.
// Rows are immutable once built — the simulator is deterministic, so one
// sweep per signature is the whole truth.
type oracleRow struct {
	times    []float64
	best     int // index of the first fastest configuration
	bestTime float64
}

// newOracleRow builds a row from a sweep whose times are all positive
// and finite (oracleRowFor rejects any other).
func newOracleRow(times []float64) *oracleRow {
	r := &oracleRow{times: times, bestTime: times[0]}
	for i, t := range times {
		if t < r.bestTime {
			r.best, r.bestTime = i, t
		}
	}
	return r
}

// regretOf returns the relative regret of executing arm i instead of
// the oracle best: (t_i - t_best) / t_best, >= 0.
func (r *oracleRow) regretOf(i int) float64 { return (r.times[i] - r.bestTime) / r.bestTime }
