package online

// oracleRow is the memoized ground-truth sweep of one signature: the
// simulated time of every DoP configuration, indexed like
// Machine.Configs(), with the best time precomputed. Rows are immutable
// once built — the simulator is deterministic, so one sweep per
// signature is the whole truth.
type oracleRow struct {
	times    []float64
	bestTime float64
}

// newOracleRow builds a row from a sweep whose times are all positive
// and finite (oracleRowFor rejects any other).
func newOracleRow(times []float64) *oracleRow {
	r := &oracleRow{times: times, bestTime: times[0]}
	for _, t := range times[1:] {
		r.bestTime = min(r.bestTime, t)
	}
	return r
}

// reward returns the normalized performance of executing arm i
// (oracle-best time over arm time; 1 = optimal).
func (r *oracleRow) reward(i int) float64 { return r.bestTime / r.times[i] }

// regretOf returns the relative regret of executing arm i instead of
// the oracle best: (t_i - t_best) / t_best, >= 0.
func (r *oracleRow) regretOf(i int) float64 { return (r.times[i] - r.bestTime) / r.bestTime }
