package main

import (
	"math"
	"sort"

	"dopia/internal/stats"
)

// median returns the middle order statistic of xs (mean of the two
// middle values for an even count); NaN for empty input.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; NaN for empty input.
func quantile(xs []float64, q float64) float64 { return stats.Percentile(xs, 100*q) }

// classGeomean is the latency aggregate of the benchmark: the geometric
// mean over classes of a per-class quantile of the class's samples.
// Classes are visited in sorted order so the floating-point sum repeats.
func classGeomean(samples map[string][]float64, q float64) float64 {
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	per := make([]float64, 0, len(names))
	for _, name := range names {
		per = append(per, quantile(samples[name], q))
	}
	return stats.Geomean(per)
}

// minClassCount returns the smallest per-class sample count and the total.
func minClassCount(samples map[string][]float64) (min, total int) {
	min = -1
	for _, xs := range samples {
		if min < 0 || len(xs) < min {
			min = len(xs)
		}
		total += len(xs)
	}
	if min < 0 {
		min = 0
	}
	return min, total
}

// quartiles returns the first, second and third quartile of xs exactly
// as Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method) does — the rule the benchmark driver applies to ten runs.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	out := [3]float64{}
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// spread summarises how far repeated runs of one metric disagree.
type spread struct {
	median float64
	// iqr is (Q3-Q1)/median, the driver's acceptance statistic.
	iqr float64
	// maxDev is the largest |x-median|/median over the runs.
	maxDev float64
}

func spreadOf(xs []float64) spread {
	q1, q2, q3 := quartiles(xs)
	sp := spread{median: q2}
	if q2 == 0 || math.IsNaN(q2) {
		return sp
	}
	sp.iqr = math.Abs((q3 - q1) / q2)
	for _, x := range xs {
		if d := math.Abs(x-q2) / math.Abs(q2); d > sp.maxDev {
			sp.maxDev = d
		}
	}
	return sp
}
