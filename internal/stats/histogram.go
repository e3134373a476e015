package stats

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket streaming histogram for non-negative
// values (latencies, sizes). Buckets are log-spaced between Min and Max
// with an underflow bucket below Min and an overflow bucket above Max,
// so one Record is a single atomic increment — safe for any number of
// concurrent writers with no locking on the hot path.
//
// All Histograms created with the same (Min, Max, buckets) geometry are
// mergeable: Merge adds another histogram's counts bucket-for-bucket,
// which is how per-worker or per-client histograms roll up into one
// report. Quantiles are estimated by linear interpolation inside the
// containing bucket; with the default geometry (256 buckets over
// [1e-6, 1e3] seconds) adjacent bucket bounds differ by a factor of
// ~1.084, bounding the relative quantile error by a few percent —
// plenty for p50/p95/p99 reporting. Values landing exactly on a bucket
// boundary may be attributed to either adjacent bucket (float log
// rounding), which stays within the same error bound.
//
// The zero value is not usable; construct with NewHistogram or
// NewLatencyHistogram.
type Histogram struct {
	min, max float64
	// logMin and invLogW precompute the bucket-index transform:
	// idx = (ln v - ln min) * invLogW.
	logMin, invLogW float64

	// counts[0] is the underflow bucket (v < min); counts[n+1] the
	// overflow bucket (v >= max); counts[1..n] the log-spaced interior.
	counts []atomic.Int64
	total  atomic.Int64
	// sum accumulates the raw values (as float64 bits CAS-looped) so the
	// snapshot can report an exact mean alongside estimated quantiles.
	sum atomicFloat
}

// atomicFloat is a float64 accumulated with a CAS loop.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) Add(v float64) {
	for {
		old := a.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (a *atomicFloat) Load() float64 { return math.Float64frombits(a.bits.Load()) }

// NewHistogram creates a histogram with n log-spaced buckets covering
// [min, max). Requirements: 0 < min < max, n >= 1.
func NewHistogram(min, max float64, n int) (*Histogram, error) {
	if !(min > 0) || !(max > min) || n < 1 {
		return nil, fmt.Errorf("stats: invalid histogram geometry min=%v max=%v buckets=%d", min, max, n)
	}
	h := &Histogram{
		min:    min,
		max:    max,
		logMin: math.Log(min),
		counts: make([]atomic.Int64, n+2),
	}
	h.invLogW = float64(n) / (math.Log(max) - math.Log(min))
	return h, nil
}

// NewLatencyHistogram returns the default server-latency geometry:
// 256 log-spaced buckets from 1 microsecond to 1000 seconds.
func NewLatencyHistogram() *Histogram {
	h, err := NewHistogram(1e-6, 1e3, 256)
	if err != nil {
		panic(err) // static geometry, cannot fail
	}
	return h
}

// bucketOf maps a value to its slot in counts.
func (h *Histogram) bucketOf(v float64) int {
	if math.IsNaN(v) || v < h.min {
		return 0
	}
	if v >= h.max {
		return len(h.counts) - 1
	}
	idx := int((math.Log(v)-h.logMin)*h.invLogW) + 1
	// Guard the float boundary cases.
	if idx < 1 {
		idx = 1
	}
	if idx > len(h.counts)-2 {
		idx = len(h.counts) - 2
	}
	return idx
}

// Record adds one observation. Safe for concurrent use.
func (h *Histogram) Record(v float64) {
	h.counts[h.bucketOf(v)].Add(1)
	h.total.Add(1)
	if !math.IsNaN(v) {
		h.sum.Add(v)
	}
}

// Merge adds every bucket of other into h. Both histograms must share
// the same geometry. Safe for concurrent use on both sides; counts
// recorded into other concurrently with the merge may or may not be
// included.
func (h *Histogram) Merge(other *Histogram) error {
	if other == nil {
		return nil
	}
	if h.min != other.min || h.max != other.max || len(h.counts) != len(other.counts) {
		return fmt.Errorf("stats: merging histograms of different geometry")
	}
	var moved int64
	for i := range other.counts {
		n := other.counts[i].Load()
		if n != 0 {
			h.counts[i].Add(n)
			moved += n
		}
	}
	h.total.Add(moved)
	h.sum.Add(other.sum.Load())
	return nil
}

// HistSnapshot is a point-in-time copy of a histogram, safe to read and
// serialize without further synchronization.
type HistSnapshot struct {
	Min, Max float64
	Counts   []int64 // underflow, interior buckets, overflow
	Total    int64
	Sum      float64
}

// Snapshot copies the current counts. Concurrent Records during the
// copy land in either the snapshot or the next one; each observation is
// counted exactly once per bucket slot.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Min:    h.min,
		Max:    h.max,
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
	}
	var total int64
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		total += c
	}
	// Recompute the total from the copied buckets so Total always equals
	// sum(Counts) even when Records race with the snapshot.
	s.Total = total
	return s
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Quantile estimates the q-th quantile (0..1) of the recorded values by
// linear interpolation within the containing bucket. NaN when empty.
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// Mean returns the exact arithmetic mean of recorded values (NaN when
// empty).
func (s HistSnapshot) Mean() float64 {
	if s.Total == 0 {
		return math.NaN()
	}
	return s.Sum / float64(s.Total)
}

// bounds returns the [lo, hi) value range of counts slot i.
func (s HistSnapshot) bounds(i int) (lo, hi float64) {
	n := len(s.Counts) - 2
	logMin := math.Log(s.Min)
	w := (math.Log(s.Max) - logMin) / float64(n)
	switch {
	case i <= 0:
		return 0, s.Min
	case i >= n+1:
		return s.Max, s.Max
	default:
		return math.Exp(logMin + float64(i-1)*w), math.Exp(logMin + float64(i)*w)
	}
}

// Quantile estimates the q-th quantile (0..1). Underflow observations
// interpolate in [0, Min); overflow ones report Max (a floor — the true
// value may be larger).
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Total)
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo, hi := s.bounds(i)
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	// rank beyond the last non-empty bucket (q == 1 with rounding).
	for i := len(s.Counts) - 1; i >= 0; i-- {
		if s.Counts[i] > 0 {
			_, hi := s.bounds(i)
			return hi
		}
	}
	return math.NaN()
}

// P50 returns the estimated median.
func (s HistSnapshot) P50() float64 { return s.Quantile(0.50) }

// P95 returns the estimated 95th percentile.
func (s HistSnapshot) P95() float64 { return s.Quantile(0.95) }

// P99 returns the estimated 99th percentile.
func (s HistSnapshot) P99() float64 { return s.Quantile(0.99) }
