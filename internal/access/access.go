// Package access defines the memory-access-pattern vocabulary shared by
// the static analyzer, the functional interpreter, and the performance
// simulator: every memory operation is classified as constant, continuous,
// strided, or random, following Section 5.1 of the Dopia paper.
package access

import "fmt"

// Pattern classifies the address sequence of a memory operation.
type Pattern int

// Pattern classes, ordered from most to least memory-system friendly.
const (
	// Unknown means the classifier has not seen enough evidence.
	Unknown Pattern = iota
	// Constant: the operation repeatedly accesses one address.
	Constant
	// Continuous: consecutive executions access consecutive elements.
	Continuous
	// Strided: consecutive executions advance by a fixed stride > 1 element.
	Strided
	// Random: no fixed relation between consecutive addresses (e.g.
	// indirect accesses such as C[B[i]]).
	Random
)

func (p Pattern) String() string {
	switch p {
	case Unknown:
		return "unknown"
	case Constant:
		return "constant"
	case Continuous:
		return "continuous"
	case Strided:
		return "strided"
	case Random:
		return "random"
	}
	return fmt.Sprintf("pattern(%d)", int(p))
}

// strideBin counts occurrences of one distinct stride (delta not in {0,1}).
type strideBin struct {
	delta int64
	count int64
}

// Classifier incrementally classifies a single operation's address stream
// (element-granularity deltas). It tolerates a small fraction of outliers
// (loop-boundary jumps) before declaring a stream random.
//
// Internally it keeps an ordered histogram of distinct strides rather than
// a sticky first-stride counter; the first-observed stride is the
// candidate "the" stride and every later distinct stride counts as
// irregularity. This is observationally identical to a sticky counter for
// any delta stream, but — unlike a sticky counter — two classifiers over
// adjacent sub-streams can be merged exactly, which is what lets the
// parallel ND-range engine keep per-shard statistics and still report
// bit-identical patterns to a sequential run.
type Classifier struct {
	n      int64 // deltas observed
	constN int64 // delta == 0
	contN  int64 // delta == 1
	// bins holds the distinct strides in first-observed order. Real
	// kernels almost never produce more than two distinct strides
	// (the stride plus one loop-boundary jump value), so two bins are
	// inlined and anything beyond spills to the overflow slice.
	bins  [2]strideBin
	nbins int
	over  []strideBin
	// idx finds a delta's bin in over once an indirect stream has spilled
	// more than overScanMax distinct strides: an open-addressing table of
	// positions into over, plus one (0 marks a free slot). It is only ever
	// a lookup aid — over stays the first-observed-order record Merge and
	// Pattern read — so the classification of a stream cannot depend on
	// whether, or when, the table was built.
	idx []int32
}

// overScanMax is the overflow length up to which addStride scans over
// linearly; past it the lookup goes through idx.
const overScanMax = 8

// Observe records a delta, in elements, between two consecutive accesses.
func (c *Classifier) Observe(deltaElems int64) {
	c.n++
	switch deltaElems {
	case 0:
		c.constN++
	case 1:
		c.contN++
	default:
		c.addStride(deltaElems, 1)
	}
}

// ObserveRun records count consecutive occurrences of the same delta,
// exactly as count successive Observe(deltaElems) calls would. The
// interpreter's fused-loop superinstructions batch their constant-stride
// runs through this entry point instead of per-access Observe calls; the
// resulting classifier state is bit-identical because a single repeated
// delta touches one counter (or one stride bin, preserving
// first-observed order).
func (c *Classifier) ObserveRun(deltaElems, count int64) {
	if count <= 0 {
		return
	}
	c.n += count
	switch deltaElems {
	case 0:
		c.constN += count
	case 1:
		c.contN += count
	default:
		c.addStride(deltaElems, count)
	}
}

// addStride credits count occurrences of a distinct stride, preserving
// first-observed order. It is O(1) for any number of distinct strides.
func (c *Classifier) addStride(delta, count int64) {
	for i := 0; i < c.nbins; i++ {
		if c.bins[i].delta == delta {
			c.bins[i].count += count
			return
		}
	}
	if c.nbins < len(c.bins) {
		c.bins[c.nbins] = strideBin{delta, count}
		c.nbins++
		return
	}
	if c.idx == nil {
		for i := range c.over {
			if c.over[i].delta == delta {
				c.over[i].count += count
				return
			}
		}
		c.over = append(c.over, strideBin{delta, count})
		if len(c.over) > overScanMax {
			c.reindex(4 * overScanMax)
		}
		return
	}
	mask := uint64(len(c.idx) - 1)
	slot := hashDelta(delta) & mask
	for ; c.idx[slot] != 0; slot = (slot + 1) & mask {
		if b := &c.over[c.idx[slot]-1]; b.delta == delta {
			b.count += count
			return
		}
	}
	c.over = append(c.over, strideBin{delta, count})
	c.idx[slot] = int32(len(c.over))
	if 2*len(c.over) > len(c.idx) {
		c.reindex(2 * len(c.idx))
	}
}

// reindex rebuilds idx over size slots (a power of two, at least twice
// len(over), so probes always end at a free slot).
func (c *Classifier) reindex(size int) {
	c.idx = make([]int32, size)
	mask := uint64(size - 1)
	for i := range c.over {
		slot := hashDelta(c.over[i].delta) & mask
		for c.idx[slot] != 0 {
			slot = (slot + 1) & mask
		}
		c.idx[slot] = int32(i + 1)
	}
}

// hashDelta spreads a stride over the table (Fibonacci hashing: the high
// bits of the product, which every bit of the delta reaches).
func hashDelta(delta int64) uint64 {
	return (uint64(delta) * 0x9e3779b97f4a7c15) >> 32
}

// Merge absorbs the observations of another classifier as if its delta
// stream had been observed immediately after c's own. Stride identity is
// kept in first-observed order across the concatenation, so merging
// per-shard classifiers in shard order reproduces the sequential
// classification exactly. The other classifier is left unchanged.
func (c *Classifier) Merge(o *Classifier) {
	c.n += o.n
	c.constN += o.constN
	c.contN += o.contN
	for i := 0; i < o.nbins; i++ {
		c.addStride(o.bins[i].delta, o.bins[i].count)
	}
	for i := range o.over {
		c.addStride(o.over[i].delta, o.over[i].count)
	}
}

// Observations returns the number of deltas observed.
func (c *Classifier) Observations() int64 { return c.n }

// Pattern returns the majority classification of the stream so far.
// A stream needs at least one delta to be classified; single-execution
// sites report Unknown and callers fall back to static classification.
func (c *Classifier) Pattern() (Pattern, int64) {
	if c.n == 0 {
		return Unknown, 0
	}
	// The first-observed stride is the stride candidate; every other
	// distinct stride is irregularity.
	var strideElem, strideN, randomN int64
	if c.nbins > 0 {
		strideElem = c.bins[0].delta
		strideN = c.bins[0].count
		for i := 1; i < c.nbins; i++ {
			randomN += c.bins[i].count
		}
		for i := range c.over {
			randomN += c.over[i].count
		}
	}
	// Outlier tolerance: a strided row-major walk sees one irregular jump
	// per row; accept up to 10% irregularity before calling it random.
	if randomN*10 > c.n {
		return Random, 0
	}
	best, bestN := Constant, c.constN
	if c.contN > bestN {
		best, bestN = Continuous, c.contN
	}
	if strideN > bestN {
		best, bestN = Strided, strideN
	}
	if randomN > bestN {
		best = Random
	}
	if best == Strided {
		return Strided, strideElem
	}
	return best, 0
}
