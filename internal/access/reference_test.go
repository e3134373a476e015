package access

import (
	"fmt"
	"math/rand"
	"testing"
)

// refClassifier is the classifier as it was before the overflow index:
// the same counters and first-observed-order bins, with every lookup a
// linear scan. It is the reference the indexed Classifier is checked
// against, bin for bin.
type refClassifier struct {
	n, constN, contN int64
	bins             []strideBin
}

func (c *refClassifier) ObserveRun(delta, count int64) {
	if count <= 0 {
		return
	}
	c.n += count
	switch delta {
	case 0:
		c.constN += count
	case 1:
		c.contN += count
	default:
		c.addStride(delta, count)
	}
}

func (c *refClassifier) Observe(delta int64) { c.ObserveRun(delta, 1) }

func (c *refClassifier) addStride(delta, count int64) {
	for i := range c.bins {
		if c.bins[i].delta == delta {
			c.bins[i].count += count
			return
		}
	}
	c.bins = append(c.bins, strideBin{delta, count})
}

func (c *refClassifier) Merge(o *refClassifier) {
	c.n += o.n
	c.constN += o.constN
	c.contN += o.contN
	for _, b := range o.bins {
		c.addStride(b.delta, b.count)
	}
}

func (c *refClassifier) Pattern() (Pattern, int64) {
	if c.n == 0 {
		return Unknown, 0
	}
	var strideElem, strideN, randomN int64
	if len(c.bins) > 0 {
		strideElem, strideN = c.bins[0].delta, c.bins[0].count
		for _, b := range c.bins[1:] {
			randomN += b.count
		}
	}
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

// allBins returns the classifier's bins in first-observed order.
func (c *Classifier) allBins() []strideBin {
	return append(append([]strideBin(nil), c.bins[:c.nbins]...), c.over...)
}

// sameAsRef reports the first observable in which c differs from ref.
func sameAsRef(c *Classifier, ref *refClassifier) error {
	if c.Observations() != ref.n {
		return fmt.Errorf("observations %d, reference %d", c.Observations(), ref.n)
	}
	gp, gs := c.Pattern()
	wp, ws := ref.Pattern()
	if gp != wp || gs != ws {
		return fmt.Errorf("pattern %v/%d, reference %v/%d", gp, gs, wp, ws)
	}
	got := c.allBins()
	if len(got) != len(ref.bins) {
		return fmt.Errorf("%d bins, reference %d", len(got), len(ref.bins))
	}
	for i := range got {
		if got[i] != ref.bins[i] {
			return fmt.Errorf("bin %d is %+v, reference %+v", i, got[i], ref.bins[i])
		}
	}
	return nil
}

// TestIndexedClassifierMatchesReference drives the indexed classifier and
// the linear-scan reference with the same seeded streams — 1 to 10^4
// distinct deltas, single observations mixed with ObserveRun batches —
// whole, and cut at random points into shards that are merged in order.
// Counters, pattern and bins (delta and count, first-observed order) must
// agree at every step of the whole stream and after every merge.
func TestIndexedClassifierMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	type obs struct{ delta, count int64 }
	for _, distinct := range []int{1, 2, 3, overScanMax + 2, overScanMax + 3, 40, 1000, 10000} {
		// The stream's alphabet: 0 and 1 (the counter specials) plus
		// distinct strides of either sign, some beyond int32.
		alphabet := []int64{0, 1}
		for len(alphabet) < distinct+2 {
			d := rng.Int63n(1<<20) - 1<<19
			if rng.Intn(8) == 0 {
				d <<= 24
			}
			alphabet = append(alphabet, d)
		}
		stream := make([]obs, 3*distinct+200)
		for i := range stream {
			stream[i] = obs{delta: alphabet[rng.Intn(len(alphabet))], count: 1}
			if rng.Intn(4) == 0 {
				stream[i].count = rng.Int63n(9) // 0 is a no-op batch
			}
		}
		feed := func(c *Classifier, ref *refClassifier, o obs) {
			if o.count == 1 && rng.Intn(2) == 0 {
				c.Observe(o.delta)
				ref.Observe(o.delta)
				return
			}
			c.ObserveRun(o.delta, o.count)
			ref.ObserveRun(o.delta, o.count)
		}

		var whole Classifier
		var wholeRef refClassifier
		for i, o := range stream {
			feed(&whole, &wholeRef, o)
			// Comparing every bin at every step is quadratic: do it at
			// every step while the stream is short, then at a stride.
			if i < 300 || i%97 == 0 || i == len(stream)-1 {
				if err := sameAsRef(&whole, &wholeRef); err != nil {
					t.Fatalf("%d distinct, step %d: %v", distinct, i, err)
				}
			}
		}

		for trial := 0; trial < 4; trial++ {
			var merged Classifier
			var mergedRef refClassifier
			for lo := 0; lo < len(stream); {
				hi := lo + 1 + rng.Intn(len(stream)/(trial+1))
				if hi > len(stream) {
					hi = len(stream)
				}
				var shard Classifier
				var shardRef refClassifier
				for _, o := range stream[lo:hi] {
					feed(&shard, &shardRef, o)
				}
				merged.Merge(&shard)
				mergedRef.Merge(&shardRef)
				if err := sameAsRef(&merged, &mergedRef); err != nil {
					t.Fatalf("%d distinct, trial %d, after merging [%d,%d): %v", distinct, trial, lo, hi, err)
				}
				lo = hi
			}
			// Shards merged in order are the whole stream.
			if err := sameAsRef(&merged, &wholeRef); err != nil {
				t.Fatalf("%d distinct, trial %d: merged shards differ from the whole stream: %v", distinct, trial, err)
			}
		}
	}
}

var benchSink Pattern

// BenchmarkClassifierObserve times Observe on the streams that matter:
// unit stride (the counter fast path), a row walk with one boundary jump
// (both inlined bins), and an indirect stream of 10^5 distinct deltas
// (the indexed overflow). The first two never touch the index.
func BenchmarkClassifierObserve(b *testing.B) {
	const streamLen = 1 << 17
	rng := rand.New(rand.NewSource(1))
	streams := []struct {
		name  string
		delta func(i int) int64
	}{
		{"unit", func(int) int64 { return 1 }},
		{"two-stride", func(i int) int64 {
			if i%64 == 63 {
				return -4032
			}
			return 64
		}},
		{"random-1e5", func(int) int64 { return 2 + rng.Int63n(100000) }},
	}
	for _, s := range streams {
		deltas := make([]int64, streamLen)
		for i := range deltas {
			deltas[i] = s.delta(i)
		}
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			var c Classifier
			for i := 0; i < b.N; i++ {
				if i%streamLen == 0 {
					c = Classifier{} // a fresh profile per pass over the stream
				}
				c.Observe(deltas[i%streamLen])
			}
			benchSink, _ = c.Pattern()
		})
	}
}
