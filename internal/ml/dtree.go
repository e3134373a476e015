package ml

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
)

// TreeTrainer fits a CART regression tree with variance-reduction splits
// (the paper's deployed "DT" model: accurate for this feature space and
// with microsecond inference, Figure 10).
type TreeTrainer struct {
	// MaxDepth limits the tree depth (default 16).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 2).
	MinLeaf int
	// FeatureFrac, when in (0,1), considers a random subset of features
	// per split (used by the random forest); 0/1 considers all.
	FeatureFrac float64
	// Rng supplies randomness for feature subsampling.
	Rng *rand.Rand
}

// Name implements Trainer.
func (TreeTrainer) Name() string { return "DT" }

// Fit implements Trainer.
func (tr TreeTrainer) Fit(d *Dataset) (Model, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("ml: empty dataset")
	}
	b, err := newTreeBuilder(d.Samples)
	if err != nil {
		return nil, err
	}
	b.maxDepth = tr.MaxDepth
	if b.maxDepth <= 0 {
		b.maxDepth = 16
	}
	b.minLeaf = tr.MinLeaf
	if b.minLeaf <= 0 {
		b.minLeaf = 2
	}
	b.featureFrac = tr.FeatureFrac
	b.rng = tr.Rng
	b.build(0, d.Len(), 0, 1<<NumFeatures-1)
	return b.tree, nil
}

// treeNode is one node in the flattened tree. Leaf nodes have feature -1.
type treeNode struct {
	feature int
	thresh  float64
	left    int32
	right   int32
	value   float64
}

type treeModel struct {
	nodes []treeNode
}

func (t *treeModel) Name() string { return "DT" }

func (t *treeModel) Predict(x Features) float64 {
	if len(t.nodes) == 0 {
		return 0
	}
	i := int32(0)
	for {
		n := &t.nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if x[n.feature] <= n.thresh {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Nodes returns the number of nodes (for size/overhead reporting).
func (t *treeModel) Nodes() int { return len(t.nodes) }

// Depth returns the maximum depth of the tree.
func (t *treeModel) Depth() int {
	var depth func(i int32) int
	depth = func(i int32) int {
		n := &t.nodes[i]
		if n.feature < 0 {
			return 1
		}
		l, r := depth(n.left), depth(n.right)
		if r > l {
			l = r
		}
		return l + 1
	}
	if len(t.nodes) == 0 {
		return 0
	}
	return depth(0)
}

// treeBuilder grows a tree over presorted feature orders. Fit orders every
// feature's samples once, by (value, sample index). A node owns the
// segment [lo, hi) of every order and of idx; a split stable-partitions
// those segments in place, so children inherit sorted segments and the
// fit neither sorts nor allocates per node.
type treeBuilder struct {
	ys       []float64                // targets by sample index
	idx      []int32                  // sample indices, ascending within each node's segment
	orders   [NumFeatures][]sortedRec // per feature, samples by (value, index) within each segment
	left     []bool                   // by sample index: the split being applied sends it left
	spill    []sortedRec              // partition scratch for the right-hand side
	spillIdx []int32
	feats    [NumFeatures]int // pickFeatures' result

	maxDepth    int
	minLeaf     int
	featureFrac float64
	rng         *rand.Rand
	tree        *treeModel
}

// sortedRec is one sample in a feature's order: its value of the
// feature, its target and its index, packed so a split scan reads memory
// in sequence.
type sortedRec struct {
	x, y float64
	i    int32
}

func newTreeBuilder(samples []Sample) (*treeBuilder, error) {
	n := len(samples)
	b := &treeBuilder{
		ys:       make([]float64, n),
		idx:      make([]int32, n),
		left:     make([]bool, n),
		spill:    make([]sortedRec, n),
		spillIdx: make([]int32, n),
		tree:     &treeModel{},
	}
	for i, s := range samples {
		b.ys[i] = s.Y
		b.idx[i] = int32(i)
	}
	recs := make([]sortedRec, NumFeatures*n)
	key := make([]int32, n)
	for f := range b.orders {
		b.orders[f] = recs[f*n : (f+1)*n : (f+1)*n]
		if err := presort(b.orders[f], samples, f, key); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// presort fills order with feature f's samples by (value, sample index),
// by a counting sort over the feature's distinct values: Table 1 features
// take few. key is scratch of one id per sample.
func presort(order []sortedRec, samples []Sample, f int, key []int32) error {
	ids := make(map[float64]int32)
	var vals []float64 // id -> value, ids in order of first appearance
	for i, s := range samples {
		x := s.X[f]
		if x != x {
			return fmt.Errorf("ml: sample %d: %s is NaN", i, FeatureNames[f])
		}
		// A workload's configurations are consecutive samples that
		// share all but the utilization features.
		if i > 0 && x == samples[i-1].X[f] {
			key[i] = key[i-1]
			continue
		}
		id, ok := ids[x]
		if !ok {
			id = int32(len(vals))
			ids[x] = id
			vals = append(vals, x)
		}
		key[i] = id
	}
	byVal := make([]int32, len(vals))
	for id := range byVal {
		byVal[id] = int32(id)
	}
	slices.SortFunc(byVal, func(a, b int32) int { return cmp.Compare(vals[a], vals[b]) })
	next := make([]int32, len(vals)) // id -> its next slot in order
	for _, id := range key {
		next[id]++
	}
	slot := int32(0)
	for _, id := range byVal {
		slot, next[id] = slot+next[id], slot
	}
	for i, s := range samples {
		order[next[key[i]]] = sortedRec{x: s.X[f], y: s.Y, i: int32(i)}
		next[key[i]]++
	}
	return nil
}

// build grows the subtree over the segment [lo, hi) and returns its node
// id. active holds the features not found constant on an ancestor.
func (b *treeBuilder) build(lo, hi, depth int, active uint16) int32 {
	node := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, treeNode{feature: -1})

	mean := 0.0
	for _, i := range b.idx[lo:hi] {
		mean += b.ys[i]
	}
	mean /= float64(hi - lo)
	b.tree.nodes[node].value = mean

	if depth >= b.maxDepth || hi-lo < 2*b.minLeaf {
		return node
	}
	// A feature constant on this segment is constant below it too.
	for f, order := range b.orders {
		if active&(1<<f) != 0 && order[lo].x == order[hi-1].x {
			active &^= 1 << f
		}
	}
	feat, thresh, ok := b.bestSplit(lo, hi, mean, active)
	if !ok {
		return node
	}
	mid, ok := b.split(lo, hi, feat, thresh, active)
	if !ok {
		return node
	}
	l := b.build(lo, mid, depth+1, active)
	r := b.build(mid, hi, depth+1, active)
	b.tree.nodes[node].feature = feat
	b.tree.nodes[node].thresh = thresh
	b.tree.nodes[node].left = l
	b.tree.nodes[node].right = r
	return node
}

// bestSplit finds the (feature, threshold) minimizing the weighted child
// variance over the segment [lo, hi), scanning each candidate feature's
// sorted segment once. The sums run over targets centred on the node
// mean: the raw form lSq - lSum²/lN cancels, and its rounding on a large
// node exceeds the 1e-12 margin, so summation order would choose between
// two features that split the node into the same two groups. Centred,
// such splits score within the margin and the first feature scanned
// (for a plain DT, the lower index) wins.
func (b *treeBuilder) bestSplit(lo, hi int, mean float64, active uint16) (int, float64, bool) {
	bestGain := 0.0
	bestFeat := -1
	bestThresh := 0.0

	var totalSum, totalSq float64
	for _, i := range b.idx[lo:hi] {
		c := b.ys[i] - mean
		totalSum += c
		totalSq += c * c
	}
	n := float64(hi - lo)
	parentSSE := totalSq - totalSum*totalSum/n

	for _, f := range b.pickFeatures() {
		if active&(1<<f) == 0 {
			continue
		}
		seg := b.orders[f][lo:hi]
		var lSum, lSq float64
		for k := 0; k < len(seg)-1; k++ {
			c := seg[k].y - mean
			lSum += c
			lSq += c * c
			xv, xn := seg[k].x, seg[k+1].x
			if xv == xn {
				continue
			}
			lN := k + 1
			if lN < b.minLeaf || len(seg)-lN < b.minLeaf {
				continue
			}
			rSum := totalSum - lSum
			rSq := totalSq - lSq
			rN := n - float64(lN)
			sse := (lSq - lSum*lSum/float64(lN)) + (rSq - rSum*rSum/rN)
			if gain := parentSSE - sse; gain > bestGain+1e-12 {
				bestGain = gain
				bestFeat = f
				bestThresh = (xv + xn) / 2
			}
		}
	}
	return bestFeat, bestThresh, bestFeat >= 0
}

// split sends the segment's samples whose feature f is <= thresh left and
// stable-partitions idx and every active feature's order to match. It
// returns where the right child's segment starts, or false when either
// side would hold fewer than minLeaf samples.
func (b *treeBuilder) split(lo, hi, f int, thresh float64, active uint16) (int, bool) {
	nLeft := 0
	for _, r := range b.orders[f][lo:hi] {
		goesLeft := r.x <= thresh
		b.left[r.i] = goesLeft
		if goesLeft {
			nLeft++
		}
	}
	if nLeft < b.minLeaf || hi-lo-nLeft < b.minLeaf {
		return 0, false
	}
	for g, order := range b.orders {
		if active&(1<<g) == 0 {
			continue
		}
		seg, l, r := order[lo:hi], 0, 0
		for _, rec := range seg {
			if b.left[rec.i] {
				seg[l] = rec
				l++
			} else {
				b.spill[r] = rec
				r++
			}
		}
		copy(seg[l:], b.spill[:r])
	}
	seg, l, r := b.idx[lo:hi], 0, 0
	for _, i := range seg {
		if b.left[i] {
			seg[l] = i
			l++
		} else {
			b.spillIdx[r] = i
			r++
		}
	}
	copy(seg[l:], b.spillIdx[:r])
	return lo + nLeft, true
}

// pickFeatures returns the candidate feature set for one split.
func (b *treeBuilder) pickFeatures() []int {
	all := b.feats[:]
	for i := range all {
		all[i] = i
	}
	if b.featureFrac <= 0 || b.featureFrac >= 1 || b.rng == nil {
		return all
	}
	k := int(b.featureFrac*NumFeatures + 0.5)
	if k < 1 {
		k = 1
	}
	b.rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:k]
}
