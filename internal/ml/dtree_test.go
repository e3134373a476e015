package ml

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// tiedDataset draws n samples whose features take a handful of values
// each (one is constant) and whose targets are small integers, so splits
// tie often and every summation order gives the same sums.
func tiedDataset(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	levels := [NumFeatures]int{3, 2, 4, 1, 5, 3, 2, 6, 3, 4, 11}
	d := &Dataset{}
	for i := 0; i < n; i++ {
		var x Features
		for f, k := range levels {
			x[f] = float64(rng.Intn(k)) * 0.5
		}
		y := float64(int(x[FMemContinuous]*2+x[FGPUUtil])%4 + rng.Intn(2))
		d.Add(x, y)
	}
	return d
}

// sse is the two-pass sum of squared deviations of the members' targets.
func sse(samples []Sample, members []int) float64 {
	mean := 0.0
	for _, i := range members {
		mean += samples[i].Y
	}
	mean /= float64(len(members))
	s := 0.0
	for _, i := range members {
		dv := samples[i].Y - mean
		s += dv * dv
	}
	return s
}

// bruteSplit tries every feature and every midpoint between consecutive
// distinct values of the members, and returns the split a CART builder
// must choose: features in index order, thresholds ascending, and a
// candidate replaces the best only by a gain more than 1e-12 larger.
func bruteSplit(samples []Sample, members []int, minLeaf int) (int, float64, bool) {
	parent := sse(samples, members)
	bestGain, bestFeat, bestThresh := 0.0, -1, 0.0
	for f := 0; f < NumFeatures; f++ {
		var vals []float64
		for _, i := range members {
			vals = append(vals, samples[i].X[f])
		}
		slices.Sort(vals)
		vals = slices.Compact(vals)
		for k := 0; k+1 < len(vals); k++ {
			thresh := (vals[k] + vals[k+1]) / 2
			l, r := splitMembers(samples, members, f, thresh)
			if len(l) < minLeaf || len(r) < minLeaf {
				continue
			}
			if gain := parent - (sse(samples, l) + sse(samples, r)); gain > bestGain+1e-12 {
				bestGain, bestFeat, bestThresh = gain, f, thresh
			}
		}
	}
	return bestFeat, bestThresh, bestFeat >= 0
}

func splitMembers(samples []Sample, members []int, f int, thresh float64) (l, r []int) {
	for _, i := range members {
		if samples[i].X[f] <= thresh {
			l = append(l, i)
		} else {
			r = append(r, i)
		}
	}
	return l, r
}

// TestTreeMatchesBruteForce walks every fitted node with the samples that
// reach it: an internal node must hold the split a brute-force search
// picks, a leaf that depth and size allowed to split must have none to
// pick, and every node's value is its members' mean summed in sample
// order.
func TestTreeMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		n                 int
		seed              int64
		maxDepth, minLeaf int
	}{
		{300, 1, 16, 2},
		{300, 2, 16, 2},
		{500, 3, 5, 7},
		{120, 4, 16, 1},
		{41, 5, 3, 4},
	} {
		d := tiedDataset(tc.n, tc.seed)
		m, err := TreeTrainer{MaxDepth: tc.maxDepth, MinLeaf: tc.minLeaf}.Fit(d)
		if err != nil {
			t.Fatal(err)
		}
		tree := m.(*treeModel)
		splits := 0
		var walk func(node int32, members []int, depth int)
		walk = func(node int32, members []int, depth int) {
			nd := tree.nodes[node]
			mean := 0.0
			for _, i := range members {
				mean += d.Samples[i].Y
			}
			if mean /= float64(len(members)); math.Float64bits(mean) != math.Float64bits(nd.value) {
				t.Errorf("seed %d node %d: value %v, want the members' mean %v", tc.seed, node, nd.value, mean)
			}
			if depth >= tc.maxDepth || len(members) < 2*tc.minLeaf {
				if nd.feature >= 0 {
					t.Errorf("seed %d node %d: split past the depth or size limit", tc.seed, node)
				}
				return
			}
			feat, thresh, ok := bruteSplit(d.Samples, members, tc.minLeaf)
			if nd.feature < 0 {
				if ok {
					t.Errorf("seed %d node %d: leaf over %d samples, brute force splits %s <= %v",
						tc.seed, node, len(members), FeatureNames[feat], thresh)
				}
				return
			}
			if !ok || feat != nd.feature || thresh != nd.thresh {
				t.Fatalf("seed %d node %d: builder splits %s <= %v, brute force (ok=%v) %d <= %v",
					tc.seed, node, FeatureNames[nd.feature], nd.thresh, ok, feat, thresh)
			}
			splits++
			l, r := splitMembers(d.Samples, members, nd.feature, nd.thresh)
			walk(nd.left, l, depth+1)
			walk(nd.right, r, depth+1)
		}
		all := make([]int, d.Len())
		for i := range all {
			all[i] = i
		}
		walk(0, all, 0)
		if splits < 4 {
			t.Errorf("seed %d: only %d splits; the dataset exercises nothing", tc.seed, splits)
		}
	}
}

// TestTreeEqualPartitionTieRule fits datasets where #arith_int and
// GPU_util split every node into the same two groups (GPU_util is a
// decreasing function of #arith_int, so the groups even swap sides) over
// targets far from zero, where an uncentred score's rounding exceeds the
// split margin. Under every permutation of the samples the lower feature
// index must win, so every permutation grows the same tree.
func TestTreeEqualPartitionTieRule(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := &Dataset{}
	for i := 0; i < 600; i++ {
		var x Features
		x[FArithInt] = float64(rng.Intn(8))
		x[FGPUUtil] = 1 - x[FArithInt]/8
		base.Add(x, 100+x[FArithInt]*0.1+rng.Float64())
	}
	var want []treeNode
	for p := 0; p < 20; p++ {
		d := &Dataset{Samples: slices.Clone(base.Samples)}
		rng.Shuffle(d.Len(), func(i, j int) { d.Samples[i], d.Samples[j] = d.Samples[j], d.Samples[i] })
		m, err := TreeTrainer{}.Fit(d)
		if err != nil {
			t.Fatal(err)
		}
		var got []treeNode
		for _, nd := range m.(*treeModel).nodes {
			if nd.feature >= 0 && nd.feature != FArithInt {
				t.Fatalf("permutation %d: a node splits on %s, want %s (the lower index)",
					p, FeatureNames[nd.feature], FeatureNames[FArithInt])
			}
			nd.value = 0 // leaf means are summed in sample order
			got = append(got, nd)
		}
		if want == nil {
			want = got
			if len(want) < 7 {
				t.Fatalf("tree has %d nodes; the dataset exercises nothing", len(want))
			}
		} else if !slices.Equal(got, want) {
			t.Fatalf("permutation %d grows a different tree", p)
		}
	}
}

// TestTreeRejectsNaNFeature: a NaN has no place in a feature order.
func TestTreeRejectsNaNFeature(t *testing.T) {
	d := synthDataset(10, 1, linearTarget)
	d.Samples[3].X[FGlobalSize] = math.NaN()
	if _, err := (TreeTrainer{}).Fit(d); err == nil {
		t.Fatal("Fit accepted a NaN feature")
	}
}

// dopDataset draws a dataset shaped like core.BuildDataset's: per
// workload a Table 1 base vector of small counts and power-of-two sizes,
// crossed with 44 CPU/GPU configurations, each target the workload's
// best time over the configuration's.
func dopDataset(workloads int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	for w := 0; w < workloads; w++ {
		var base Features
		for f := FMemConstant; f <= FArithFloat; f++ {
			base[f] = float64(rng.Intn(12))
		}
		base[FWorkDim] = float64(1 + rng.Intn(2))
		base[FGlobalSize] = float64(int(1) << (8 + rng.Intn(13)))
		base[FLocalSize] = float64(int(64) << rng.Intn(3))
		cpuRate := 1 + rng.Float64()*4
		gpuRate := rng.Float64() * 8 / (1 + base[FMemRandom])
		times := make([]float64, 0, 44)
		for c := 1; c <= 4; c++ {
			for g := 0; g <= 10; g++ {
				cpu, gpu := float64(c)/4, float64(g)/10
				times = append(times, 1/(cpu*cpuRate+gpu*gpuRate+0.05*cpu*gpu))
			}
		}
		best := slices.Min(times)
		k := 0
		for c := 1; c <= 4; c++ {
			for g := 0; g <= 10; g++ {
				x := base
				x[FCPUUtil], x[FGPUUtil] = float64(c)/4, float64(g)/10
				d.Add(x, best/times[k])
				k++
			}
		}
	}
	return d
}

func BenchmarkTreeFit(b *testing.B) {
	d := dopDataset(100, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (TreeTrainer{}).Fit(d); err != nil {
			b.Fatal(err)
		}
	}
}
