package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dopia/internal/access"
)

// TestPropertyFluidConservation: regardless of the task mix, the fluid
// engine (a) terminates, (b) never finishes a task before its contention-
// free lower bound, and (c) never moves more bytes per second than the
// DRAM bandwidth allows.
func TestPropertyFluidConservation(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bw := 1e9 * (1 + rng.Float64()*30)
		f := NewFluid(bw)
		n := 1 + rng.Intn(12)
		lower := map[int]float64{}
		var totalBytes float64
		for i := 0; i < n; i++ {
			c := TaskCost{
				Compute:  rng.Float64() * 1e-2,
				Latency:  rng.Float64() * 1e-3,
				MemBytes: rng.Float64() * 1e8,
				PeakBW:   bw * (0.05 + rng.Float64()),
			}
			f.Add(i, c)
			lower[i] = c.AloneTime()
			totalBytes += c.MemBytes
		}
		finish := map[int]float64{}
		for steps := 0; ; steps++ {
			if steps > 100000 {
				return false // not terminating
			}
			done, ok := f.Step()
			if !ok {
				break
			}
			for _, id := range done {
				finish[id] = f.Time
			}
		}
		if len(finish) != n {
			return false
		}
		var last float64
		for id, t0 := range finish {
			if t0 < lower[id]-1e-9 {
				return false // beat the physics
			}
			if t0 > last {
				last = t0
			}
		}
		// Aggregate bandwidth bound: all bytes must fit in elapsed time.
		if last > 0 && totalBytes/last > bw*(1+1e-6) {
			return false
		}
		return !math.IsNaN(last) && !math.IsInf(last, 0)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropertySimulatedTimeBounds: for any (synthetic-model, config)
// pair, the simulated time is finite, positive, and no smaller than both
// the compute lower bound and the DRAM lower bound.
func TestPropertySimulatedTimeBounds(t *testing.T) {
	m := Kaveri()
	cfg := &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(21))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		km := randomKernelModel(rng)
		cfgs := m.Configs()
		c := cfgs[rng.Intn(len(cfgs))]
		dist := Dynamic
		if rng.Intn(2) == 0 {
			dist = Static
		}
		r, err := Simulate(m, km, c, dist, SimOptions{CPUShare: rng.Float64()})
		if err != nil {
			return false
		}
		if r.Time <= 0 || math.IsNaN(r.Time) || math.IsInf(r.Time, 0) {
			return false
		}
		if r.WGsCPU+r.WGsGPU != km.NumWGs {
			return false
		}
		// DRAM lower bound: all traffic at peak bandwidth.
		if r.Time < r.DRAMBytes/m.Mem.BandwidthBs-1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func randomKernelModel(rng *rand.Rand) *KernelModel {
	wgSize := []int{64, 256}[rng.Intn(2)]
	numWGs := 1 + rng.Intn(128)
	km := &KernelModel{
		Name:          "random",
		WorkDim:       1,
		NumWGs:        numWGs,
		WGSize:        wgSize,
		GroupsPerRow:  1,
		AluIntPerWG:   rng.Float64() * 1e6,
		AluFloatPerWG: rng.Float64() * 1e6,
	}
	sites := 1 + rng.Intn(5)
	for i := 0; i < sites; i++ {
		km.Sites = append(km.Sites, SiteModel{
			Site:           i,
			Write:          rng.Intn(2) == 0,
			ElemSize:       4,
			AccPerWG:       rng.Float64() * 1e5,
			Iter:           randomPattern(rng),
			Lane:           randomPattern(rng),
			IterStride:     int64(rng.Intn(4096)),
			LaneStride:     int64(rng.Intn(4096)),
			BufBytes:       rng.Float64() * 1e8,
			DistinctPerWI:  rng.Float64() * 1e5,
			SharedAcrossWI: rng.Intn(2) == 0,
		})
	}
	return km
}

func randomPattern(rng *rand.Rand) access.Pattern {
	return access.Pattern(1 + rng.Intn(4))
}

// TestPropertyMoreResourcesNeverBeatPhysics: on a purely memory-bound
// model, no configuration can beat the DRAM-bandwidth lower bound, and
// the exhaustive best is at least as good as every fixed baseline.
func TestPropertyExhaustiveDominates(t *testing.T) {
	m := Skylake()
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(31))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		km := randomKernelModel(rng)
		best, bestRes, table, err := Exhaustive(m, km)
		if err != nil {
			return false
		}
		if !best.Valid() {
			return false
		}
		for _, r := range table {
			if r.Time < bestRes.Time-1e-12 {
				return false
			}
		}
		return len(table) == 44
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
