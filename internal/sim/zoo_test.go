package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dopia/internal/access"
)

// TestZooRegistry: every built-in machine resolves by name
// (case-insensitively), has a full 44-entry DoP space like the paper's
// parts, and the canonical configurations are inside it.
func TestZooRegistry(t *testing.T) {
	if len(Zoo()) != 5 {
		t.Fatalf("zoo has %d machines, want 5", len(Zoo()))
	}
	for _, want := range Zoo() {
		for _, name := range []string{want.Name, strings.ToLower(want.Name), strings.ToUpper(want.Name)} {
			m, err := MachineByName(name)
			if err != nil {
				t.Fatalf("MachineByName(%q): %v", name, err)
			}
			if m.Name != want.Name {
				t.Fatalf("MachineByName(%q) = %s", name, m.Name)
			}
		}
		cfgs := want.Configs()
		if len(cfgs) != 44 {
			t.Errorf("%s: %d configs, want 44", want.Name, len(cfgs))
		}
		seen := map[Config]bool{}
		for _, c := range cfgs {
			if !c.Valid() {
				t.Errorf("%s: invalid config %+v in sweep", want.Name, c)
			}
			if seen[c] {
				t.Errorf("%s: duplicate config %+v", want.Name, c)
			}
			seen[c] = true
		}
		for _, c := range []Config{want.CPUOnly(), want.GPUOnly(), want.AllResources()} {
			if !seen[c] {
				t.Errorf("%s: canonical config %+v not in Configs()", want.Name, c)
			}
		}
	}
	if _, err := MachineByName("nonesuch"); err == nil {
		t.Fatal("MachineByName(nonesuch) succeeded")
	}
}

// gpuAffineModel is massively parallel coalesced streaming compute — the
// kind of kernel an integrated GPU always wins.
func gpuAffineModel() *KernelModel {
	return &KernelModel{
		Name: "gpu-affine", WorkDim: 1, NumWGs: 2048, WGSize: 256, GroupsPerRow: 1,
		AluIntPerWG:   1e4,
		AluFloatPerWG: 2e5,
		Sites: []SiteModel{{
			Site: 0, ElemSize: 4, AccPerWG: 512,
			Iter: access.Continuous, Lane: access.Continuous,
			BufBytes: 64 << 20, DistinctPerWI: 8,
		}},
	}
}

// cpuAffineModel hammers a small random-access table: it fits the CPU's
// cache but thrashes on the GPU, whose thousands of resident threads
// evict it — the paper's CPU-friendly crossover shape.
func cpuAffineModel() *KernelModel {
	return &KernelModel{
		Name: "cpu-affine", WorkDim: 1, NumWGs: 64, WGSize: 64, GroupsPerRow: 1,
		AluIntPerWG:   5e4,
		AluFloatPerWG: 1e4,
		Sites: []SiteModel{{
			Site: 0, ElemSize: 4, AccPerWG: 4e4,
			Iter: access.Random, Lane: access.Random,
			BufBytes: 128 << 10, DistinctPerWI: 4096,
		}},
	}
}

// TestZooCrossoverExistence: each zoo machine has a crossover — some
// kernel where the CPU alone beats the GPU alone and some kernel where
// the GPU alone beats the CPU alone. Without both directions, DoP
// selection on that machine would be trivial.
func TestZooCrossoverExistence(t *testing.T) {
	for _, m := range Zoo() {
		run := func(km *KernelModel, cfg Config) float64 {
			t.Helper()
			r, err := Simulate(m, km, cfg, Dynamic, SimOptions{})
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			return r.Time
		}
		gk := gpuAffineModel()
		if c, g := run(gk, m.CPUOnly()), run(gk, m.GPUOnly()); g >= c {
			t.Errorf("%s: gpu-affine kernel: gpu %.3gs not faster than cpu %.3gs",
				m.Name, g, c)
		}
		ck := cpuAffineModel()
		if c, g := run(ck, m.CPUOnly()), run(ck, m.GPUOnly()); c >= g {
			t.Errorf("%s: cpu-affine kernel: cpu %.3gs not faster than gpu %.3gs",
				m.Name, c, g)
		}
	}
}

// TestZooSweepTotality: for every zoo machine, every scheduler, and a
// spread of random kernel models, the whole 44-config sweep simulates to
// a finite positive time and executes every work-group exactly once.
func TestZooSweepTotality(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, m := range Zoo() {
		for _, dist := range Distributions() {
			for trial := 0; trial < 3; trial++ {
				km := randomKernelModel(rng)
				for _, cfg := range m.Configs() {
					r, err := Simulate(m, km, cfg, dist, SimOptions{CPUShare: 0.5})
					if err != nil {
						t.Fatalf("%s/%s cfg %+v: %v", m.Name, dist, cfg, err)
					}
					if r.Time <= 0 || math.IsNaN(r.Time) || math.IsInf(r.Time, 0) {
						t.Fatalf("%s/%s cfg %+v: bad time %v", m.Name, dist, cfg, r.Time)
					}
					if r.WGsCPU+r.WGsGPU != km.NumWGs {
						t.Fatalf("%s/%s cfg %+v: %d+%d WGs, want %d",
							m.Name, dist, cfg, r.WGsCPU, r.WGsGPU, km.NumWGs)
					}
				}
			}
		}
	}
}

// TestZooSchedulerCover: on every machine, every scheduler's emitted
// spans partition the ND-range exactly — no overlap, no gap — and the
// spans replay identically run-to-run.
func TestZooSchedulerCover(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	type span struct {
		dev          string
		start, count int
	}
	for _, m := range Zoo() {
		for _, dist := range Distributions() {
			km := randomKernelModel(rng)
			collect := func() []span {
				var spans []span
				_, err := Simulate(m, km, m.AllResources(), dist, SimOptions{
					CPUShare: 0.4,
					OnSpan: func(dev string, start, count int) error {
						spans = append(spans, span{dev, start, count})
						return nil
					},
				})
				if err != nil {
					t.Fatalf("%s/%s: %v", m.Name, dist, err)
				}
				return spans
			}
			spans := collect()
			counts := make([]int, km.NumWGs)
			for _, s := range spans {
				if s.count <= 0 || s.start < 0 || s.start+s.count > km.NumWGs {
					t.Fatalf("%s/%s: bad span %+v", m.Name, dist, s)
				}
				for i := s.start; i < s.start+s.count; i++ {
					counts[i]++
				}
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("%s/%s: work-group %d executed %d times", m.Name, dist, i, c)
				}
			}
			again := collect()
			if len(again) != len(spans) {
				t.Fatalf("%s/%s: replay emitted %d spans, first run %d",
					m.Name, dist, len(again), len(spans))
			}
			for i := range spans {
				if spans[i] != again[i] {
					t.Fatalf("%s/%s: replay diverged at span %d: %+v vs %+v",
						m.Name, dist, i, spans[i], again[i])
				}
			}
		}
	}
}

// TestPropertyHGuidedChunkMonotone: the HGuided chunk policy is monotone
// non-decreasing in the agent's weight (throughput), never exceeds the
// remaining work, and always makes progress in allocation-unit steps.
func TestPropertyHGuidedChunkMonotone(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(47))}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		remaining := 1 + rng.Intn(10000)
		unit := 1 + rng.Intn(8)
		minChunk := unit * (1 + rng.Intn(4))
		sumW := 0.1 + rng.Float64()*100
		w1 := rng.Float64() * sumW
		w2 := rng.Float64() * sumW
		if w1 > w2 {
			w1, w2 = w2, w1
		}
		c1 := HGuidedChunk(remaining, unit, minChunk, w1, sumW)
		c2 := HGuidedChunk(remaining, unit, minChunk, w2, sumW)
		if c1 > c2 {
			return false // not monotone in throughput
		}
		for _, c := range []int{c1, c2} {
			if c <= 0 || c > remaining {
				return false
			}
			if c != remaining && c%unit != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestFluidZeroBandwidth: a memory system with zero bandwidth cannot
// serve bytes, but the engine must still terminate — tasks pay their
// compute and latency and their unservable bytes are forgiven.
func TestFluidZeroBandwidth(t *testing.T) {
	f := NewFluid(0)
	f.Add(0, TaskCost{Compute: 1e-3, Latency: 1e-4, MemBytes: 1e9})
	f.Add(1, TaskCost{MemBytes: 5e8})
	var finished []int
	for steps := 0; ; steps++ {
		if steps > 1000 {
			t.Fatal("fluid with zero bandwidth did not terminate")
		}
		done, ok := f.Step()
		if !ok {
			break
		}
		finished = append(finished, done...)
	}
	if len(finished) != 2 {
		t.Fatalf("finished %d tasks, want 2", len(finished))
	}
	// Compute and latency deplete concurrently; the bytes are forgiven.
	if want := 1e-3; math.Abs(f.Time-want) > 1e-12 {
		t.Fatalf("time %v, want %v (busy time of the compute task)", f.Time, want)
	}
}

// TestFluidSingleTask: with no contention, a lone task finishes exactly
// at its AloneTime, whether compute-, latency-, or bandwidth-bound.
func TestFluidSingleTask(t *testing.T) {
	costs := []TaskCost{
		{Compute: 2e-3},
		{Latency: 3e-3},
		{Compute: 1e-3, Latency: 5e-4, MemBytes: 1e6, PeakBW: 1e9},
		{MemBytes: 1e9, PeakBW: 2e9},  // bandwidth-bound, capped by PeakBW
		{MemBytes: 1e9, PeakBW: 1e12}, // capped by the DRAM itself
	}
	for i, c := range costs {
		f := NewFluid(10e9)
		f.Add(7, c)
		var total int
		for {
			done, ok := f.Step()
			if !ok {
				break
			}
			for _, owner := range done {
				if owner != 7 {
					t.Fatalf("case %d: owner %d finished", i, owner)
				}
			}
			total += len(done)
		}
		if total != 1 {
			t.Fatalf("case %d: %d completions", i, total)
		}
		// Add clamps the per-task cap at the DRAM bandwidth.
		cc := c
		if cc.PeakBW <= 0 || cc.PeakBW > 10e9 {
			cc.PeakBW = 10e9
		}
		if want := cc.AloneTime(); math.Abs(f.Time-want) > want*1e-9+1e-15 {
			t.Fatalf("case %d: time %v, want AloneTime %v", i, f.Time, want)
		}
	}
}

// TestFluidTieOrder: tasks that complete at the same instant come back
// in insertion order — schedules that react to completions
// must replay deterministically even across map-iteration randomness.
func TestFluidTieOrder(t *testing.T) {
	run := func() []int {
		f := NewFluid(1e9)
		for i := 0; i < 16; i++ {
			f.Add(i, TaskCost{Compute: 1e-3})
		}
		done, ok := f.Step()
		if !ok {
			t.Fatal("no step")
		}
		return done
	}
	first := run()
	if len(first) != 16 {
		t.Fatalf("%d completions in the tie step, want 16", len(first))
	}
	for i := 1; i < len(first); i++ {
		if first[i-1] >= first[i] {
			t.Fatalf("done owners not in insertion order: %v", first)
		}
	}
	for trial := 0; trial < 10; trial++ {
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("tie order diverged on trial %d: %v vs %v", trial, first, again)
			}
		}
	}
}

// TestFluidMidFlightJoin: a PCIe-capped task joining mid-flight (the
// discrete-GPU chunk shape) still obeys conservation — nobody beats
// their contention-free bound, the joiner's rate respects its cap, and
// the aggregate bytes fit in elapsed-time × bandwidth.
func TestFluidMidFlightJoin(t *testing.T) {
	const bw = 20e9
	f := NewFluid(bw)
	costs := map[int]TaskCost{ // by owner
		0: {Compute: 1e-4, MemBytes: 4e8, PeakBW: bw},
		1: {Latency: 2e-4, MemBytes: 6e8, PeakBW: bw},
	}
	f.Add(0, costs[0])
	f.Add(1, costs[1])
	finish := map[int]float64{}
	done, ok := f.Step()
	if !ok {
		t.Fatal("premature drain")
	}
	for _, d := range done {
		finish[d] = f.Time
	}
	joinTime := f.Time
	// The PCIe-shaped joiner: modest bytes, hard 12 GB/s cap.
	pcie := TaskCost{Compute: 5e-6, MemBytes: 2.4e8, PeakBW: 12e9}
	const id = 2
	f.Add(id, pcie)
	costs[id] = pcie
	for steps := 0; ; steps++ {
		if steps > 100000 {
			t.Fatal("not terminating")
		}
		done, ok := f.Step()
		if !ok {
			break
		}
		for _, d := range done {
			finish[d] = f.Time
		}
	}
	if len(finish) != 3 {
		t.Fatalf("finished %d tasks, want 3", len(finish))
	}
	// The joiner cannot beat its own cap, measured from when it joined.
	if got, min := finish[id]-joinTime, pcie.AloneTime(); got < min-1e-12 {
		t.Fatalf("pcie task finished in %v, below its alone bound %v", got, min)
	}
	// Conservation: all bytes moved fit under the bandwidth ceiling.
	var total float64
	var last float64
	for tid, ft := range finish {
		total += costs[tid].MemBytes
		if ft > last {
			last = ft
		}
	}
	if total/last > bw*(1+1e-9) {
		t.Fatalf("moved %g bytes in %gs: exceeds bandwidth %g", total, last, bw)
	}
}
