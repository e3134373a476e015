package sim

import (
	"fmt"
	"math"
	"strings"
	"sync"
)

// SpanFunc is an optional callback invoked for every span of work-groups
// an agent acquires, in simulated-completion order. Dopia's runtime uses
// it to functionally execute exactly the work the simulated schedule
// assigns: device is "cpu" or "gpu", start/count index work-groups of the
// full ND range.
type SpanFunc func(device string, start, count int) error

// Result is the outcome of one simulated kernel execution.
type Result struct {
	Time         float64 // simulated wall-clock seconds
	DRAMBytes    float64 // total DRAM traffic
	Transactions float64 // DRAM transactions (bytes / line)
	WGsCPU       int     // work-groups executed by CPU cores
	WGsGPU       int     // work-groups executed by the GPU
	GPUChunks    int     // number of GPU dispatches
	CPUBusy      float64 // summed busy seconds across CPU cores
	GPUBusy      float64 // GPU busy seconds
}

// Distribution selects how work is split between the devices.
type Distribution int

const (
	// Dynamic is Dopia's runtime scheme (Algorithm 1): CPU threads pull
	// single work-groups from an atomic worklist; the GPU is pushed
	// chunks of one tenth of the work-groups. Its CLI/report name is
	// "alg1" — the EngineCL-style work-queue scheduler below owns the
	// name "dynamic".
	Dynamic Distribution = iota
	// Static splits the work-groups up front: a fixed share to the CPU
	// (divided evenly among cores) and the rest to the GPU in one chunk.
	Static
	// WorkQueue is the EngineCL-style dynamic scheduler: both devices
	// pull fixed-size chunks (SimOptions.ChunkWGs) from a shared queue,
	// so whichever device drains faster simply takes more of the range.
	WorkQueue
	// HGuided is EngineCL's guided scheduler: chunks shrink geometrically
	// with the remaining work and are weighted by each device's observed
	// throughput, so fast devices take large early chunks while the tail
	// is split finely to minimize imbalance.
	HGuided
)

// String returns the scheduler's CLI/report name.
func (d Distribution) String() string {
	switch d {
	case Dynamic:
		return "alg1"
	case Static:
		return "static"
	case WorkQueue:
		return "dynamic"
	case HGuided:
		return "hguided"
	}
	return fmt.Sprintf("Distribution(%d)", int(d))
}

// ParseDistribution maps a CLI/report name to a Distribution. The empty
// string selects the paper's Algorithm 1.
func ParseDistribution(s string) (Distribution, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "alg1", "paper":
		return Dynamic, nil
	case "static":
		return Static, nil
	case "dynamic", "workqueue":
		return WorkQueue, nil
	case "hguided", "h-guided":
		return HGuided, nil
	}
	return 0, fmt.Errorf("sim: unknown scheduler %q (alg1, static, dynamic, hguided)", s)
}

// Distributions returns every scheduling policy.
func Distributions() []Distribution {
	return []Distribution{Dynamic, Static, WorkQueue, HGuided}
}

// SimOptions tune a simulation run.
type SimOptions struct {
	// CPUShare is the fraction of work-groups assigned to the CPU under
	// Static distribution.
	CPUShare float64
	// GPUChunkDiv sets the dynamic GPU chunk size to NumWGs/GPUChunkDiv
	// (the paper uses 10).
	GPUChunkDiv int
	// DecayChunks enables guided-self-scheduling-style GPU chunk decay:
	// each push takes a GPUChunkDiv-th of the *remaining* work-groups
	// instead of a fixed tenth of the total. The paper leaves dynamic
	// chunk sizing as future work (§7); this implements it, shrinking the
	// tail imbalance when the GPU is the slower device.
	DecayChunks bool
	// OnSpan, when non-nil, is invoked for every acquired span.
	OnSpan SpanFunc
	// PlainGPU charges GPU chunks without the malleable-kernel overhead
	// (used by the plain OpenCL single-device execution paths).
	PlainGPU bool
	// ExtraStartupSec models one-time runtime overhead (e.g. Dopia's
	// model inference) added before execution begins.
	ExtraStartupSec float64
	// ChunkWGs is the WorkQueue scheduler's fixed chunk size in
	// work-groups (rounded to the allocation unit); 0 means NumWGs/16.
	ChunkWGs int
	// MinChunkWGs floors the HGuided scheduler's shrinking chunks;
	// 0 means one allocation unit.
	MinChunkWGs int
}

// HGuidedChunk is the HGuided chunk-size policy: an agent holding weight
// w out of sumW total observed throughput takes remaining*w/(2*sumW)
// work-groups, rounded down to the allocation unit and clamped to
// [minChunk, remaining]. It is monotone non-decreasing in w, so faster
// devices always take at least as much as slower ones.
func HGuidedChunk(remaining, unit, minChunk int, w, sumW float64) int {
	if remaining <= 0 {
		return 0
	}
	if unit < 1 {
		unit = 1
	}
	if minChunk < unit {
		minChunk = unit
	}
	c := 0
	if sumW > 0 && w > 0 {
		c = int(float64(remaining) * w / (2 * sumW))
	}
	c = (c / unit) * unit
	if c < minChunk {
		c = minChunk
	}
	if c > remaining {
		c = remaining
	}
	return c
}

// agent is one simulated agent's slot: a CPU core or the GPU. An agent
// executes one span at a time.
type agent struct {
	start, count int     // span being executed
	t0           float64 // when it started
	weight       float64 // HGuided's observed throughput
}

// scratch is what one simulation uses and drops: the fluid engine, its
// tasks and slices, and the agent table. Simulate takes one from
// scratchPool and puts it back on return, so however many goroutines
// simulate at once, a simulation allocates only its Result.
type scratch struct {
	fl     Fluid
	agents []agent
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Simulate runs one kernel execution on the machine under the given DoP
// configuration and distribution scheme.
func Simulate(m *Machine, km *KernelModel, cfg Config, dist Distribution, opts SimOptions) (*Result, error) {
	if !cfg.Valid() {
		return nil, fmt.Errorf("sim: configuration activates no device")
	}
	if km.NumWGs <= 0 {
		return nil, fmt.Errorf("sim: kernel model has no work-groups")
	}
	if opts.GPUChunkDiv <= 0 {
		opts.GPUChunkDiv = 10
	}

	res := &Result{}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	fl := &sc.fl
	fl.reset(m.Mem.BandwidthBs, opts.ExtraStartupSec)

	cpuCost := TaskCost{}
	if cfg.CPUCores > 0 {
		cpuCost = m.CPUWGCost(km, cfg)
	}

	// One slot per agent, cores first and the GPU last; a slot is its
	// agent's fluid owner.
	gpuSlot := cfg.CPUCores
	agents := append(sc.agents[:0], make([]agent, gpuSlot+1)...)
	sc.agents = agents
	gpuActive := cfg.GPUFrac > 0
	// begin starts the agent in slot on count work-groups from start.
	begin := func(slot, start, count int, cost TaskCost) {
		agents[slot].start, agents[slot].count, agents[slot].t0 = start, count, fl.Time
		fl.Add(slot, cost)
	}

	// The allocation unit: single work-groups for 1-D kernels, whole rows
	// of work-groups for 2-D kernels, so GPU chunks stay contiguous blocks
	// of rows.
	unit := km.GroupsPerRow
	if unit < 1 {
		unit = 1
	}

	switch dist {
	case Dynamic, WorkQueue, HGuided:
		next := 0
		chunk := km.NumWGs / opts.GPUChunkDiv
		if dist == WorkQueue {
			chunk = opts.ChunkWGs
			if chunk <= 0 {
				chunk = km.NumWGs / 16
			}
		}
		if chunk < unit {
			chunk = unit
		}
		chunk = (chunk / unit) * unit
		minChunk := opts.MinChunkWGs
		if minChunk < unit {
			minChunk = unit
		}
		minChunk = (minChunk / unit) * unit

		// HGuided tracks one throughput weight per agent, seeded from
		// the model's contention-free estimates and replaced by observed
		// WGs/sec as spans complete. Summing in slot order keeps replays
		// bit-identical.
		if dist == HGuided {
			for core := 0; core < cfg.CPUCores; core++ {
				if t := m.scaleCoreCost(cpuCost, core).AloneTime(); t > 0 {
					agents[core].weight = 1 / t
				}
			}
			if gpuActive {
				gcost, _ := m.gpuChunkCost(km, km.NumWGs, cfg, !opts.PlainGPU)
				if t := gcost.AloneTime(); t > 0 {
					agents[gpuSlot].weight = float64(km.NumWGs) / t
				}
			}
		}
		sumW := func() float64 {
			var s float64
			for i := range agents {
				s += agents[i].weight
			}
			return s
		}

		grabCPU := func(core int) bool {
			rem := km.NumWGs - next
			if rem <= 0 {
				return false
			}
			cnt := unit
			switch dist {
			case WorkQueue:
				cnt = chunk
			case HGuided:
				cnt = HGuidedChunk(rem, unit, minChunk, agents[core].weight, sumW())
			}
			if cnt > rem {
				cnt = rem
			}
			cost := m.scaleCoreCost(cpuCost, core)
			if cnt > 1 {
				cost = TaskCost{
					Compute:  cost.Compute * float64(cnt),
					Latency:  cost.Latency * float64(cnt),
					MemBytes: cost.MemBytes * float64(cnt),
					PeakBW:   cost.PeakBW,
				}
			}
			begin(core, next, cnt, cost)
			next += cnt
			return true
		}
		grabGPU := func() bool {
			rem := km.NumWGs - next
			if rem <= 0 {
				return false
			}
			count := chunk
			switch {
			case dist == Dynamic && opts.DecayChunks:
				count = rem / opts.GPUChunkDiv
				count = (count / unit) * unit
				if count < unit {
					count = unit
				}
			case dist == HGuided:
				count = HGuidedChunk(rem, unit, minChunk, agents[gpuSlot].weight, sumW())
			}
			if count > rem {
				count = rem
			}
			cost, trans := m.gpuChunkCost(km, count, cfg, !opts.PlainGPU)
			cost.Compute += m.GPU.DispatchSec
			res.Transactions += trans
			res.GPUChunks++
			begin(gpuSlot, next, count, cost)
			next += count
			return true
		}
		// The GPU is dispatched first: under Algorithm 1 its chunk is a
		// tenth of the whole workload, so letting the CPU threads drain
		// the worklist before the first push would starve the GPU on
		// small launches. The pull-based policies keep the same order for
		// determinism.
		if gpuActive {
			grabGPU()
		}
		for core := 0; core < cfg.CPUCores; core++ {
			grabCPU(core)
		}
		for {
			done, ok := fl.Step()
			if !ok {
				break
			}
			for _, slot := range done {
				span := &agents[slot]
				busy := fl.Time - span.t0
				if dist == HGuided && busy > 0 {
					span.weight = float64(span.count) / busy
				}
				if slot == gpuSlot {
					res.WGsGPU += span.count
					res.GPUBusy += busy
					if err := emitSpan(opts.OnSpan, "gpu", span.start, span.count); err != nil {
						return nil, err
					}
					grabGPU()
				} else {
					res.WGsCPU += span.count
					res.CPUBusy += busy
					if err := emitSpan(opts.OnSpan, "cpu", span.start, span.count); err != nil {
						return nil, err
					}
					grabCPU(slot)
				}
			}
		}
	case Static:
		share := opts.CPUShare
		if cfg.CPUCores == 0 {
			share = 0
		}
		if !gpuActive {
			share = 1
		}
		cpuWGs := int(share*float64(km.NumWGs) + 0.5)
		cpuWGs = (cpuWGs / unit) * unit
		if cpuWGs > km.NumWGs {
			cpuWGs = km.NumWGs
		}
		if share >= 1 {
			cpuWGs = km.NumWGs
		}
		gpuWGs := km.NumWGs - cpuWGs

		// CPU cores each process a contiguous slice, modeled as one task
		// scaled by the slice length (identical per-WG costs).
		start := 0
		for core := 0; core < cfg.CPUCores && cpuWGs > 0; core++ {
			cnt := cpuWGs / cfg.CPUCores
			if core < cpuWGs%cfg.CPUCores {
				cnt++
			}
			if cnt == 0 {
				continue
			}
			coreCost := m.scaleCoreCost(cpuCost, core)
			cost := TaskCost{
				Compute:  coreCost.Compute * float64(cnt),
				Latency:  coreCost.Latency * float64(cnt),
				MemBytes: coreCost.MemBytes * float64(cnt),
				PeakBW:   coreCost.PeakBW,
			}
			begin(core, start, cnt, cost)
			start += cnt
			res.WGsCPU += cnt
		}
		if gpuActive && gpuWGs > 0 {
			cost, trans := m.gpuChunkCost(km, gpuWGs, cfg, !opts.PlainGPU)
			cost.Compute += m.GPU.DispatchSec
			res.Transactions += trans
			res.GPUChunks++
			begin(gpuSlot, start, gpuWGs, cost)
			res.WGsGPU += gpuWGs
		}
		for {
			done, ok := fl.Step()
			if !ok {
				break
			}
			for _, slot := range done {
				span := agents[slot]
				busy := fl.Time - span.t0
				dev := "cpu"
				if slot == gpuSlot {
					dev = "gpu"
					res.GPUBusy += busy
				} else {
					res.CPUBusy += busy
				}
				if err := emitSpan(opts.OnSpan, dev, span.start, span.count); err != nil {
					return nil, err
				}
			}
		}
	default:
		return nil, fmt.Errorf("sim: unknown distribution %d", dist)
	}

	res.Time = fl.Time
	// DRAM bytes: CPU traffic plus GPU traffic.
	res.DRAMBytes = cpuCost.MemBytes*float64(res.WGsCPU) + res.Transactions*64
	if res.WGsCPU+res.WGsGPU != km.NumWGs {
		return nil, fmt.Errorf("sim: internal error: %d+%d work-groups executed, want %d",
			res.WGsCPU, res.WGsGPU, km.NumWGs)
	}
	if math.IsNaN(res.Time) || math.IsInf(res.Time, 0) {
		return nil, fmt.Errorf("sim: non-finite simulated time")
	}
	return res, nil
}

func emitSpan(fn SpanFunc, dev string, start, count int) error {
	if fn == nil {
		return nil
	}
	return fn(dev, start, count)
}
