package sim

import (
	"dopia/internal/access"
	"dopia/internal/mem"
)

// TaskCost is the resource demand of one schedulable unit of work: pure
// compute seconds, memory-latency stall seconds (which stretch under DRAM
// congestion), and DRAM bytes to move (which are served by the shared
// fluid bandwidth model, capped at PeakBW for this agent).
type TaskCost struct {
	Compute  float64
	Latency  float64
	MemBytes float64
	PeakBW   float64
}

// Plus returns the sum of two costs (PeakBW of the receiver wins).
func (c TaskCost) Plus(o TaskCost) TaskCost {
	return TaskCost{
		Compute:  c.Compute + o.Compute,
		Latency:  c.Latency + o.Latency,
		MemBytes: c.MemBytes + o.MemBytes,
		PeakBW:   c.PeakBW,
	}
}

// AloneTime returns the task's execution time with no DRAM contention.
func (c TaskCost) AloneTime() float64 {
	t := c.Compute + c.Latency
	if c.PeakBW > 0 {
		if m := c.MemBytes / c.PeakBW; m > t {
			return m
		}
	}
	return t
}

// scaleCoreCost adjusts a per-work-group CPU cost for the core that will
// run it: efficiency cores stretch compute and latency by the slowdown
// factor and sustain proportionally less bandwidth.
func (m *Machine) scaleCoreCost(c TaskCost, core int) TaskCost {
	s := m.CoreSlow(core)
	if s <= 1 {
		return c
	}
	c.Compute *= s
	c.Latency *= s
	c.PeakBW /= s
	return c
}

// llcAgents returns the number of LLC-sharing agents for cache
// partitioning on machines with a shared last-level cache.
func (m *Machine) llcAgents(cfg Config) float64 {
	a := float64(cfg.CPUCores)
	if cfg.GPUFrac > 0 {
		a += m.Mem.GPULLCWeight * cfg.GPUFrac
	}
	if a < 1 {
		a = 1
	}
	return a
}

// cpuCacheAvail returns the cache capacity one CPU core can count on.
func (m *Machine) cpuCacheAvail(cfg Config) float64 {
	avail := float64(m.CPU.CacheB)
	if m.Mem.SharedLLCB > 0 {
		avail += float64(m.Mem.SharedLLCB) / m.llcAgents(cfg)
	}
	return avail
}

// gpuCacheAvail returns the cache capacity backing the GPU.
func (m *Machine) gpuCacheAvail(cfg Config) float64 {
	avail := float64(m.GPU.CacheB)
	if m.Mem.SharedLLCB > 0 {
		w := m.Mem.GPULLCWeight * cfg.GPUFrac
		avail += float64(m.Mem.SharedLLCB) * w / m.llcAgents(cfg)
	}
	return avail
}

// CPUWGCost returns the cost of executing one work-group on one CPU core
// under the given machine-wide configuration (the configuration determines
// how much shared cache the core can use).
func (m *Machine) CPUWGCost(km *KernelModel, cfg Config) TaskCost {
	cpu := m.CPU
	cost := TaskCost{PeakBW: cpu.CoreBWBs}
	cost.Compute = (km.AluIntPerWG*cpu.CPIInt + km.AluFloatPerWG*cpu.CPIFloat) / cpu.FreqHz

	avail := m.cpuCacheAvail(cfg)
	numWGs := float64(km.NumWGs)
	if numWGs < 1 {
		numWGs = 1
	}
	for _, s := range km.Sites {
		acc := s.AccPerWG
		es := float64(s.ElemSize)
		bytes := acc * es
		switch s.Iter {
		case access.Constant:
			// Register/L1-resident after first touch.
		case access.Continuous, access.Strided:
			factor := mem.CPUStreamFactor(s.Iter, s.IterStride, s.ElemSize)
			if s.SharedAcrossWI {
				// Lane-constant data (e.g. the x vector of a mat-vec
				// product) is re-read by every work-item; once resident it
				// stays hot, so only the cold fetch is paid, amortized over
				// the work-groups each core processes.
				tf := mem.ThrashFraction(s.DistinctPerWI, avail)
				cores := float64(cfg.CPUCores)
				if cores < 1 {
					cores = 1
				}
				cold := s.DistinctPerWI * cores / numWGs
				cost.MemBytes += cold*(1-tf) + bytes*factor*tf
			} else {
				cost.MemBytes += bytes * factor
			}
		default: // Random
			missR := mem.RandomMissRatio(s.BufBytes, avail)
			misses := acc * missR
			cost.MemBytes += misses * mem.LineSize
			cost.Latency += misses * m.Mem.LatencySec / cpu.MLP
		}
	}
	return cost
}

func (m *Machine) gpuChunkCost(km *KernelModel, wgs int, cfg Config, malleable bool) (TaskCost, float64) {
	gpu := m.GPU
	apes := m.ActivePEs(cfg)
	if apes <= 0 {
		return TaskCost{}, 0
	}
	T := float64(gpu.CUs * apes)
	tRes := T * gpu.Residency
	items := float64(wgs * km.WGSize)

	cost := TaskCost{PeakBW: m.Mem.BandwidthBs}
	if gpu.PEBWBs > 0 {
		if cap := float64(gpu.CUs*apes) * gpu.PEBWBs; cap < cost.PeakBW {
			cost.PeakBW = cap
		}
	}
	cyc := km.AluIntPerWI()*gpu.CPIInt + km.AluFloatPerWI()*gpu.CPIFloat
	if malleable {
		cyc += gpu.MalleableCyc
	}
	cost.Compute = items * cyc / (T * gpu.FreqHz)

	avail := m.gpuCacheAvail(cfg)

	// Working set: shared footprints plus per-thread streaming windows.
	var ws float64
	for _, s := range km.Sites {
		if s.SharedAcrossWI {
			ws += s.DistinctPerWI
			continue
		}
		switch s.Lane {
		case access.Continuous, access.Constant:
			ws += tRes * mem.LineSize / float64(gpu.SIMDWidth)
		default: // strided / random: a private line per thread
			ws += tRes * mem.LineSize
		}
	}
	thrash := mem.ThrashFraction(ws, avail)

	var traffic float64
	chunkShare := float64(wgs) / float64(km.NumWGs)
	for _, s := range km.Sites {
		acc := s.AccPerWG * float64(wgs)
		es := float64(s.ElemSize)
		bytes := acc * es
		coal := mem.CoalesceFactor(s.Lane, s.LaneStride, s.ElemSize, gpu.SIMDWidth)
		trans := acc * coal
		worst := trans * mem.LineSize

		switch {
		case s.Iter == access.Constant && s.Lane != access.Random:
			// The address is fixed per work-item (e.g. a loop bound like
			// rowptr[i+1] re-read every iteration): after the first touch
			// the value lives in a register, so only the cold fetch of
			// each work-item's element is paid, at the lane pattern's
			// coalescing.
			traffic += float64(wgs*km.WGSize) * coal * mem.LineSize
		case s.Lane == access.Constant:
			// Broadcast data: reusable shared footprint.
			cold := s.DistinctPerWI * chunkShare
			traffic += cold*(1-thrash) + worst*thrash
		case s.Lane == access.Continuous:
			// Perfectly coalesced stream: every fetched byte is used.
			traffic += bytes
		case s.Iter == access.Continuous &&
			(s.Lane == access.Strided || s.Lane == access.Random):
			// Each lane streams its own region (matrix rows, CSR row
			// segments): a fetched line is fully consumed over the
			// following iterations iff it survives in cache until then.
			// Even then, partial-line transactions and DRAM row thrashing
			// make the scattered streams pay a bandwidth penalty.
			ideal := bytes * gpu.StridedPenalty
			if ideal > worst {
				ideal = worst
			}
			traffic += ideal*(1-thrash) + worst*thrash
		case s.Iter == access.Random || s.Lane == access.Random:
			missR := mem.RandomMissRatio(s.BufBytes, avail*(1-thrash))
			cold := minf(s.BufBytes, bytes) * chunkShare
			traffic += trans*mem.LineSize*missR + cold*(1-missR)
		default:
			traffic += worst
		}
	}
	if traffic < 0 {
		traffic = 0
	}
	if gpu.Discrete() {
		// Discrete GPU: the kernel's DRAM traffic is served by the card's
		// private memory (folded into compute — it does not contend with
		// the host's shared DRAM). What the shared fluid sees instead is
		// the chunk's buffer footprint crossing PCIe, paced by the bus,
		// plus a fixed bus-setup latency per chunk — which makes the
		// number of chunks a first-order scheduling cost on this machine.
		cost.Compute += traffic/gpu.LocalBWBs + gpu.PCIeLatSec
		cost.MemBytes = km.chunkFootprint(wgs)
		cost.PeakBW = gpu.PCIeBWBs
		if cost.PeakBW <= 0 || cost.PeakBW > m.Mem.BandwidthBs {
			cost.PeakBW = m.Mem.BandwidthBs
		}
	} else {
		cost.MemBytes = traffic
	}
	return cost, traffic / mem.LineSize
}

// chunkFootprint estimates the distinct buffer bytes a chunk of
// work-groups touches — the data a discrete GPU must move across PCIe to
// execute it. Shared (lane-constant) footprints are charged whole per
// chunk: every chunk needs the broadcast data resident.
func (km *KernelModel) chunkFootprint(wgs int) float64 {
	var b float64
	items := float64(wgs * km.WGSize)
	for _, s := range km.Sites {
		if s.SharedAcrossWI {
			b += s.DistinctPerWI
			continue
		}
		d := s.DistinctPerWI * items
		if s.BufBytes > 0 && d > s.BufBytes {
			d = s.BufBytes
		}
		b += d
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
