package sim

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the machine zoo: architecture descriptions beyond the two
// parts the paper evaluates on. Each machine has its own crossover shapes
// in the DoP space — the big.LITTLE part punishes wide static CPU splits
// (the efficiency cluster lags the fast one), the discrete-GPU part
// charges every chunk a PCIe transfer (so chunk count becomes a first-
// order cost), and the Apple-M-like SoC has so much bandwidth that DRAM
// contention almost never throttles co-execution.

// BigLittle returns a model of a big.LITTLE-style mobile SoC: four fast
// cores plus four efficiency cores at ~2.5x the per-op cost and a third
// of the sustainable bandwidth, with a wide mobile GPU on LPDDR5. DoP
// steps activate the big cluster first.
func BigLittle() *Machine {
	return &Machine{
		Name: "BigLittle",
		CPU: CPUConfig{
			Cores:       8,
			FreqHz:      2.8e9,
			CPIInt:      0.25,
			CPIFloat:    0.4,
			CacheB:      512 << 10,
			CoreBWBs:    3e9,
			MLP:         6,
			LittleCores: 4,
			LittleSlow:  2.5,
		},
		GPU: GPUConfig{
			CUs:            2,
			PEsPerCU:       128,
			FreqHz:         800e6,
			SIMDWidth:      32,
			CPIInt:         1.0,
			CPIFloat:       1.0,
			CacheB:         1 << 20,
			Residency:      8,
			PEBWBs:         60e6,
			StridedPenalty: 2.2,
			MalleableCyc:   8,
			DispatchSec:    20e-6,
		},
		Mem: MemConfig{
			BandwidthBs:  30e9,
			LatencySec:   140e-9,
			SharedLLCB:   3 << 20,
			GPULLCWeight: 6,
		},
		CPUSteps: []int{0, 2, 4, 6, 8},
		GPUSteps: gpuFractions(),
	}
}

// DiscretePCIe returns a model of a desktop hybrid CPU (four performance
// plus four efficiency cores, Alder-Lake style) paired with a mid-range
// discrete GPU: the GPU runs out of its own 200 GB/s GDDR, but every
// chunk's buffer footprint must cross a 12 GB/s PCIe link that contends
// with the CPU for host DRAM, plus a fixed bus-setup latency per chunk.
func DiscretePCIe() *Machine {
	return &Machine{
		Name: "DiscretePCIe",
		CPU: CPUConfig{
			Cores:       8,
			FreqHz:      3.6e9,
			CPIInt:      0.25,
			CPIFloat:    0.3,
			CacheB:      512 << 10,
			CoreBWBs:    4e9,
			MLP:         10,
			LittleCores: 4,
			LittleSlow:  2.0,
		},
		GPU: GPUConfig{
			CUs:            20,
			PEsPerCU:       64,
			FreqHz:         1.4e9,
			SIMDWidth:      32,
			CPIInt:         1.0,
			CPIFloat:       1.0,
			CacheB:         2 << 20,
			Residency:      10,
			PEBWBs:         100e6,
			StridedPenalty: 1.8,
			MalleableCyc:   8,
			DispatchSec:    40e-6,
			LocalBWBs:      200e9,
			PCIeBWBs:       12e9,
			PCIeLatSec:     5e-6,
		},
		Mem: MemConfig{
			BandwidthBs: 35e9,
			LatencySec:  90e-9,
			SharedLLCB:  12 << 20,
			// The discrete GPU has its own cache hierarchy and exerts no
			// pressure on the host LLC.
			GPULLCWeight: 0,
		},
		CPUSteps: []int{0, 2, 4, 6, 8},
		GPUSteps: gpuFractions(),
	}
}

// AppleM returns a model of an Apple-M-like unified-memory SoC: four
// performance plus four efficiency cores, a wide on-die GPU, and a
// 68 GB/s fabric behind a 16 MiB system-level cache — bandwidth so
// plentiful that co-execution rarely self-throttles.
func AppleM() *Machine {
	return &Machine{
		Name: "AppleM",
		CPU: CPUConfig{
			Cores:       8,
			FreqHz:      3.2e9,
			CPIInt:      0.2,
			CPIFloat:    0.25,
			CacheB:      3 << 20,
			CoreBWBs:    20e9,
			MLP:         16,
			LittleCores: 4,
			LittleSlow:  3.0,
		},
		GPU: GPUConfig{
			CUs:            8,
			PEsPerCU:       128,
			FreqHz:         1.28e9,
			SIMDWidth:      32,
			CPIInt:         1.0,
			CPIFloat:       1.0,
			CacheB:         4 << 20,
			Residency:      12,
			PEBWBs:         120e6,
			StridedPenalty: 1.5,
			MalleableCyc:   6,
			DispatchSec:    5e-6,
		},
		Mem: MemConfig{
			BandwidthBs:  68e9,
			LatencySec:   100e-9,
			SharedLLCB:   16 << 20,
			GPULLCWeight: 8,
		},
		CPUSteps: []int{0, 2, 4, 6, 8},
		GPUSteps: gpuFractions(),
	}
}

// Zoo returns every built-in machine description: the paper's two
// evaluation parts plus the three zoo architectures.
func Zoo() []*Machine {
	return []*Machine{Kaveri(), Skylake(), BigLittle(), DiscretePCIe(), AppleM()}
}

// ZooNames returns the built-in machine names in Zoo order.
func ZooNames() []string {
	ms := Zoo()
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

// MachineByName returns a fresh instance of a built-in machine,
// case-insensitively.
func MachineByName(name string) (*Machine, error) {
	for _, m := range Zoo() {
		if strings.EqualFold(m.Name, name) {
			return m, nil
		}
	}
	names := ZooNames()
	sort.Strings(names)
	return nil, fmt.Errorf("sim: unknown machine %q (have %s)",
		name, strings.Join(names, ", "))
}

// ZooDopParams returns the distinct malleable-kernel throttling parameters
// {dop_gpu_mod, dop_gpu_alloc} (DopParams) of the zoo machines'
// configurations that give the GPU work, in zoo and configuration order.
func ZooDopParams() [][2]int64 {
	var out [][2]int64
	seen := map[[2]int64]bool{}
	for _, m := range Zoo() {
		for _, cfg := range m.Configs() {
			if cfg.GPUFrac == 0 {
				continue
			}
			mod, alloc := DopParams(cfg.GPUFrac)
			if p := [2]int64{mod, alloc}; !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	return out
}
