// Package sim is the integrated CPU/GPU architecture performance
// simulator. It substitutes for the AMD Kaveri and Intel Skylake silicon
// the Dopia paper evaluates on: kernels execute functionally in
// internal/interp, and this package charges simulated time from their
// operation and memory statistics using three mechanisms that drive the
// paper's results:
//
//  1. GPU memory coalescing — across-lane access patterns determine how
//     many memory transactions each access costs (internal/mem).
//  2. A working-set cache model — reuse survives only while the combined
//     working set of all concurrently active threads fits in the cache,
//     so raising the GPU's degree of parallelism converts reuse hits into
//     DRAM traffic (the paper's Figure 3b).
//  3. A fluid shared-DRAM model — CPU cores and the GPU share the
//     off-chip bandwidth by processor sharing with per-agent caps, so
//     oversubscribing one device slows the other (Figure 1).
package sim

// CPUConfig describes the CPU side of an integrated processor.
type CPUConfig struct {
	Cores    int     // schedulable compute units (threads for SMT parts)
	FreqHz   float64 // clock
	CPIInt   float64 // cycles per integer ALU op
	CPIFloat float64 // cycles per floating-point op
	CacheB   int64   // per-core private cache (effective, bytes)
	CoreBWBs float64 // single core's max DRAM bandwidth (bytes/s)
	MLP      float64 // memory-level parallelism for latency overlap

	// LittleCores marks the last LittleCores of Cores as efficiency
	// cores on big.LITTLE-style asymmetric parts. A DoP configuration
	// activates big cores first, so small CPUCores settings run on the
	// fast cluster only.
	LittleCores int
	// LittleSlow is the slowdown factor of a little core relative to a
	// big one (compute and latency stretch by it, sustainable bandwidth
	// shrinks by it). Values <= 1 mean symmetric cores.
	LittleSlow float64
}

// CoreSlow returns the slowdown factor of a CPU core index under the
// big-cores-first numbering: 1 for big cores, LittleSlow for the
// efficiency cluster.
func (m *Machine) CoreSlow(core int) float64 {
	cpu := m.CPU
	if cpu.LittleCores <= 0 || cpu.LittleSlow <= 1 {
		return 1
	}
	if core >= cpu.Cores-cpu.LittleCores {
		return cpu.LittleSlow
	}
	return 1
}

// GPUConfig describes the GPU side.
type GPUConfig struct {
	CUs       int     // compute units
	PEsPerCU  int     // processing elements per CU
	FreqHz    float64 // clock
	SIMDWidth int     // lanes coalesced per memory transaction
	CPIInt    float64
	CPIFloat  float64
	CacheB    int64   // GPU-side shared cache (L2/L3, bytes)
	Residency float64 // hardware threads in flight per active PE
	// PEBWBs is the DRAM bandwidth one active PE can sustain (bytes/s):
	// a partially-throttled GPU cannot keep enough requests in flight to
	// saturate the memory system.
	PEBWBs float64
	// StridedPenalty is the bandwidth overhead factor of uncoalesced
	// (lane-strided) access streams even when every fetched line is
	// eventually consumed: partial-line transactions and DRAM row
	// thrashing waste effective bandwidth.
	StridedPenalty float64
	// MalleableCyc is the per-work-item overhead of Dopia's dynamic
	// worklist (one local atomic + index recomputation).
	MalleableCyc float64
	// DispatchSec is the host-side cost of enqueueing one kernel chunk.
	DispatchSec float64

	// LocalBWBs, when > 0, marks a discrete GPU with private device
	// memory of this bandwidth: kernel traffic is served locally instead
	// of from the shared DRAM, and each chunk's buffer footprint crosses
	// PCIe instead (paced by PCIeBWBs inside the shared fluid model,
	// plus PCIeLatSec of bus setup per chunk).
	LocalBWBs  float64
	PCIeBWBs   float64
	PCIeLatSec float64
}

// Discrete reports whether the GPU sits across a PCIe bus with its own
// device memory.
func (g *GPUConfig) Discrete() bool { return g.LocalBWBs > 0 }

// MemConfig describes the shared memory system.
type MemConfig struct {
	BandwidthBs float64 // peak DRAM bandwidth, bytes/s
	LatencySec  float64 // uncontended access latency
	SharedLLCB  int64   // shared last-level cache (0 = none); Intel parts
	// GPULLCWeight is how many CPU-core-equivalents of LLC pressure the
	// GPU exerts when active (for LLC partitioning between agents).
	GPULLCWeight float64
}

// Machine is a complete integrated-architecture description.
type Machine struct {
	Name string
	CPU  CPUConfig
	GPU  GPUConfig
	Mem  MemConfig

	// The DoP configuration space of Table 3.
	CPUSteps []int     // allowed active-core counts (includes 0)
	GPUSteps []float64 // allowed PE fractions (includes 0)
}

// TotalPEs returns the number of GPU processing elements.
func (m *Machine) TotalPEs() int { return m.GPU.CUs * m.GPU.PEsPerCU }

// Kaveri returns the model of the AMD A10-7850K APU used in the paper:
// a quad-core Steamroller CPU at 3.7 GHz and a GCN GPU with 8 CUs of
// 64 PEs at 720 MHz sharing dual-channel DDR3.
func Kaveri() *Machine {
	return &Machine{
		Name: "Kaveri",
		CPU: CPUConfig{
			Cores:    4,
			FreqHz:   3.7e9,
			CPIInt:   0.25,    // superscalar + SIMD address arithmetic
			CPIFloat: 0.35,    // 128-bit vector FP
			CacheB:   1 << 20, // 2 MiB L2 per two-core module
			CoreBWBs: 3.5e9,   // four cores together cannot saturate DDR3
			MLP:      8,
		},
		GPU: GPUConfig{
			CUs:            8,
			PEsPerCU:       64,
			FreqHz:         720e6,
			SIMDWidth:      16,
			CPIInt:         1.0,
			CPIFloat:       1.0,
			CacheB:         512 << 10,
			Residency:      10,
			PEBWBs:         80e6,
			StridedPenalty: 2.0,
			MalleableCyc:   8,
			DispatchSec:    30e-6,
		},
		Mem: MemConfig{
			BandwidthBs:  21e9,
			LatencySec:   120e-9,
			SharedLLCB:   0,
			GPULLCWeight: 8,
		},
		CPUSteps: []int{0, 1, 2, 3, 4},
		GPUSteps: gpuFractions(),
	}
}

// Skylake returns the model of the Intel i7-6700 used in the paper: a
// quad-core/eight-thread CPU at 3.4 GHz with a shared 8 MiB LLC and a
// Gen9 GPU with 24 CUs of 32 PEs, on dual-channel DDR4.
func Skylake() *Machine {
	return &Machine{
		Name: "Skylake",
		CPU: CPUConfig{
			Cores:    8, // hardware threads; Table 3 steps by two
			FreqHz:   3.4e9,
			CPIInt:   0.25, // per SMT thread
			CPIFloat: 0.3,  // 256-bit vector FP shared between threads
			CacheB:   256 << 10,
			CoreBWBs: 3e9, // per SMT thread; pairs share a core's bandwidth
			MLP:      10,
		},
		GPU: GPUConfig{
			CUs:            24,
			PEsPerCU:       32,
			FreqHz:         1.15e9,
			SIMDWidth:      8,
			CPIInt:         1.0,
			CPIFloat:       1.0,
			CacheB:         768 << 10,
			Residency:      7,
			PEBWBs:         50e6,
			StridedPenalty: 1.8,
			MalleableCyc:   8,
			DispatchSec:    15e-6,
		},
		Mem: MemConfig{
			BandwidthBs:  28e9,
			LatencySec:   80e-9,
			SharedLLCB:   8 << 20,
			GPULLCWeight: 8,
		},
		CPUSteps: []int{0, 2, 4, 6, 8},
		GPUSteps: gpuFractions(),
	}
}

func gpuFractions() []float64 {
	out := make([]float64, 0, 9)
	for i := 0; i <= 8; i++ {
		out = append(out, float64(i)/8)
	}
	return out
}

// Config is one degree-of-parallelism choice: how many CPU cores and what
// fraction of each CU's PEs are active.
type Config struct {
	CPUCores int
	GPUFrac  float64
}

// Valid reports whether the configuration activates at least one device.
func (c Config) Valid() bool { return c.CPUCores > 0 || c.GPUFrac > 0 }

// Configs enumerates the machine's DoP configuration space (Table 3),
// excluding the all-idle configuration — 44 entries for both evaluated
// machines. It allocates once, for the whole grid.
func (m *Machine) Configs() []Config {
	out := make([]Config, 0, len(m.CPUSteps)*len(m.GPUSteps))
	for _, c := range m.CPUSteps {
		for _, g := range m.GPUSteps {
			cfg := Config{CPUCores: c, GPUFrac: g}
			if cfg.Valid() {
				out = append(out, cfg)
			}
		}
	}
	return out
}

// CPUOnly returns the all-CPU configuration.
func (m *Machine) CPUOnly() Config { return Config{CPUCores: m.CPU.Cores} }

// GPUOnly returns the all-GPU configuration.
func (m *Machine) GPUOnly() Config { return Config{GPUFrac: 1} }

// AllResources returns the configuration using every core of both devices.
func (m *Machine) AllResources() Config {
	return Config{CPUCores: m.CPU.Cores, GPUFrac: 1}
}

// CPUUtil returns the normalized CPU allocation of a configuration.
func (m *Machine) CPUUtil(c Config) float64 {
	if m.CPU.Cores == 0 {
		return 0
	}
	return float64(c.CPUCores) / float64(m.CPU.Cores)
}

// ActivePEs returns the number of active PEs per CU under a configuration.
func (m *Machine) ActivePEs(c Config) int {
	n := int(c.GPUFrac*float64(m.GPU.PEsPerCU) + 0.5)
	if c.GPUFrac > 0 && n == 0 {
		n = 1
	}
	return n
}

// DopParams returns the malleable-kernel throttling parameters
// (dop_gpu_mod, dop_gpu_alloc) that realize a GPU fraction. The mod is 8,
// matching Table 3's 1/8 allocation granularity.
func DopParams(frac float64) (mod, alloc int64) {
	mod = 8
	alloc = int64(frac*8 + 0.5)
	if frac > 0 && alloc == 0 {
		alloc = 1
	}
	if alloc > mod {
		alloc = mod
	}
	return mod, alloc
}
