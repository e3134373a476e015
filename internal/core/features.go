// Package core is Dopia itself: the online parallelism-management
// framework of the paper. At program-creation time it statically analyzes
// each kernel; at enqueue time it checks that the kernel has a malleable
// GPU form (transform.Check), whose throttling the simulator charges as
// timing while GPU spans run the original kernel, combines the static
// code features with the launch geometry (Table 1), evaluates the
// trained ML model over the machine's 44 degree-of-parallelism
// configurations, and executes the kernel with the predicted best
// configuration using dynamic CPU/GPU workload distribution (Algorithm 1). All runtime overhead — model inference included — is
// charged to the simulated clock, as in the paper's evaluation.
package core

import (
	"dopia/internal/analysis"
	"dopia/internal/interp"
	"dopia/internal/ml"
	"dopia/internal/sim"
)

// BaseFeatures builds the configuration-independent part of the Table 1
// feature vector: the static code features plus the launch geometry.
func BaseFeatures(res *analysis.Result, nd interp.NDRange) ml.Features {
	var f ml.Features
	f[ml.FMemConstant] = float64(res.MemConstant)
	f[ml.FMemContinuous] = float64(res.MemContinuous)
	f[ml.FMemStride] = float64(res.MemStride)
	f[ml.FMemRandom] = float64(res.MemRandom)
	f[ml.FArithInt] = float64(res.ArithInt)
	f[ml.FArithFloat] = float64(res.ArithFloat)
	f[ml.FWorkDim] = float64(nd.Dims)
	f[ml.FGlobalSize] = float64(nd.TotalItems())
	f[ml.FLocalSize] = float64(nd.GroupSize())
	return f
}

// WithConfig completes a base feature vector with the normalized CPU and
// GPU allocations of a candidate configuration.
func WithConfig(base ml.Features, m *sim.Machine, cfg sim.Config) ml.Features {
	f := base
	f[ml.FCPUUtil] = m.CPUUtil(cfg)
	f[ml.FGPUUtil] = cfg.GPUFrac
	return f
}
