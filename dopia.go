// Package dopia is a from-scratch Go reproduction of "Dopia: Online
// Parallelism Management for Integrated CPU/GPU Architectures" (PPoPP
// 2022). It bundles an OpenCL C front-end, a functional kernel
// interpreter, an integrated CPU/GPU architecture performance simulator
// (standing in for the paper's AMD Kaveri and Intel Skylake silicon),
// Dopia's static analysis, malleable code generation, ML-based
// degree-of-parallelism selection, and dynamic CPU/GPU workload
// distribution.
//
// The public API re-exports the pieces a downstream user needs:
//
//	machine := dopia.Kaveri()
//	platform := dopia.NewPlatform(machine)
//	ctx := platform.CreateContext()
//
//	train, _ := dopia.DefaultTrainingSet.Workloads()
//	model, _ := dopia.TrainDefaultModel(machine, train)
//	fw := dopia.NewFramework(machine, model)
//	fw.Attach(ctx) // every EnqueueNDRangeKernel is now Dopia-managed
//
//	prog := ctx.CreateProgramWithSource(src)
//	_ = prog.Build()
//	kern, _ := prog.CreateKernel("gesummv")
//	...
//	q := ctx.CreateCommandQueue(platform.Device(dopia.DeviceCPU))
//	_ = q.EnqueueNDRangeKernel(kern, dopia.ND1(n, 256))
//
// See the examples/ directory for complete programs and DESIGN.md for the
// system inventory and the hardware-substitution rationale.
package dopia

import (
	"io"

	"dopia/internal/core"
	"dopia/internal/faults"
	"dopia/internal/interp"
	"dopia/internal/ml"
	"dopia/internal/ocl"
	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// Re-exported machine models and configuration types.

// Machine describes an integrated CPU/GPU processor.
type Machine = sim.Machine

// Config is one degree-of-parallelism choice.
type Config = sim.Config

// Result is the outcome of one simulated kernel execution.
type Result = sim.Result

// Kaveri returns the AMD A10-7850K machine model of the paper.
func Kaveri() *Machine { return sim.Kaveri() }

// Skylake returns the Intel i7-6700 machine model of the paper.
func Skylake() *Machine { return sim.Skylake() }

// Re-exported OpenCL-style runtime.

// Platform is an OpenCL platform over a machine model.
type Platform = ocl.Platform

// Context owns buffers, programs, and queues.
type Context = ocl.Context

// Program is an OpenCL program object.
type Program = ocl.Program

// Kernel is a kernel object with bound arguments.
type Kernel = ocl.Kernel

// Buffer is a device-visible memory object.
type Buffer = ocl.Buffer

// CommandQueue executes launches and accounts simulated time.
type CommandQueue = ocl.CommandQueue

// DeviceType selects the CPU or GPU device.
type DeviceType = ocl.DeviceType

// Device types.
const (
	DeviceCPU = ocl.DeviceCPU
	DeviceGPU = ocl.DeviceGPU
)

// NewPlatform creates a platform over a machine model.
func NewPlatform(m *Machine) *Platform { return ocl.NewPlatform(m) }

// Re-exported launch geometry.

// NDRange describes an OpenCL index space.
type NDRange = interp.NDRange

// ND1 builds a one-dimensional ND range.
func ND1(global, local int) NDRange { return interp.ND1(global, local) }

// ND2 builds a two-dimensional ND range.
func ND2(gx, gy, lx, ly int) NDRange { return interp.ND2(gx, gy, lx, ly) }

// Re-exported Dopia framework.

// Framework is a Dopia instance: per-kernel analysis and transformation
// caches plus the runtime DoP selection and co-execution engine.
type Framework = core.Framework

// Model predicts normalized performance from Table 1 features.
type Model = ml.Model

// NewFramework creates a Dopia framework for a machine. model may be nil,
// in which case launches use all resources (no DoP management).
func NewFramework(m *Machine, model Model) *Framework { return core.New(m, model) }

// NewFrameworkFromModelFile creates a framework whose model is loaded
// from a file, failing open: on a load/validation failure the framework
// still works (ALL baseline), the failure is recorded in its
// FallbackStats, and the error is returned for observability.
func NewFrameworkFromModelFile(m *Machine, path string) (*Framework, error) {
	return core.NewFromModelFile(m, path)
}

// Fail-open interposition: the attached framework degrades every launch
// down a fallback ladder (full Dopia → ALL co-execution → plain runtime)
// instead of failing the application. These re-exports let downstream
// users observe the ladder and classify failures.

// FallbackStats counts how interposed launches moved through the
// fail-open ladder. Framework.Stats holds the per-framework aggregate;
// CommandQueue.Fallback the per-queue view.
type FallbackStats = faults.FallbackStats

// FallbackSnapshot is a copyable view of a FallbackStats.
type FallbackSnapshot = faults.Snapshot

// FailureStage identifies the pipeline stage a degradation originated in.
type FailureStage = faults.Stage

// Pipeline stages (see internal/faults for the full taxonomy).
const (
	StageParse        = faults.StageParse
	StageAnalysis     = faults.StageAnalysis
	StageTransform    = faults.StageTransform
	StageCompile      = faults.StageCompile
	StageModelLoad    = faults.StageModelLoad
	StageModelPredict = faults.StageModelPredict
	StageExec         = faults.StageExec
	// StageUnknown marks errors no pipeline stage claimed.
	StageUnknown = faults.StageUnknown
)

// Classified failure sentinels, matchable with errors.Is.
var (
	ErrUnsupportedKernel = faults.ErrUnsupportedKernel
	ErrTransformFailed   = faults.ErrTransformFailed
	ErrModelInvalid      = faults.ErrModelInvalid
	ErrExecTimeout       = faults.ErrExecTimeout
	ErrPanicContained    = faults.ErrPanic
)

// FailureStageOf classifies an error returned by any Dopia API by
// pipeline stage ("unknown" when unclassified).
func FailureStageOf(err error) FailureStage { return faults.StageOf(err) }

// Workload is a benchmark kernel plus its input recipe.
type Workload = workloads.Workload

// SyntheticWorkloads returns the paper's 1,224-workload training grid
// (Table 4).
func SyntheticWorkloads() ([]*Workload, error) { return workloads.SyntheticGrid() }

// RealWorkloads returns the paper's fourteen real-world kernels at
// problem size n with the given work-group size.
func RealWorkloads(n, wg int) ([]*Workload, error) { return workloads.RealWorkloads(n, wg) }

// Characterization is a workload's full DoP profile: the simulated time
// of every configuration, the best configuration, and the Table 1 base
// features. Use Perf(cfg) for normalized performance and Time(cfg) for
// raw simulated seconds.
type Characterization = core.WorkloadEval

// Characterize profiles a workload and simulates every DoP configuration
// of the machine (the paper's exhaustive-search oracle for one workload).
func Characterize(m *Machine, w *Workload) (*Characterization, error) {
	return core.EvaluateWorkload(m, w)
}

// DefaultTrainingSet is the one set every shipped model trains on: 48
// workloads spread over the synthetic grid, then the fourteen real kernels
// at n = 1024, 256 and 64. No tool takes another set; a different set is
// a change to this value, reviewed through the decision golden.
var DefaultTrainingSet = core.DefaultTrainingSet

// TrainDefaultModel characterizes the given workloads on the machine and
// fits the paper's deployed model family (a decision tree). Pass the
// synthetic grid for the paper's training setup; smaller sets train
// proportionally faster.
func TrainDefaultModel(m *Machine, wls []*Workload) (Model, error) {
	evals, err := core.EvaluateAll(m, wls, 0)
	if err != nil {
		return nil, err
	}
	return core.Train(m, ml.TreeTrainer{}, evals)
}

// MachineFromJSON parses a custom machine description (see
// internal/sim.MachineJSON for the schema and examples/custommachine for a
// complete example).
func MachineFromJSON(r io.Reader) (*Machine, error) { return sim.MachineFromJSON(r) }

// LoadMachine reads a machine description from a JSON file.
func LoadMachine(path string) (*Machine, error) { return sim.LoadMachine(path) }

// SaveMachine writes a machine description to a JSON file.
func SaveMachine(path string, m *Machine) error { return sim.SaveMachine(path, m) }

// SaveModelFile persists a trained model; LoadModelFile restores it.
func SaveModelFile(path string, m Model) error { return ml.SaveModelFile(path, m) }

// LoadModelFile reads a model saved by SaveModelFile.
func LoadModelFile(path string) (Model, error) { return ml.LoadModelFile(path) }
