// Command dopia-run executes one of the evaluation kernels under Dopia
// management and prints the framework's decision process: the extracted
// Table 1 features, the generated malleable GPU kernel, the model's
// configuration choice, and the resulting co-execution statistics compared
// to the CPU-only / GPU-only / ALL baselines and the exhaustive oracle.
//
// The model is trained at startup on core.DefaultTrainingSet (-model
// names the family) or loaded from -model-file, such as the copy of that
// DT dopia-train -save-model writes; -model none decides with the ALL
// heuristic.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dopia/internal/core"
	"dopia/internal/sim"
	"dopia/internal/stats"
	"dopia/internal/workloads"
)

func main() {
	var (
		machineName = flag.String("machine", "Kaveri", "machine model: any zoo machine (Kaveri, Skylake, BigLittle, DiscretePCIe, AppleM)")
		kernelName  = flag.String("kernel", "GESUMMV", "kernel: one of the 14 real workloads")
		n           = flag.Int("n", workloads.DefaultRealSize, "problem size")
		wg          = flag.Int("wg", 256, "work-group size (64 or 256)")
		modelName   = flag.String("model", "DT", "model family: LIN, SVR, DT, RF, or none (ALL heuristic)")
		showCode    = flag.Bool("show-malleable", false, "print the generated malleable GPU kernel")
		modelFile   = flag.String("model-file", "", "load a model saved by dopia-train -save-model")
	)
	flag.Parse()

	m, err := sim.MachineByName(*machineName)
	if err != nil {
		fail("%v", err)
	}

	// Locate the requested workload.
	ws, err := workloads.RealWorkloads(*n, *wg)
	check(err)
	var w *workloads.Workload
	for i, d := range workloads.RealDescs() {
		if d.Name == *kernelName {
			w = ws[i]
		}
	}
	if w == nil {
		fail("unknown kernel %q; available: %v", *kernelName, kernelNames())
	}

	// Load the model or train it.
	t0 := time.Now()
	model, err := core.BootstrapModel(m, *modelName, *modelFile)
	check(err)
	if model == nil {
		fmt.Println("no model: the ALL heuristic decides")
	} else {
		fmt.Printf("%s model ready in %v\n", model.Name(), time.Since(t0).Round(time.Millisecond))
	}

	fw := core.New(m, model)
	k, err := w.CompileKernel()
	check(err)

	// Compile-time stage.
	res, err := fw.Analysis(k)
	check(err)
	fmt.Printf("\nkernel %s on %s:\n", w.Name, m.Name)
	fmt.Printf("  static features: const=%d cont=%d stride=%d random=%d arith_int=%d arith_float=%d\n",
		res.MemConstant, res.MemContinuous, res.MemStride, res.MemRandom,
		res.ArithInt, res.ArithFloat)
	if *showCode {
		mall, err := fw.Malleable(k, w.WorkDim)
		check(err)
		fmt.Printf("\nmalleable GPU kernel:\n%s\n", mall.Source)
	}

	// Dopia-managed execution.
	inst, err := w.Setup()
	check(err)
	exec, err := fw.Execute(k, inst.Args, inst.ND)
	check(err)
	d := exec.Decision
	fmt.Printf("\nDopia decision: CPU %d cores, GPU %.1f%% (%d PEs/CU); model scored %d configs in %v\n",
		d.Config.CPUCores, d.Config.GPUFrac*100, m.ActivePEs(d.Config), d.Evaluated, d.InferTime)
	fmt.Printf("simulated execution: %.4g ms (CPU %d WGs, GPU %d WGs in %d chunks)\n",
		exec.Result.Time*1e3, exec.Result.WGsCPU, exec.Result.WGsGPU, exec.Result.GPUChunks)
	profile := "reused"
	if exec.Profiled {
		profile = "sampled"
	}
	fmt.Printf("profile: %s\n", profile)

	// Baselines and the oracle, from the workload's characterization.
	we, err := core.EvaluateWorkload(m, w)
	check(err)
	var rows [][]string
	for _, row := range []struct {
		name string
		cfg  sim.Config
	}{
		{"CPU only", m.CPUOnly()},
		{"GPU only", m.GPUOnly()},
		{"ALL", m.AllResources()},
		{"Dopia", d.Config},
		{"Exhaustive", we.Best},
	} {
		t := we.Time(row.cfg)
		rows = append(rows, []string{
			row.name,
			fmt.Sprintf("cpu=%d gpu=%.0f%%", row.cfg.CPUCores, row.cfg.GPUFrac*100),
			stats.Fmt(t * 1e3),
			stats.Fmt(we.BestTime / t),
		})
	}
	fmt.Println()
	stats.RenderTable(os.Stdout,
		[]string{"configuration", "DoP", "time (ms)", "perf vs oracle"}, rows)
}

func kernelNames() []string {
	var out []string
	for _, d := range workloads.RealDescs() {
		out = append(out, d.Name)
	}
	return out
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
