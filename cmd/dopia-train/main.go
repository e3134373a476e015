// Command dopia-train generates Dopia's training data — the 1,224
// synthetic workloads of Table 4, each characterized across the machine's
// 44 degree-of-parallelism configurations — trains the four model families
// the paper compares, and reports their cross-validated selection quality
// and inference overheads (the data behind Figure 10).
//
// Nothing reads a characterization back from disk: characterizing the
// full grid takes seconds, so every tool characterizes afresh. The
// trained decision tree can be kept with -save-model and loaded by
// dopia-run and dopia-serve with -model-file.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dopia/internal/core"
	"dopia/internal/experiments"
	"dopia/internal/ml"
	"dopia/internal/sim"
	"dopia/internal/stats"
	"dopia/internal/workloads"
)

func main() {
	var (
		machineName = flag.String("machine", "Kaveri", "machine model: any zoo machine (Kaveri, Skylake, BigLittle, DiscretePCIe, AppleM)")
		limit       = flag.Int("limit", 0, "limit the synthetic grid (0 = full 1,224)")
		folds       = flag.Int("folds", 16, "cross-validation folds for the report")
		saveModel   = flag.String("save-model", "", "write the trained DT model to this JSON file")
		machineFile = flag.String("machine-file", "", "load a custom machine description (JSON)")
		withReal    = flag.Bool("with-real", false, "also characterize the 14 real-world kernels")
		realN       = flag.Int("real-n", workloads.DefaultRealSize, "real-kernel problem size")
	)
	flag.Parse()

	var m *sim.Machine
	if *machineFile != "" {
		var err error
		m, err = sim.LoadMachine(*machineFile)
		check(err)
	} else {
		var err error
		m, err = sim.MachineByName(*machineName)
		check(err)
	}

	set := core.TrainingSet{Synthetic: *limit}
	if *withReal {
		set.RealN = []int{*realN}
	}
	grid, err := set.Workloads()
	check(err)

	fmt.Printf("characterizing %d workloads x %d configurations on %s...\n",
		len(grid), len(m.Configs()), m.Name)
	start := time.Now()
	evals, err := core.EvaluateAll(m, grid, 0)
	check(err)
	fmt.Printf("done in %v (%d data points)\n",
		time.Since(start).Round(time.Millisecond), len(evals)*len(m.Configs()))

	if *saveModel != "" {
		dt, err := core.Train(m, ml.TreeTrainer{}, evals)
		check(err)
		check(ml.SaveModelFile(*saveModel, dt))
		fmt.Printf("decision-tree model written to %s\n", *saveModel)
	}

	// Report model quality: k-fold CV over workloads (the paper's §9.2).
	k := *folds
	if k > len(evals) {
		k = len(evals) / 2
	}
	fmt.Printf("\nmodel comparison (%d-fold cross-validation over workloads):\n", k)
	var rows [][]string
	for _, tr := range core.Trainers() {
		sel, err := experiments.CrossValSelections(m, evals, tr, k, 1)
		check(err)
		b := stats.BoxOf(experiments.Perfs(sel))
		var infer float64
		for _, s := range sel {
			infer += s.InferSec
		}
		infer /= float64(len(sel))
		rows = append(rows, []string{
			tr.Name(),
			stats.Fmt(b.Mean), stats.Fmt(b.Median),
			fmt.Sprintf("%d/%d", experiments.ExactCount(sel), len(sel)),
			fmt.Sprintf("%.3f ms", infer*1e3),
		})
	}
	stats.RenderTable(os.Stdout,
		[]string{"model", "mean perf", "median perf", "exact best", "inference (44 cfgs)"}, rows)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
