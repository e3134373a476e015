// Command dopia-train characterizes core.DefaultTrainingSet, the 132
// workloads every shipped model trains on (48 synthetic workloads of
// Table 4 and the fourteen real kernels at n = 1024, 256 and 64, each
// across the machine's 44 DoP configurations), and reports the four model
// families' cross-validated selection quality and inference overhead on
// it; the full-grid Figure 10 is dopia-bench fig10.
//
// -save-model writes the DT core.BootstrapModel trains, which dopia-run
// and dopia-serve load with -model-file. Nothing reads a characterization
// back from disk: characterizing the set takes well under a second.
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
)

func main() {
	var (
		machineName = flag.String("machine", "Kaveri", "machine model: any zoo machine (Kaveri, Skylake, BigLittle, DiscretePCIe, AppleM)")
		folds       = flag.Int("folds", 16, "cross-validation folds for the report")
		saveModel   = flag.String("save-model", "", "write the shipped DT model to this JSON file")
	)
	flag.Parse()

	m, err := sim.MachineByName(*machineName)
	check(err)

	wls, err := core.DefaultTrainingSet.Workloads()
	check(err)
	fmt.Printf("characterizing %d workloads x %d configurations on %s...\n",
		len(wls), len(m.Configs()), m.Name)
	start := time.Now()
	evals, err := core.EvaluateAll(m, wls, 0)
	check(err)
	fmt.Printf("done in %v (%d data points)\n",
		time.Since(start).Round(time.Millisecond), len(evals)*len(m.Configs()))

	if *saveModel != "" {
		check(saveDefaultModel(m, *saveModel))
		fmt.Printf("decision-tree model written to %s\n", *saveModel)
	}

	// Report model quality: k-fold CV over workloads (the paper's §9.2).
	fmt.Printf("\nmodel comparison (%d-fold cross-validation over workloads):\n", *folds)
	var rows [][]string
	for _, tr := range core.Trainers() {
		sel, err := experiments.CrossValSelections(m, evals, tr, *folds, 1)
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

// saveDefaultModel writes the DT core.BootstrapModel trains on m, so a
// tool given the file with -model-file decides as one that trains it.
func saveDefaultModel(m *sim.Machine, path string) error {
	dt, err := core.BootstrapModel(m, "DT", "")
	if err != nil {
		return err
	}
	return ml.SaveModelFile(path, dt)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
