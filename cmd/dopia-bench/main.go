// Command dopia-bench regenerates the tables and figures of the Dopia
// paper's evaluation section on the simulated Kaveri and Skylake machines.
//
// Usage:
//
//	dopia-bench [flags] [experiment ...]
//
// Experiments: fig1 fig3 fig9 fig10 table5 fig11 fig12 table6 fig13, or
// "all" (default). The heavy experiments share one workload
// characterization per machine, made afresh by every run.
//
// Profiling:
//
//	dopia-bench -cpuprofile cpu.pprof [...]         CPU profile of the run
//	dopia-bench -memprofile mem.pprof [...]         heap profile at exit
//
// Performance is measured by benchmark/ (see BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"dopia/internal/experiments"
)

func main() {
	var (
		synthLimit = flag.Int("synth-limit", 0, "limit the 1,224-workload synthetic grid (0 = full)")
		realN      = flag.Int("real-n", 0, "real-kernel problem size (0 = default)")
		folds      = flag.Int("folds", 64, "cross-validation folds (paper: 64)")
		seed       = flag.Int64("seed", 1, "random seed for fold shuffling")
		list       = flag.Bool("list", false, "list experiments and exit")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return
	}

	s := experiments.NewSuite(os.Stdout)
	s.SynthLimit = *synthLimit
	s.Folds = *folds
	s.Seed = *seed
	if *realN > 0 {
		s.RealN = *realN
	}

	ids := flag.Args()
	if len(ids) == 0 || (len(ids) == 1 && ids[0] == "all") {
		ids = nil
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		e, err := experiments.ByID(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\n===== %s: %s =====\n", e.ID, e.Desc)
		start := time.Now()
		if err := e.Run(s); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
