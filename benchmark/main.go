// Command benchmark is this repository's launch-lifecycle benchmark: four
// fixed-work workloads over the fourteen real kernels, five end-to-end
// metrics measured with tracing off, and per-layer metrics taken from
// outside each layer by a separate traced run. BENCHMARK.json at the
// repository root is its contract; README.md beside this file defines
// every metric and explains every workload.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload relaunch --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload relaunch --seed 1 --seconds 15 --trace 1
//	bash benchmark/run.sh --selfcheck 10
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// workloadNames lists the workloads in their canonical order.
var workloadNames = []string{"first_launch", "relaunch", "characterize", "serve_stream"}

// buildDir is where run.sh builds the binary; the traced run writes its
// spans there too (trace-<workload>.json), relative to the repository root.
const buildDir = "benchmark/.bench_build"

// options are the command line of one run.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	selfcheck int
	// passes, when positive, overrides the pass count --seconds gives
	// (tests only), and traceDir is where a traced run writes its spans.
	passes   int
	traceDir string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "", "workload to run: first_launch, relaunch, characterize, serve_stream (empty = all four)")
	fs.Int64Var(&opt.seed, "seed", 1, "seeds op order, unique-source tags and streamed contents")
	fs.Float64Var(&opt.seconds, "seconds", 15, "how long the timed passes take at the seed commit; fixes the pass count")
	fs.IntVar(&trace, "trace", 0, "0 = end-to-end metrics with tracing off, 1 = traced run reporting per-layer metrics")
	fs.IntVar(&opt.selfcheck, "selfcheck", 0, "run every workload K times in child processes and check the spread of each metric against its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || opt.seconds <= 0 || trace < 0 || trace > 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}
	opt.trace = trace == 1
	opt.traceDir = buildDir

	env, err := pinEnvironment(opt.seed)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: refusing to run: %v\n", err)
		return 2
	}
	if opt.selfcheck > 0 {
		return selfcheck(opt, env, stdout, stderr)
	}

	names := workloadNames
	if opt.workload != "" {
		names = []string{opt.workload}
	}
	ok := true
	for _, name := range names {
		b, err := newBench(name, opt.seed)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		rep, err := runWorkload(b, name, opt, env)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		rep.print(stdout)
		line, err := rep.driverJSON()
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		// The result line closes each workload's report, so it is the
		// last line of standard output when one workload is named.
		fmt.Fprintf(stdout, "%s\n", line)
		ok = ok && rep.correct()
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark: verification failed; see the problem lines above")
		return 1
	}
	return 0
}

// newBench builds the named workload at the benchmark's sizing.
func newBench(name string, seed int64) (bench, error) {
	switch name {
	case "first_launch":
		return newFirstLaunch(seed, firstLaunchSizing), nil
	case "relaunch":
		return newRelaunch(seed, relaunchSizing), nil
	case "characterize":
		return newCharacterize(seed, characterizeSizing), nil
	case "serve_stream":
		return newServeStream(seed, serveSizing), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}
