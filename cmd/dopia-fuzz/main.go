// Command dopia-fuzz drives the generative differential-conformance
// harness from the command line: it generates random well-typed kernels,
// runs each across the full configuration lattice ({closure, bytecode}
// engines × shard counts × ladder rungs × the dopiad round-trip), and
// reports any divergence. Divergent cases are shrunk automatically and
// dumped as JSON repros; -replay re-runs a dumped repro (or a whole
// directory of them).
//
// Typical runs:
//
//	dopia-fuzz -duration 2m                 # time-boxed fuzzing
//	dopia-fuzz -seed 42 -cases 500          # deterministic replay of a CI run
//	dopia-fuzz -replay crasher-....json     # re-run one dumped repro
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dopia/internal/conformance"
)

func main() {
	var (
		seed        = flag.Uint64("seed", 1, "base seed; case i derives its own seed from it")
		cases       = flag.Int("cases", 0, "number of cases to run (0: use -duration)")
		duration    = flag.Duration("duration", 0, "wall-clock bound (0 with -cases 0: 30s)")
		shards      = flag.String("shards", "", "comma-separated shard counts (default 1,3,GOMAXPROCS)")
		rungs       = flag.Bool("rungs", true, "run ladder-rung legs (managed / co-exec ALL / plain)")
		machines    = flag.String("machine", "", "comma-separated zoo machines for machine-lattice co-exec legs (\"all\" = every zoo machine, \"\" disables)")
		scheds      = flag.String("sched", "", "comma-separated schedulers for machine-lattice legs: alg1, static, dynamic, hguided, or \"all\" (default static,dynamic,hguided when -machine is set)")
		serving     = flag.Bool("serving", true, "run the dopiad round-trip leg via an embedded server")
		shrink      = flag.Bool("shrink", true, "shrink divergent cases before dumping")
		shrinkRuns  = flag.Int("shrink-runs", 300, "shrink budget (oracle re-runs) per divergence")
		crashers    = flag.String("crashers", conformance.CrashersDir(), "directory for repro dumps (\"\" disables)")
		corpus      = flag.String("corpus", "", "persist one generated .cl exemplar per feature signature here")
		maxCrashers = flag.Int("max-crashers", 5, "stop after this many divergent cases")
		replay      = flag.String("replay", "", "replay a crasher repro file or directory instead of fuzzing")
		quiet       = flag.Bool("q", false, "suppress per-progress output")
	)
	flag.Parse()

	opts := conformance.Options{Rungs: *rungs}
	if *machines != "" {
		for _, f := range strings.Split(*machines, ",") {
			opts.Machines = append(opts.Machines, strings.TrimSpace(f))
		}
	}
	if *scheds != "" {
		for _, f := range strings.Split(*scheds, ",") {
			opts.Scheds = append(opts.Scheds, strings.TrimSpace(f))
		}
		if len(opts.Machines) == 0 {
			opts.Machines = []string{"all"}
		}
	}
	if *shards != "" {
		for _, f := range strings.Split(*shards, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				fail("bad -shards entry %q", f)
			}
			opts.Shards = append(opts.Shards, n)
		}
	}
	if *serving {
		env, err := conformance.NewServingEnv()
		if err != nil {
			fail("serving env: %v", err)
		}
		defer env.Close()
		opts.Serving = env
	}

	if *replay != "" {
		os.Exit(replayPath(*replay, opts))
	}

	cfg := conformance.FuzzConfig{
		Seed:          *seed,
		Cases:         *cases,
		Duration:      *duration,
		Opts:          opts,
		Shrink:        *shrink,
		MaxShrinkRuns: *shrinkRuns,
		CrashersDir:   *crashers,
		CorpusDir:     *corpus,
		MaxCrashers:   *maxCrashers,
	}
	if cfg.Cases <= 0 && cfg.Duration <= 0 {
		cfg.Duration = 30 * time.Second
	}
	if !*quiet {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	res, err := conformance.Fuzz(cfg)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("seed=%d cases=%d divergent=%d features=%d corpus-new=%d\n",
		*seed, res.Cases, res.Divergent, len(res.Features), res.CorpusNew)
	for _, d := range res.Divergences {
		fmt.Printf("divergence: %s\n", d)
	}
	for _, p := range res.Crashers {
		fmt.Printf("crasher: %s\n", p)
	}
	if res.Divergent > 0 {
		os.Exit(1)
	}
}

// replayPath re-runs one crasher file, or every crasher in a directory,
// across the lattice. It returns the process exit code.
func replayPath(path string, opts conformance.Options) int {
	st, err := os.Stat(path)
	if err != nil {
		fail("%v", err)
	}
	var files []string
	if st.IsDir() {
		crs, err := conformance.LoadCrashers(path)
		if err != nil {
			fail("%v", err)
		}
		for name := range crs {
			files = append(files, filepath.Join(path, name))
		}
		if len(files) == 0 {
			fmt.Println("no crasher files")
			return 0
		}
	} else {
		files = []string{path}
	}
	code := 0
	for _, f := range files {
		cr, err := conformance.LoadCrasher(f)
		if err != nil {
			fail("%s: %v", f, err)
		}
		c, err := cr.Case()
		if err != nil {
			fail("%s: rebuild case: %v", f, err)
		}
		rep, err := conformance.RunCase(c, opts)
		if err != nil {
			fail("%s: %v", f, err)
		}
		if rep.OK() {
			fmt.Printf("%s: PASS (no divergence)\n", filepath.Base(f))
			continue
		}
		code = 1
		fmt.Printf("%s: FAIL\n", filepath.Base(f))
		for _, d := range rep.Divergences {
			fmt.Printf("  divergence: %s\n", d)
		}
	}
	return code
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dopia-fuzz: "+format+"\n", args...)
	os.Exit(2)
}
