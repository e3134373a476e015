package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// childRun runs this binary once in a child process — a fresh process
// per run, exactly as the driver measures — and parses the result line.
func childRun(exe, workload string, seed int64, seconds float64, trace bool, stderr io.Writer) (driverLine, error) {
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return driverLine{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res driverLine
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return driverLine{}, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return res, nil
}

// traceRule is one acceptance rule on a traced run's metrics.
type traceRule struct {
	metric    string
	lo, hi    float64
	workloads []string // nil = every workload
}

var inProcess = []string{"first_launch", "relaunch", "characterize"}

var traceRules = []traceRule{
	{"trace.coverage", 0.85, 1.15, inProcess},
	{"trace.overhead_ratio", 0.9, 1e9, nil},
	{"server.coalesced_ratio", 0, 0, nil},
	{"core.managed_ratio", 1, 1, []string{"first_launch", "relaunch", "serve_stream"}},
}

func (r traceRule) applies(workload string) bool {
	if r.workloads == nil {
		return true
	}
	for _, w := range r.workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// selfcheck runs every workload opt.selfcheck times, each run a child
// process with its own seed, alternating the workload order between
// repetitions, then two traced runs per workload. It prints, as markdown,
// each end-to-end metric's spread against its bound and the traced
// acceptance rules, and returns non-zero if anything is out of bounds:
// a spread above its bound, a failed op, an oracle_fraction or a
// sim.best_time_sum_s that differs between runs, a traced rule broken.
// Its output is committed as benchmark/REPEATABILITY.md.
func selfcheck(opt options, env environment, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	k := opt.selfcheck
	values := map[string]map[string][]float64{} // workload -> metric -> one value per repetition
	failedOps := map[string]int{}
	attempted := map[string]int{}
	for _, w := range workloadNames {
		values[w] = map[string][]float64{}
	}
	for rep := 0; rep < k; rep++ {
		order := append([]string(nil), workloadNames...)
		if rep%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			res, err := childRun(exe, w, opt.seed+int64(rep), opt.seconds, false, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: selfcheck: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "selfcheck: repetition %d/%d %s done\n", rep+1, k, w)
			for name, m := range res.Metrics {
				values[w][name] = append(values[w][name], m.Value)
			}
			failedOps[w] += res.Failed
			attempted[w] += res.Attempted
		}
	}

	ok := true
	fmt.Fprintf(stdout, "# Repeatability self-check\n\n")
	fmt.Fprintf(stdout, "Output of `bash benchmark/run.sh --selfcheck %d --seed %d --seconds %g`: every workload run %d times, each run a fresh process with its own seed (%d..%d), workload order alternating between repetitions.\n\n",
		k, opt.seed, opt.seconds, k, opt.seed, opt.seed+int64(k)-1)
	fmt.Fprintf(stdout, "- commit `%s`, nproc %d, GOMAXPROCS %d, %s\n", env.Commit, env.NProc, env.GOMAXPROCS, env.GoVersion)
	fmt.Fprintf(stdout, "- **IQR/median** is the driver's statistic: (Q3 - Q1) / median with Python's `statistics.quantiles(values, n=4)`. It must stay within the bound, and should stay below a third of it.\n")
	fmt.Fprintf(stdout, "- **max dev** is the largest |value - median| / median over the runs. It must stay within the bound too; a host-time bound is at least three times the largest one seen (never below 0.05).\n\n")
	fmt.Fprintf(stdout, "| workload | metric | median | IQR/median | max dev | 3 x max dev | bound | verdict |\n|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloadNames {
		for _, d := range endToEndMetrics {
			sp := spreadOf(values[w][d.Name])
			verdict := "ok"
			switch {
			case sp.iqr > d.Bound || sp.maxDev > d.Bound:
				verdict, ok = "**EXCEEDS BOUND**", false
			case 3*sp.maxDev > d.Bound:
				verdict = "within bound; bound below 3 x max dev"
			case sp.iqr > d.Bound/3:
				verdict = "within bound; IQR above bound/3"
			}
			fmt.Fprintf(stdout, "| %s | %s | %.6g | %.3e | %.3e | %.3g | %g | %s |\n",
				w, d.Name, sp.median, sp.iqr, sp.maxDev, 3*sp.maxDev, d.Bound, verdict)
		}
	}
	fmt.Fprintf(stdout, "\nEvery run made, in repetition order:\n\n| workload | metric | values |\n|---|---|---|\n")
	for _, w := range workloadNames {
		for _, d := range endToEndMetrics {
			fmt.Fprintf(stdout, "| %s | %s | %s |\n", w, d.Name, joinFloats(values[w][d.Name], "%.6g"))
		}
	}
	fmt.Fprintf(stdout, "\n| workload | ops attempted | ops failed | oracle_fraction identical in every run |\n|---|---|---|---|\n")
	for _, w := range workloadNames {
		same := "yes"
		for _, v := range values[w]["oracle_fraction"] {
			if v != values[w]["oracle_fraction"][0] {
				same, ok = "**no**", false
			}
		}
		if failedOps[w] > 0 {
			ok = false
		}
		fmt.Fprintf(stdout, "| %s | %d | %d | %s |\n", w, attempted[w], failedOps[w], same)
	}

	fmt.Fprintf(stdout, "\n## Traced runs (two per workload, seeds %d and %d)\n\n| workload | seed | metric | value | required | verdict |\n|---|---|---|---|---|---|\n", opt.seed, opt.seed+1)
	var checksums []float64
	for _, w := range workloadNames {
		for seed := opt.seed; seed <= opt.seed+1; seed++ {
			res, err := childRun(exe, w, seed, opt.seconds, true, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: selfcheck: %v\n", err)
				return 1
			}
			if res.Failed > 0 {
				ok = false
			}
			for _, r := range traceRules {
				if !r.applies(w) {
					continue
				}
				v := res.Metrics[r.metric].Value
				verdict := "ok"
				if v < r.lo || v > r.hi {
					verdict, ok = "**FAILS**", false
				}
				want := fmt.Sprintf("[%g, %g]", r.lo, r.hi)
				if r.hi >= 1e9 {
					want = fmt.Sprintf(">= %g", r.lo)
				} else if r.lo == r.hi {
					want = fmt.Sprintf("== %g", r.lo)
				}
				fmt.Fprintf(stdout, "| %s | %d | %s | %.6g | %s | %s |\n", w, seed, r.metric, v, want, verdict)
			}
			if w == "characterize" {
				sum := res.Metrics["sim.best_time_sum_s"].Value
				checksums = append(checksums, sum)
				verdict := "ok"
				if sum != checksums[0] {
					verdict, ok = "**FAILS**", false
				}
				fmt.Fprintf(stdout, "| %s | %d | sim.best_time_sum_s | %.17g | identical in both runs | %s |\n", w, seed, sum, verdict)
			}
		}
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark: selfcheck: out of bounds; see the table")
		return 1
	}
	return 0
}
