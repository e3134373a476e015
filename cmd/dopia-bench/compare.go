package main

// The -compare mode: diff two benchmark reports written by -out and fail
// (non-zero exit) when ns/op or allocs/op regress beyond a threshold, so
// CI can gate on checked-in baselines instead of eyeballing scrollback.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"dopia/internal/sim"
)

// compareReports loads two -out reports and prints per-benchmark ns/op
// and allocs/op deltas. It returns an error listing every benchmark
// whose ns/op or allocs/op regressed by more than thresholdPct percent,
// or that disappeared from the new report. With allowMissing,
// disappeared benchmarks are reported as waived instead of failing —
// for CI jobs that deliberately run a subset of the suites. New
// benchmarks (present only in the new report) are informational.
func compareReports(oldPath, newPath string, thresholdPct float64, allowMissing bool) error {
	oldRep, err := loadBenchReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadBenchReport(newPath)
	if err != nil {
		return err
	}
	// Records match on (name, machine); a baseline that predates the
	// machine field (machine "" everywhere for that name) falls back to
	// the name alone, so old baselines stay comparable.
	type benchKey struct{ name, machine string }
	newByKey := make(map[benchKey]benchRecord, len(newRep.Benchmarks))
	newByName := make(map[string]benchRecord, len(newRep.Benchmarks))
	for _, b := range newRep.Benchmarks {
		newByKey[benchKey{b.Name, b.Machine}] = b
		if _, dup := newByName[b.Name]; !dup {
			newByName[b.Name] = b
		}
	}
	lookup := func(ob benchRecord) (benchRecord, bool) {
		if nb, ok := newByKey[benchKey{ob.Name, ob.Machine}]; ok {
			return nb, true
		}
		nb, ok := newByName[ob.Name]
		return nb, ok
	}

	fmt.Printf("old: %s (%s, %d cpu, gomaxprocs %d)\n",
		oldPath, oldRep.Date, oldRep.NumCPU, oldRep.GoMaxProcs)
	fmt.Printf("new: %s (%s, %d cpu, gomaxprocs %d)\n",
		newPath, newRep.Date, newRep.NumCPU, newRep.GoMaxProcs)
	fmt.Printf("%-26s %14s %14s %8s %12s %12s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs", "delta")

	var failures []string
	waived := 0
	seen := make(map[string]bool, len(oldRep.Benchmarks))
	for _, ob := range oldRep.Benchmarks {
		seen[ob.Name] = true
		nb, ok := lookup(ob)
		if !ok {
			if allowMissing {
				fmt.Printf("%-26s %14.0f %14s\n", ob.Name, ob.NsPerOp, "(waived)")
				waived++
				continue
			}
			fmt.Printf("%-26s %14.0f %14s\n", ob.Name, ob.NsPerOp, "missing")
			failures = append(failures,
				fmt.Sprintf("%s: missing from %s", ob.Name, newPath))
			continue
		}
		nsDelta := pctDelta(ob.NsPerOp, nb.NsPerOp)
		allocDelta := pctDelta(float64(ob.AllocsPerOp), float64(nb.AllocsPerOp))
		fmt.Printf("%-26s %14.0f %14.0f %7.1f%% %12d %12d %7.1f%%\n",
			ob.Name, ob.NsPerOp, nb.NsPerOp, nsDelta,
			ob.AllocsPerOp, nb.AllocsPerOp, allocDelta)
		if nsDelta > thresholdPct {
			failures = append(failures, fmt.Sprintf(
				"%s: ns/op regressed %.1f%% (%.0f -> %.0f, threshold %.1f%%)",
				ob.Name, nsDelta, ob.NsPerOp, nb.NsPerOp, thresholdPct))
		}
		if allocDelta > thresholdPct {
			failures = append(failures, fmt.Sprintf(
				"%s: allocs/op regressed %.1f%% (%d -> %d, threshold %.1f%%)",
				ob.Name, allocDelta, ob.AllocsPerOp, nb.AllocsPerOp, thresholdPct))
		}
	}
	added := 0
	for _, nb := range newRep.Benchmarks {
		if !seen[nb.Name] {
			added++
			if added <= 20 {
				fmt.Printf("%-26s %14s %14.0f   (new)\n", nb.Name, "-", nb.NsPerOp)
			}
		}
	}
	if added > 20 {
		fmt.Printf("  ... and %d more new benchmark(s)\n", added-20)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		return fmt.Errorf("%d benchmark regression(s) above %.1f%%",
			len(failures), thresholdPct)
	}
	if waived > 0 {
		fmt.Printf("OK: no regressions above %.1f%% (%d missing benchmark(s) waived)\n",
			thresholdPct, waived)
		return nil
	}
	fmt.Printf("OK: no regressions above %.1f%%\n", thresholdPct)
	return nil
}

// pctDelta returns the percentage change from before to after; an
// increase is positive (a regression for ns/op and allocs/op). A zero
// baseline with a non-zero new value reports +Inf, which always exceeds
// the threshold.
func pctDelta(before, after float64) float64 {
	if before == 0 {
		if after == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (after - before) / before * 100
}

func loadBenchReport(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// checkSchedGate loads a -out report and enforces the policy-sweep
// acceptance criterion on its SchedSweep records: on every machine
// beyond the paper's Kaveri and Skylake, at least one workload must run
// faster under an adaptive scheduler (dynamic or hguided) than under
// the best static split. It fails too when a zoo machine has no sweep
// records at all, so a silently skipped sweep cannot pass the gate.
func checkSchedGate(path string) error {
	rep, err := loadBenchReport(path)
	if err != nil {
		return err
	}
	// machine -> workload -> sched -> simulated ns
	times := map[string]map[string]map[string]float64{}
	for _, b := range rep.Benchmarks {
		if !strings.HasPrefix(b.Name, "SchedSweep/") {
			continue
		}
		parts := strings.SplitN(strings.TrimPrefix(b.Name, "SchedSweep/"), "/", 3)
		if len(parts) != 3 {
			return fmt.Errorf("%s: malformed sweep record name %q", path, b.Name)
		}
		mach, wl, sched := parts[0], parts[1], parts[2]
		if times[mach] == nil {
			times[mach] = map[string]map[string]float64{}
		}
		if times[mach][wl] == nil {
			times[mach][wl] = map[string]float64{}
		}
		times[mach][wl][sched] = b.NsPerOp
	}
	base := map[string]bool{sim.Kaveri().Name: true, sim.Skylake().Name: true}
	var failures []string
	for _, m := range sim.Zoo() {
		wl := times[m.Name]
		if len(wl) == 0 {
			failures = append(failures,
				fmt.Sprintf("%s: no SchedSweep records in %s", m.Name, path))
			continue
		}
		if base[m.Name] {
			continue
		}
		best := ""
		bestGain := 0.0
		for name, ts := range wl {
			static, ok := ts["static"]
			if !ok {
				return fmt.Errorf("%s/%s: sweep record missing static policy", m.Name, name)
			}
			for _, p := range []string{"dynamic", "hguided"} {
				if t, ok := ts[p]; ok && t < static && static-t > bestGain {
					best = fmt.Sprintf("%s %s %.3gms < static-best %.3gms", name, p, t/1e6, static/1e6)
					bestGain = static - t
				}
			}
		}
		if best == "" {
			failures = append(failures, fmt.Sprintf(
				"%s: no workload where dynamic or hguided beats the best static split", m.Name))
			continue
		}
		fmt.Printf("%-14s OK: %s\n", m.Name, best)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		return fmt.Errorf("scheduler sweep gate failed on %d machine(s)", len(failures))
	}
	fmt.Println("OK: adaptive schedulers beat best-static on every zoo machine")
	return nil
}
