package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// characterizedWorkloads is the whole synthetic grid plus the fourteen
// real kernels at n=256.
func characterizedWorkloads(t *testing.T) []*workloads.Workload {
	t.Helper()
	grid, err := workloads.SyntheticGrid()
	if err != nil {
		t.Fatal(err)
	}
	real, err := workloads.RealWorkloads(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	return append(grid, real...)
}

// evalsDigest hashes every characterization in order: its name, its
// best configuration and the bits of every configuration's time.
func evalsDigest(evals []*WorkloadEval) string {
	h := sha256.New()
	for _, we := range evals {
		fmt.Fprintf(h, "%s best %v\n", we.Name, we.Best)
		for _, ct := range we.Times {
			fmt.Fprintf(h, "%v %x\n", ct.Config, math.Float64bits(ct.Time))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCharacterizationGolden pins one SHA-256 per zoo machine over the
// characterization of the whole synthetic grid and the real kernels: a
// change to profiling, the model, the simulator or the sweep that moves
// any simulated time, or the best configuration of any workload, shows
// up here.
func TestCharacterizationGolden(t *testing.T) {
	const golden = "testdata/characterization.golden"
	wls := characterizedWorkloads(t)
	var b strings.Builder
	for _, m := range sim.Zoo() {
		evals, err := EvaluateAll(m, wls, 0)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		fmt.Fprintf(&b, "%s %s\n", m.Name, evalsDigest(evals))
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v; the table this run produced:\n%s", err, b.String())
	}
	if got := b.String(); got != string(want) {
		t.Errorf("%s is stale; the table this run produced:\n%s", golden, got)
	}
}
