package sched_test

import (
	"fmt"
	"reflect"
	"testing"

	"dopia/internal/core"
	"dopia/internal/sched"
	"dopia/internal/sim"
	"dopia/internal/workloads"
)

var zooRuns int

// TestZooCharacterizationProfilesOnce characterizes one workload on
// every zoo machine: the machines share its kernel, so one sampled
// profile serves all five (the model memo misses once and hits four
// times). Each evaluation equals the one a fresh kernel gives: the same
// workload under a source text of its own per machine.
func TestZooCharacterizationProfilesOnce(t *testing.T) {
	var w *workloads.Workload
	for _, d := range workloads.RealDescs() {
		if d.Name == "GESUMMV" {
			var err error
			if w, err = d.Build(96, 32); err != nil {
				t.Fatal(err)
			}
		}
	}
	zooRuns++ // a source no earlier run (under -count=N) has profiled
	w.Source += fmt.Sprintf("\n// zoo run %d", zooRuns)
	k, err := w.CompileKernel()
	if err != nil {
		t.Fatal(err)
	}
	before := sched.MemoStats(k)
	for _, m := range sim.Zoo() {
		got, err := core.EvaluateWorkload(m, w)
		if err != nil {
			t.Fatal(err)
		}
		fresh := *w
		fresh.Source += "\n// private to " + m.Name
		want, err := core.EvaluateWorkload(m, &fresh)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the shared kernel's evaluation differs from a fresh kernel's", m.Name)
		}
		fk, err := fresh.CompileKernel()
		if err != nil {
			t.Fatal(err)
		}
		if st := sched.MemoStats(fk); st.Misses != 1 || st.Hits != 0 {
			t.Errorf("%s: the fresh kernel's memo reads %d misses, %d hits; want 1, 0", m.Name, st.Misses, st.Hits)
		}
	}
	after := sched.MemoStats(k)
	if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != 1 || hits != int64(len(sim.Zoo())-1) {
		t.Errorf("model memo: %d misses, %d hits over %d machines; want 1 and %d", misses, hits, len(sim.Zoo()), len(sim.Zoo())-1)
	}
}
