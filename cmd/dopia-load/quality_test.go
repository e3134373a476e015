package main

import (
	"context"
	"net/http"
	"testing"
	"time"

	"dopia/internal/core"
	"dopia/internal/experiments"
	"dopia/internal/server"
	"dopia/internal/sim"
)

// recordedGapClosed is the share of the frozen-to-oracle gap this test's
// trace closes. A change to the learner may not close less.
const recordedGapClosed = 0.97483535740661531

// TestOnlineQualityGate is the online learner's decision-quality gate:
// the drifting-mix scenario of `dopia-load -online -mix-schedule
// poly@0,spmv@4000`, made deterministic. Six sessions launch the poly mix
// and then the spmv mix one launch at a time, and the learner learns from
// each launch before it returns, so each decision sees exactly the same
// learner state on every run and the trace depends only on the code.
// Every response is still verified bit-identical against the in-process
// reference.
func TestOnlineQualityGate(t *testing.T) {
	const (
		sessions = 6
		rounds   = 40 // launches per session per mix phase
		budget   = 2.0
	)
	machine := sim.Kaveri()
	model, err := core.BootstrapModel(machine, "DT", "")
	if err != nil {
		t.Fatal(err)
	}
	base, srv, ms, err := embedServer(server.Config{
		Machine: machine,
		Model:   model,
		Online:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		_ = ms.Shutdown(ctx)
	})
	schedule, err := buildSchedule("", "poly@0,spmv@4000", 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	client := server.NewClient(base, &http.Client{Timeout: time.Minute})
	progIDs := map[string]string{}
	oracles := map[string]*refOracle{}
	for _, w := range schedule.unique() {
		resp, err := client.Compile(w.Source)
		if err != nil {
			t.Fatal(err)
		}
		progIDs[w.Name] = resp.ProgramID
		if oracles[w.Name], err = newRefOracle(w); err != nil {
			t.Fatal(err)
		}
	}

	type key struct {
		worker   int
		workload string
	}
	sids := make([]string, sessions)
	for w := range sids {
		if sids[w], err = client.NewSession(); err != nil {
			t.Fatal(err)
		}
	}
	tenants := map[key]*tenant{}
	var trace []experiments.TraceStep
	for _, seg := range schedule {
		for r := 0; r < rounds; r++ {
			for w := 0; w < sessions; w++ {
				wl := seg.wls[w%len(seg.wls)]
				k := key{w, wl.Name}
				tc := tenants[k]
				if tc == nil {
					// Each session keeps one oracle cursor per workload.
					if tc, err = newTenant(client, nil, wl, progIDs[wl.Name], oracles[wl.Name], 0, sids[w]); err != nil {
						t.Fatal(err)
					}
					tenants[k] = tc
				}
				res, mismatch, err := tc.launchOnce()
				if err != nil {
					t.Fatalf("session %d (%s) launch: %v", w, wl.Name, err)
				}
				if mismatch != "" {
					t.Fatalf("session %d (%s): %s", w, wl.Name, mismatch)
				}
				step := experiments.TraceStep{Workload: wl.Name, Chosen: machine.AllResources()}
				if d := res.decision; d != nil {
					step.Chosen = sim.Config{CPUCores: d.CPUCores, GPUFrac: d.GPUFrac}
					step.Explored = d.Explored
				}
				trace = append(trace, step)
			}
		}
	}

	evals, err := core.EvaluateAll(machine, schedule.unique(), 0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := experiments.EvalTrace(machine, evals, model, trace)
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Learner().Status()
	t.Logf("gap closed %.17g: quality %.6f vs frozen %.6f over %d launches; %d learned; %d explored (regret %.4f)",
		q.GapClosed, q.MeanQuality, q.FrozenQuality, q.Launches, st.Learned, q.Explored, q.ExplorationRegret)
	if q.MeanQuality <= q.FrozenQuality {
		t.Errorf("mean quality %.6f does not beat the frozen model's %.6f", q.MeanQuality, q.FrozenQuality)
	}
	if st.Learned < 1 {
		t.Errorf("no launch learned in %d", q.Launches)
	}
	if q.ExplorationRegret > budget {
		t.Errorf("exploration regret %.4f exceeds the %.1f budget", q.ExplorationRegret, budget)
	}
	if q.GapClosed < recordedGapClosed {
		t.Errorf("gap closed %.6f, below the recorded %.6f", q.GapClosed, recordedGapClosed)
	}
}
