package experiments

import (
	"fmt"
	"math"

	"dopia/internal/core"
	"dopia/internal/ml"
	"dopia/internal/sim"
)

// This file is the regret-evaluation harness for the online-learning
// loop: given a launch trace (which workload ran when, and which DoP
// configuration the policy under test chose for it), it scores the
// trace against the exhaustive oracle and against the frozen offline
// model, producing the decision-quality numbers dopia-load reports and
// the online-smoke CI gate consumes.

// TraceStep is one launch of a trace: which workload ran and which
// configuration the evaluated policy executed.
type TraceStep struct {
	Workload string     `json:"workload"`
	Chosen   sim.Config `json:"chosen"`
	// Explored marks launches whose configuration came from the bandit
	// rather than the model argmax.
	Explored bool `json:"explored,omitempty"`
}

// RegretReport summarizes a trace against the oracle and a frozen
// reference model.
type RegretReport struct {
	Launches int `json:"launches"`
	Explored int `json:"explored"`
	// MeanQuality is the mean normalized performance of the evaluated
	// policy (oracle-best time / achieved time; 1 = oracle).
	MeanQuality float64 `json:"mean_quality"`
	// FrozenQuality is the mean normalized performance the frozen
	// reference model would have achieved on the identical trace.
	FrozenQuality float64 `json:"frozen_quality"`
	// GapClosed is the fraction of the frozen-to-oracle quality gap the
	// evaluated policy recovered: (mean - frozen) / (1 - frozen).
	// 0 = no better than frozen, 1 = oracle. NaN-free: a frozen model
	// already at the oracle reports 0.
	GapClosed float64 `json:"gap_closed"`
	// CumulativeRegret sums (t_chosen - t_best)/t_best over the trace;
	// ExplorationRegret restricts the sum to explored launches (the
	// quantity the online regret budget bounds).
	CumulativeRegret  float64 `json:"cumulative_regret"`
	ExplorationRegret float64 `json:"exploration_regret"`
}

// EvalTrace scores a launch trace. evals characterizes every workload
// the trace references (one oracle sweep each); frozen is the reference
// model the closed-loop policy is compared against (typically the
// offline model the daemon booted with).
func EvalTrace(m *sim.Machine, evals []*core.WorkloadEval, frozen ml.Model, trace []TraceStep) (*RegretReport, error) {
	if len(trace) == 0 {
		return nil, fmt.Errorf("experiments: empty trace")
	}
	byName := make(map[string]*core.WorkloadEval, len(evals))
	frozenCfg := make(map[string]sim.Config, len(evals))
	for _, we := range evals {
		byName[we.Name] = we
		if frozen != nil {
			cfg, _, _, err := core.SelectConfig(m, frozen, we.Base)
			if err != nil {
				return nil, fmt.Errorf("experiments: frozen model on %s: %w", we.Name, err)
			}
			frozenCfg[we.Name] = cfg
		} else {
			frozenCfg[we.Name] = m.AllResources()
		}
	}
	rep := &RegretReport{Launches: len(trace)}
	var sumQ, sumF float64
	for i, st := range trace {
		we := byName[st.Workload]
		if we == nil {
			return nil, fmt.Errorf("experiments: trace step %d references unknown workload %q", i, st.Workload)
		}
		q := we.Perf(st.Chosen)
		if q <= 0 {
			return nil, fmt.Errorf("experiments: trace step %d chose unknown config %+v for %s", i, st.Chosen, st.Workload)
		}
		sumQ += q
		sumF += we.Perf(frozenCfg[st.Workload])
		reg := (we.Time(st.Chosen) - we.BestTime) / we.BestTime
		rep.CumulativeRegret += reg
		if st.Explored {
			rep.Explored++
			rep.ExplorationRegret += reg
		}
	}
	n := float64(len(trace))
	rep.MeanQuality = sumQ / n
	rep.FrozenQuality = sumF / n
	if gap := 1 - rep.FrozenQuality; gap > 1e-9 {
		rep.GapClosed = (rep.MeanQuality - rep.FrozenQuality) / gap
	}
	if math.IsNaN(rep.GapClosed) || math.IsInf(rep.GapClosed, 0) {
		rep.GapClosed = 0
	}
	return rep, nil
}
