package conformance

import (
	"fmt"
	"strings"
	"testing"

	"dopia/internal/analysis"
	"dopia/internal/clc"
	"dopia/internal/core"
	"dopia/internal/faults"
	"dopia/internal/interp"
	"dopia/internal/ml"
	"dopia/internal/sched"
	"dopia/internal/sim"
)

// totalCases returns the first n ClassTotal generated cases from a seed
// stream, optionally skipping cases whose feature signature contains any
// of the listed tags.
func totalCases(t *testing.T, base uint64, n int, skipTags ...string) []*Case {
	t.Helper()
	var out []*Case
	for i := 0; len(out) < n && i < 40*n; i++ {
		c, err := GenerateClass(CaseSeed(base, i), ClassTotal)
		if err != nil {
			t.Fatalf("gen %d: %v", i, err)
		}
		sig := c.FeatureSig()
		skip := false
		for _, tag := range skipTags {
			if strings.Contains(sig, tag) {
				skip = true
				break
			}
		}
		if !skip {
			out = append(out, c)
		}
	}
	if len(out) < n {
		t.Fatalf("found only %d/%d matching cases", len(out), n)
	}
	return out
}

// kernelModel builds the sampled performance model of a generated case
// through the scheduler's executor (the production path: bind, launch,
// profile a work-group sample).
func kernelModel(t *testing.T, c *Case) *sim.KernelModel {
	t.Helper()
	prog, err := clc.Compile(c.Source)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	k := prog.Kernel(c.Kernel)
	if k == nil {
		t.Fatalf("kernel %s missing", c.Kernel)
	}
	ex, err := sched.NewExecutor(sim.Kaveri(), k, nil)
	if err != nil {
		t.Fatalf("executor: %v", err)
	}
	args := make([]interp.Arg, len(c.Args))
	for i := range c.Args {
		args[i] = c.Args[i].Arg()
	}
	if err := ex.Bind(args...); err != nil {
		t.Fatalf("bind: %v", err)
	}
	if err := ex.Launch(c.ND); err != nil {
		t.Fatalf("launch: %v", err)
	}
	km, err := ex.Model()
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	return km
}

// TestCoexecPartitionCoversNDRange is the metamorphic partition
// invariant: however the simulator splits a launch between the devices —
// any machine of the zoo, any DoP configuration, any scheduling policy
// (Algorithm 1 with fixed or decaying GPU chunks, static splits, the
// work-queue scheduler at several chunk sizes, HGuided at several chunk
// floors) — the emitted spans must cover every work-group of the
// ND-range exactly once, and the result tallies must agree with the
// spans.
func TestCoexecPartitionCoversNDRange(t *testing.T) {
	cases := totalCases(t, 0xc0e8, 4)

	type variant struct {
		name string
		dist sim.Distribution
		opts sim.SimOptions
	}
	variants := []variant{
		{"alg1", sim.Dynamic, sim.SimOptions{}},
		{"alg1/decay", sim.Dynamic, sim.SimOptions{DecayChunks: true}},
		{"alg1/div4", sim.Dynamic, sim.SimOptions{GPUChunkDiv: 4}},
		{"static/0.3", sim.Static, sim.SimOptions{CPUShare: 0.3}},
		{"static/0.9", sim.Static, sim.SimOptions{CPUShare: 0.9}},
		{"dynamic", sim.WorkQueue, sim.SimOptions{}},
		{"dynamic/chunk2", sim.WorkQueue, sim.SimOptions{ChunkWGs: 2}},
		{"hguided", sim.HGuided, sim.SimOptions{}},
		{"hguided/min4", sim.HGuided, sim.SimOptions{MinChunkWGs: 4}},
	}

	type kmKey struct{ ci int }
	models := map[kmKey]*sim.KernelModel{}
	for ci, c := range cases {
		models[kmKey{ci}] = kernelModel(t, c)
	}
	for _, m := range sim.Zoo() {
		cfgs := []sim.Config{
			m.CPUOnly(),
			m.GPUOnly(),
			m.AllResources(),
			{CPUCores: 2, GPUFrac: 0.5},
		}
		for ci := range cases {
			km := models[kmKey{ci}]
			for _, cfg := range cfgs {
				for _, v := range variants {
					name := fmt.Sprintf("%s/case%d/%s/cpu%d-gpu%.2f", m.Name, ci, v.name, cfg.CPUCores, cfg.GPUFrac)
					cover := make([]int, km.NumWGs)
					spanCPU, spanGPU := 0, 0
					opts := v.opts
					opts.OnSpan = func(dev string, start, count int) error {
						if count <= 0 || start < 0 || start+count > km.NumWGs {
							t.Errorf("%s: span [%d,%d) outside [0,%d)", name, start, start+count, km.NumWGs)
							return nil
						}
						for i := start; i < start+count; i++ {
							cover[i]++
						}
						switch dev {
						case "cpu":
							spanCPU += count
						case "gpu":
							spanGPU += count
						default:
							t.Errorf("%s: unknown span device %q", name, dev)
						}
						return nil
					}
					res, err := sim.Simulate(m, km, cfg, v.dist, opts)
					if err != nil {
						t.Fatalf("%s: simulate: %v", name, err)
					}
					for i, n := range cover {
						if n != 1 {
							t.Fatalf("%s: work-group %d covered %d times", name, i, n)
						}
					}
					if res.WGsCPU != spanCPU || res.WGsGPU != spanGPU {
						t.Errorf("%s: result tallies cpu=%d gpu=%d disagree with spans cpu=%d gpu=%d",
							name, res.WGsCPU, res.WGsGPU, spanCPU, spanGPU)
					}
					if res.WGsCPU+res.WGsGPU != km.NumWGs {
						t.Errorf("%s: tallies sum to %d, want %d", name, res.WGsCPU+res.WGsGPU, km.NumWGs)
					}
				}
			}
		}
	}
}

// trainInvarianceModel fits a small deterministic linear model on feature
// vectors drawn from the given cases, so Decide produces in-range,
// non-degenerate predictions.
func trainInvarianceModel(t *testing.T, m *sim.Machine, cases []*Case) ml.Model {
	t.Helper()
	d := &ml.Dataset{}
	for _, c := range cases {
		prog, err := clc.Compile(c.Source)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		k := prog.Kernel(c.Kernel)
		if k == nil {
			t.Fatalf("kernel %s missing", c.Kernel)
		}
		res, err := analysis.Analyze(k)
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		base := core.BaseFeatures(res, c.ND)
		for _, cfg := range m.Configs() {
			// A deterministic, config-dependent target: the fitted
			// model then prefers distinct configurations per kernel
			// instead of collapsing to a constant.
			y := float64(cfg.CPUCores) + 3*cfg.GPUFrac
			d.Add(core.WithConfig(base, m, cfg), y)
		}
	}
	mdl, err := (ml.LinearTrainer{}).Fit(d)
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	return mdl
}

// countingModel counts the predictions asked of the model it wraps.
type countingModel struct {
	ml.Model
	calls int
}

func (c *countingModel) Predict(x ml.Features) float64 {
	c.calls++
	return c.Model.Predict(x)
}

// TestDecisionInvariance is the metamorphic DoP-decision invariant,
// checked on every machine of the zoo: the configuration Decide picks
// depends on nothing but the model and the launch — the first decision,
// a repeat of it, one under an identically fitted model of another
// identity, and one with fault injection armed must all agree. Every one
// of them sweeps the model over every configuration and reports what the
// sweep cost: inference is charged on each launch, as in the paper.
func TestDecisionInvariance(t *testing.T) {
	cases := totalCases(t, 0xdec1, 3)
	for _, m := range sim.Zoo() {
		m := m
		t.Run(m.Name, func(t *testing.T) { decisionInvariance(t, m, cases) })
	}
}

func decisionInvariance(t *testing.T, m *sim.Machine, cases []*Case) {
	mdl := &countingModel{Model: trainInvarianceModel(t, m, cases)}
	mdl2 := trainInvarianceModel(t, m, cases) // identical fit, distinct identity
	sweep := len(m.Configs())

	for ci, c := range cases {
		fw := core.New(m, mdl)
		prog, err := clc.Compile(c.Source)
		if err != nil {
			t.Fatalf("case %d: compile: %v", ci, err)
		}
		k := prog.Kernel(c.Kernel)
		if k == nil {
			t.Fatalf("case %d: kernel %s missing", ci, c.Kernel)
		}
		res, err := fw.Analysis(k)
		if err != nil {
			t.Fatalf("case %d: analysis: %v", ci, err)
		}

		mdl.calls = 0
		cold := fw.Decide(res, c.ND)
		if cold.ModelDiscarded {
			t.Fatalf("case %d: model discarded on cold decision", ci)
		}
		warm := fw.Decide(res, c.ND)
		if mdl.calls != 2*sweep {
			t.Errorf("case %d: two decisions on one geometry predicted %d times, want %d", ci, mdl.calls, 2*sweep)
		}

		fw.Model = mdl2
		swapped := fw.Decide(res, c.ND)
		fw.Model = mdl

		// A plan with a huge After never fires: only what consults
		// faults.Active changes.
		faults.Inject("conformance.noop", faults.Plan{After: 1 << 30})
		armed := fw.Decide(res, c.ND)
		faults.Reset()

		for _, v := range []struct {
			name string
			dec  core.Decision
		}{{"cold", cold}, {"warm", warm}, {"swapped", swapped}, {"armed", armed}} {
			if v.dec.Config != cold.Config || v.dec.Predicted != cold.Predicted || v.dec.ModelDiscarded {
				t.Errorf("case %d: %s decision %+v differs from cold %+v", ci, v.name, v.dec, cold)
			}
			if v.dec.Evaluated != sweep || v.dec.InferTime <= 0 {
				t.Errorf("case %d: %s decision evaluated %d configs in %v, want %d in a non-zero time",
					ci, v.name, v.dec.Evaluated, v.dec.InferTime, sweep)
			}
		}
	}
}

// TestMachineSchedLattice is the cross-machine differential: every
// generated total-class kernel must produce bit-identical buffers when
// co-executed on every machine of the zoo under every scheduling policy
// (including the paper's Algorithm 1), compared against the sequential
// closure-engine reference.
func TestMachineSchedLattice(t *testing.T) {
	cases := totalCases(t, 0x1a77, 5)
	opts := Options{
		Machines: []string{"all"},
		Scheds:   []string{"all"},
	}
	wantCoexec := len(sim.Zoo()) * len(sim.Distributions()) * len(defaultShards())
	for ci, c := range cases {
		rep, err := RunCase(c, opts)
		if err != nil {
			t.Fatalf("case %d (%s): %v", ci, c, err)
		}
		coexec := 0
		for _, leg := range rep.Legs {
			if strings.HasPrefix(leg.Leg, "coexec:") {
				coexec++
			}
		}
		if coexec != wantCoexec {
			t.Errorf("case %d: %d coexec legs, want %d", ci, coexec, wantCoexec)
		}
		for _, d := range rep.Divergences {
			t.Errorf("case %d: divergence: %s\n%s", ci, d, c.Source)
		}
	}
}

// TestSchedulerDeterministicReplay: regenerating a case from its seed
// and re-running the same machine/scheduler leg must reproduce the
// observation exactly — same buffers, same error — or crasher replays
// and CI reruns could disagree about the same seed.
func TestSchedulerDeterministicReplay(t *testing.T) {
	for _, m := range sim.Zoo() {
		for _, dist := range sim.Distributions() {
			runOnce := func() *Observation {
				t.Helper()
				c, err := GenerateClass(CaseSeed(0xd37e, 2), ClassTotal)
				if err != nil {
					t.Fatalf("generate: %v", err)
				}
				obs, err := runCoexec(c, m, dist, 0)
				if err != nil {
					t.Fatalf("%s/%s: %v", m.Name, dist, err)
				}
				return obs
			}
			first := runOnce()
			for trial := 0; trial < 3; trial++ {
				again := runOnce()
				if ds := DiffObservations(first, again); len(ds) > 0 {
					t.Fatalf("%s/%s trial %d: replay diverged: %v", m.Name, dist, trial, ds)
				}
			}
		}
	}
}
