package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"dopia/internal/core"
	"dopia/internal/ml"
	"dopia/internal/sim"
	"dopia/internal/stats"
	"dopia/internal/workloads"
)

// decisionSet is one group of launch geometries the decision golden
// reads: the real kernels (all fourteen, or only those named) at
// work-group wg, 1-D kernels at each size of n1D, SpMV at each size of
// sparse when it is set, and 2-D kernels at each size of n2D.
type decisionSet struct {
	name             string
	n1D, n2D, sparse []int
	wg               int
	only             []string
}

// decisionSets are the benchmark's launch geometries (first_launch,
// relaunch and serve_stream, all at work-group 64) and the drifting mix
// CI's online smoke replays (dopia-load -n 64 -wg 32 -mix-schedule
// poly@0,spmv@4000).
var decisionSets = []decisionSet{
	{name: "first_launch", n1D: []int{64, 256}, n2D: []int{32, 64}, wg: 64},
	{name: "relaunch", n1D: []int{1024}, n2D: []int{256}, sparse: []int{512}, wg: 64},
	{name: "serve_stream", n1D: []int{256}, n2D: []int{128}, wg: 64},
	{name: "drift", n1D: []int{64}, wg: 32, only: []string{"GESUMMV", "ATAX1", "BICG1", "MVT1", "SpMV", "PageRank"}},
}

// workloads builds the set's workloads in RealDescs order, each size
// ascending. A kernel that floors its size maps two sizes to one
// workload, which appears once.
func (ds decisionSet) workloads() ([]*workloads.Workload, error) {
	var out []*workloads.Workload
	seen := map[string]bool{}
	for _, d := range workloads.RealDescs() {
		if ds.only != nil && !slices.Contains(ds.only, d.Name) {
			continue
		}
		sizes := ds.n1D
		switch {
		case d.TwoDim:
			sizes = ds.n2D
		case d.Name == "SpMV" && ds.sparse != nil:
			sizes = ds.sparse
		}
		for _, n := range sizes {
			w, err := d.Build(n, ds.wg)
			if err != nil {
				return nil, fmt.Errorf("%s n=%d: %w", d.Name, n, err)
			}
			if !seen[w.Name] {
				seen[w.Name] = true
				out = append(out, w)
			}
		}
	}
	return out, nil
}

// cfgString renders a configuration as <CPU cores>/<GPU fraction>.
func cfgString(c sim.Config) string { return fmt.Sprintf("%d/%s", c.CPUCores, g(c.GPUFrac)) }

// top3 renders the model's three highest predictions for a workload of
// the given base features, ties in Configs order.
func top3(m *sim.Machine, model ml.Model, base ml.Features) string {
	type scored struct {
		cfg  sim.Config
		pred float64
	}
	var all []scored
	for _, cfg := range m.Configs() {
		all = append(all, scored{cfg, model.Predict(core.WithConfig(base, m, cfg))})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].pred > all[j].pred })
	var parts []string
	for _, s := range all[:3] {
		parts = append(parts, fmt.Sprintf("%s:%.4f", cfgString(s.cfg), s.pred))
	}
	return strings.Join(parts, ",")
}

// TestDecisionGolden records what Dopia decides at the launch geometries
// the benchmark and CI run, for every real kernel on Kaveri and Skylake,
// in two blocks of rows: the model the command-line tools ship
// (core.BootstrapModel's DT) and Figure 13's leave-one-family-out DT,
// trained on the shared tinySuite's synthetic and real characterizations
// minus the target's kernel family. Each row gives the configuration the
// model selects (core.SelectConfig over the Table 1 features, as
// Framework.decide does), the oracle's, the normalized performance of
// the choice and of the CPU-only, ALL and GPU-only constants, and the
// model's top three predictions. The footer gives each block's
// geometric means per set beside the constants'. A change that moves a
// decision shows up here as a reviewed diff.
func TestDecisionGolden(t *testing.T) {
	const golden = "testdata/decisions.golden"
	var b, footer strings.Builder
	b.WriteString("# block machine set workload chosen=<cores>/<gpu> best=<cores>/<gpu> dopia=<best/chosen> cpu= all= gpu= top3=<config>:<prediction>,...\n")
	footer.WriteString("# geomean block machine set dopia= cpu= all= gpu=\n")

	s := sharedTinySuite()
	type setEvals struct {
		set   string
		evals []*core.WorkloadEval
	}
	sets := map[string][]setEvals{}
	for _, m := range Machines() {
		for _, ds := range decisionSets {
			wls, err := ds.workloads()
			if err != nil {
				t.Fatal(err)
			}
			evals, err := core.EvaluateAll(m, wls, 0)
			if err != nil {
				t.Fatal(err)
			}
			sets[m.Name] = append(sets[m.Name], setEvals{ds.name, evals})
		}
	}

	// Each block maps a machine to the model that decides for a kernel
	// family on it.
	blocks := []struct {
		name   string
		models func(m *sim.Machine) (func(family string) (ml.Model, error), error)
	}{
		{"shipped", func(m *sim.Machine) (func(string) (ml.Model, error), error) {
			model, err := core.BootstrapModel(m, "DT", "")
			return func(string) (ml.Model, error) { return model, nil }, err
		}},
		{"loo", func(m *sim.Machine) (func(string) (ml.Model, error), error) {
			synth, err := s.SynthEvals(m)
			if err != nil {
				return nil, err
			}
			realEv, err := s.RealEvals(m)
			if err != nil {
				return nil, err
			}
			train := append(append([]*core.WorkloadEval(nil), synth...), realEv...)
			byFamily := map[string]ml.Model{}
			return func(family string) (ml.Model, error) {
				if model, ok := byFamily[family]; ok {
					return model, nil
				}
				model, err := trainExcluding(m, train,
					func(name string) bool { return baseName(name) == family }, ml.TreeTrainer{})
				byFamily[family] = model
				return model, err
			}, nil
		}},
	}
	for _, blk := range blocks {
		for _, m := range Machines() {
			modelFor, err := blk.models(m)
			if err != nil {
				t.Fatal(err)
			}
			for _, se := range sets[m.Name] {
				var dopia, cpu, all, gpu []float64
				for _, we := range se.evals {
					model, err := modelFor(baseName(we.Name))
					if err != nil {
						t.Fatal(err)
					}
					chosen, _, _, err := core.SelectConfig(m, model, we.Base)
					if err != nil {
						t.Fatal(err)
					}
					dopia = append(dopia, we.Perf(chosen))
					cpu = append(cpu, we.Perf(m.CPUOnly()))
					all = append(all, we.Perf(m.AllResources()))
					gpu = append(gpu, we.Perf(m.GPUOnly()))
					fmt.Fprintf(&b, "%s %s %s %s chosen=%s best=%s dopia=%.4f cpu=%.4f all=%.4f gpu=%.4f top3=%s\n",
						blk.name, m.Name, se.set, we.Name, cfgString(chosen), cfgString(we.Best),
						dopia[len(dopia)-1], cpu[len(cpu)-1], all[len(all)-1], gpu[len(gpu)-1],
						top3(m, model, we.Base))
				}
				fmt.Fprintf(&footer, "# geomean %s %s %s dopia=%.4f cpu=%.4f all=%.4f gpu=%.4f\n",
					blk.name, m.Name, se.set, stats.Geomean(dopia), stats.Geomean(cpu),
					stats.Geomean(all), stats.Geomean(gpu))
			}
		}
	}
	b.WriteString(footer.String())
	checkGolden(t, golden, b.String())
}
