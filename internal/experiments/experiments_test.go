package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"dopia/internal/ml"
	"dopia/internal/sim"
)

// tinySuite is a heavily reduced configuration so every experiment runs in
// seconds: a 40-workload synthetic slice, 8 folds, 256-wide real kernels.
func tinySuite(buf *bytes.Buffer) *Suite {
	s := NewSuite(buf)
	s.SynthLimit = 40
	s.Folds = 8
	s.RealN = 256
	return s
}

// tiny is the one tinySuite the package's tests share, so each
// characterization and each model fit they read is made once per test
// binary: TestTrainingGolden reads the cross-validation and Figure 13
// selections TestAllExperimentsRun made.
var tiny struct {
	once sync.Once
	out  bytes.Buffer
	s    *Suite
}

func sharedTinySuite() *Suite {
	tiny.once.Do(func() { tiny.s = tinySuite(&tiny.out) })
	return tiny.s
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	s := sharedTinySuite()
	start := tiny.out.Len()
	for _, e := range All() {
		before := tiny.out.Len()
		if err := e.Run(s); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if tiny.out.Len() == before {
			t.Errorf("%s produced no output", e.ID)
		}
	}
	t.Logf("combined output:\n%s", tiny.out.String()[start:])
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig1"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("expected error for unknown experiment")
	}
	if len(All()) != 10 {
		t.Errorf("%d experiments, want 10 (fig1,3,9-13 + tables 5,6 + schedsweep)", len(All()))
	}
}

func TestFixedSelections(t *testing.T) {
	m := sim.Kaveri()
	evals, err := sharedTinySuite().SynthEvals(m)
	if err != nil {
		t.Fatal(err)
	}
	sel := FixedSelections(m, evals, m.CPUOnly())
	if len(sel) != len(evals) {
		t.Fatalf("%d selections, want %d", len(sel), len(evals))
	}
	for _, se := range sel {
		if se.Perf <= 0 || se.Perf > 1+1e-9 {
			t.Errorf("%s: perf %v out of (0,1]", se.Workload, se.Perf)
		}
		if se.Dist < 0 || se.Dist > 1+1e-9 {
			t.Errorf("%s: dist %v out of [0,1]", se.Workload, se.Dist)
		}
		if se.Exact && se.Perf < 1-1e-9 {
			t.Errorf("%s: exact match with perf %v", se.Workload, se.Perf)
		}
	}
}

func TestSuiteCaching(t *testing.T) {
	m := sim.Kaveri()
	s := sharedTinySuite()
	e1, err := s.SynthEvals(m)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.SynthEvals(m)
	if err != nil {
		t.Fatal(err)
	}
	if &e1[0] != &e2[0] {
		t.Error("synthetic evals not cached")
	}
	c1, err := s.crossVal(m, ml.TreeTrainer{})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.crossVal(m, ml.TreeTrainer{})
	if err != nil {
		t.Fatal(err)
	}
	if &c1[0] != &c2[0] {
		t.Error("cross-validated selections not cached")
	}
}

func TestBaseNameParsing(t *testing.T) {
	cases := map[string]string{
		"GESUMMV.n1024.wg256":         "GESUMMV",
		"SYR2K.n64.wg64":              "SYR2K",
		"2mat3d2c.f32.d1.s16384.wg64": "2mat3d2c",
		"plain":                       "plain",
	}
	for in, want := range cases {
		if got := baseName(in); got != want {
			t.Errorf("baseName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHeatmapRendering(t *testing.T) {
	var buf bytes.Buffer
	s := NewSuite(&buf)
	m := sim.Kaveri()
	renderConfigHeatmap(s, m, func(cfg sim.Config) float64 {
		return cfg.GPUFrac
	})
	out := buf.String()
	if !strings.Contains(out, "gpu100%") || !strings.Contains(out, "cpu4") {
		t.Errorf("heatmap missing labels:\n%s", out)
	}
}
