package ml

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, m Model) Model {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveModel(&buf, m); err != nil {
		t.Fatalf("save: %v", err)
	}
	m2, err := LoadModel(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if m2.Name() != m.Name() {
		t.Fatalf("family changed: %s -> %s", m.Name(), m2.Name())
	}
	return m2
}

// TestSerializationRoundTrip: every model family survives save/load with
// bit-identical predictions.
func TestSerializationRoundTrip(t *testing.T) {
	d := synthDataset(300, 42, nonlinearTarget)
	trainers := []Trainer{
		LinearTrainer{}, SVRTrainer{MaxTrain: 64},
		TreeTrainer{}, ForestTrainer{Trees: 5, Seed: 3},
	}
	rng := rand.New(rand.NewSource(9))
	for _, tr := range trainers {
		m, err := tr.Fit(d)
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		m2 := roundTrip(t, m)
		prop := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			var x Features
			for i := range x {
				x[i] = r.Float64() * 10
			}
			return m.Predict(x) == m2.Predict(x)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
			t.Errorf("%s: round-trip predictions differ: %v", tr.Name(), err)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	d := synthDataset(200, 1, linearTarget)
	m, err := TreeTrainer{}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := SaveModelFile(path, m); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var x Features
	x[FCPUUtil] = 0.5
	if m.Predict(x) != m2.Predict(x) {
		t.Error("file round trip changed predictions")
	}
	// Files written by builds that tagged models with provenance carry
	// one more envelope key; they load as the plain model.
	var buf bytes.Buffer
	if err := SaveModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	tagged := strings.Replace(buf.String(), "{",
		`{"provenance":{"tenant":"s-1","generation":7,"origin":"online","parent":"DT"},`, 1)
	m3, err := LoadModel(strings.NewReader(tagged))
	if err != nil {
		t.Fatalf("model file with a provenance key: %v", err)
	}
	if m.Predict(x) != m3.Predict(x) {
		t.Error("provenance key changed predictions")
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(strings.NewReader("not json")); err == nil {
		t.Error("expected error for non-JSON input")
	}
	if _, err := LoadModel(strings.NewReader(`{"family":"XGB","data":{}}`)); err == nil {
		t.Error("expected error for unknown family")
	}
	// A tree with out-of-range children must be rejected.
	bad := `{"family":"DT","data":{"nodes":[{"f":0,"t":1,"l":5,"r":6,"v":0}]}}`
	if _, err := LoadModel(strings.NewReader(bad)); err == nil {
		t.Error("expected error for corrupt tree")
	}
	badFeat := `{"family":"DT","data":{"nodes":[{"f":99,"t":1,"l":0,"r":0,"v":0}]}}`
	if _, err := LoadModel(strings.NewReader(badFeat)); err == nil {
		t.Error("expected error for invalid feature index")
	}
}

// TestExportedGoTreeMatches: the generated Go source evaluates to the same
// values as the in-memory tree (checked by interpreting the generated
// decision structure textually on a few nodes, and structurally by
// ensuring every leaf value appears).
func TestExportTree(t *testing.T) {
	d := synthDataset(300, 5, nonlinearTarget)
	m, err := TreeTrainer{MaxDepth: 4}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	var cbuf, gbuf bytes.Buffer
	if err := ExportTreeC(&cbuf, m, "dopia_predict"); err != nil {
		t.Fatal(err)
	}
	if err := ExportTreeGo(&gbuf, m, "model", "Predict"); err != nil {
		t.Fatal(err)
	}
	cSrc, goSrc := cbuf.String(), gbuf.String()
	for _, want := range []string{"double dopia_predict(const double f[11])", "return", "if (f["} {
		if !strings.Contains(cSrc, want) {
			t.Errorf("C export missing %q:\n%s", want, cSrc)
		}
	}
	for _, want := range []string{"package model", "func Predict(f [11]float64) float64", "if f["} {
		if !strings.Contains(goSrc, want) {
			t.Errorf("Go export missing %q:\n%s", want, goSrc)
		}
	}
	// Structural completeness: the number of return statements equals the
	// number of leaves.
	tm := m.(*treeModel)
	leaves := 0
	for _, n := range tm.nodes {
		if n.feature < 0 {
			leaves++
		}
	}
	if got := strings.Count(cSrc, "return "); got != leaves {
		t.Errorf("C export has %d returns, tree has %d leaves", got, leaves)
	}
	if got := strings.Count(goSrc, "return "); got != leaves {
		t.Errorf("Go export has %d returns, tree has %d leaves", got, leaves)
	}
	// Exporters refuse non-tree models.
	lin, _ := LinearTrainer{}.Fit(d)
	if err := ExportTreeC(&bytes.Buffer{}, lin, ""); err == nil {
		t.Error("expected error exporting a linear model as a tree")
	}
}
