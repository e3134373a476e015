package ml

import (
	"math/rand"
	"testing"
)

func randomSample(rng *rand.Rand) Sample {
	var x Features
	for i := range x {
		x[i] = rng.Float64()*100 - 50
	}
	y := 0.3*x[0] - 0.7*x[4] + 0.05*x[9] + rng.NormFloat64()*0.1
	return Sample{X: x, Y: y}
}

func TestProvenanceRoundTrip(t *testing.T) {
	d := &Dataset{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		d.Samples = append(d.Samples, randomSample(rng))
	}
	m, err := LinearTrainer{}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	p := Provenance{Tenant: "s-1", Generation: 7, Samples: 40, Origin: "online", Parent: "LIN"}
	tagged := WithProvenance(m, p)
	if got, ok := ProvenanceOf(tagged); !ok || got != p {
		t.Fatalf("ProvenanceOf = %+v, %v; want %+v", got, ok, p)
	}
	// Tagging must not change predictions.
	x := randomSample(rng).X
	if tagged.Predict(x) != m.Predict(x) {
		t.Fatal("provenance wrapper changed predictions")
	}
	// Round-trip through serialization.
	path := t.TempDir() + "/model.json"
	if err := SaveModelFile(path, tagged); err != nil {
		t.Fatalf("save: %v", err)
	}
	back, err := LoadModelFile(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got, ok := ProvenanceOf(back); !ok || got != p {
		t.Fatalf("provenance lost in round trip: %+v, %v", got, ok)
	}
	if back.Predict(x) != m.Predict(x) {
		t.Fatal("round-tripped model predicts differently")
	}
	// Untagged models keep loading without provenance.
	if err := SaveModelFile(path, m); err != nil {
		t.Fatal(err)
	}
	plain, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ProvenanceOf(plain); ok {
		t.Fatal("plain model grew provenance from nowhere")
	}
}
