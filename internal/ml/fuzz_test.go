package ml

import (
	"bytes"
	"errors"
	"testing"

	"dopia/internal/faults"
)

// FuzzModelLoad fuzzes LoadModel, seeded with SaveModel output of every
// model family. No input may panic inside LoadModel (its Recover would
// hide one as an ordinary error), every error is classified as a
// model-load failure, and an accepted model predicts on the zero feature
// vector without panicking.
func FuzzModelLoad(f *testing.F) {
	d := synthDataset(40, 3, nonlinearTarget)
	for _, tr := range []Trainer{
		LinearTrainer{},
		SVRTrainer{},
		TreeTrainer{MaxDepth: 4},
		ForestTrainer{Trees: 3, MaxDepth: 3, Seed: 1},
	} {
		m, err := tr.Fit(d)
		if err != nil {
			f.Fatalf("%s: %v", tr.Name(), err)
		}
		var buf bytes.Buffer
		if err := SaveModel(&buf, m); err != nil {
			f.Fatalf("%s: %v", tr.Name(), err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			var pe *faults.PanicError
			if errors.As(err, &pe) {
				t.Fatalf("LoadModel contained a panic: %v\n%s", pe.Value, pe.Stack)
			}
			if faults.StageOf(err) != faults.StageModelLoad {
				t.Fatalf("error not classified as model-load: %v", err)
			}
			return
		}
		if m == nil {
			t.Fatal("nil model without an error")
		}
		m.Predict(Features{})
	})
}
