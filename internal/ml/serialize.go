package ml

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"dopia/internal/faults"
)

// This file implements model persistence: a trained model can be saved to
// JSON and reloaded without retraining, mirroring Dopia's offline-train /
// online-infer split (the paper trains with scikit-learn offline and ships
// the model into the runtime).

// modelEnvelope wraps any serialized model with its family tag. Keys it
// does not name (a "provenance" block written by older builds) are
// ignored, so such files load unchanged.
type modelEnvelope struct {
	Family string          `json:"family"`
	Data   json.RawMessage `json:"data"`
}

type linearJSON struct {
	Mean [NumFeatures]float64 `json:"mean"`
	Std  [NumFeatures]float64 `json:"std"`
	W    []float64            `json:"w"`
}

type svrJSON struct {
	Mean  [NumFeatures]float64 `json:"mean"`
	Std   [NumFeatures]float64 `json:"std"`
	Gamma float64              `json:"gamma"`
	Xs    []Features           `json:"support"`
	Alpha []float64            `json:"alpha"`
}

type treeJSON struct {
	Nodes []treeNodeJSON `json:"nodes"`
}

type treeNodeJSON struct {
	Feature int     `json:"f"`
	Thresh  float64 `json:"t"`
	Left    int32   `json:"l"`
	Right   int32   `json:"r"`
	Value   float64 `json:"v"`
}

type forestJSON struct {
	Trees []treeJSON `json:"trees"`
}

// SaveModel serializes a trained model to the writer.
func SaveModel(w io.Writer, m Model) error {
	env := modelEnvelope{Family: m.Name()}
	var payload any
	switch mm := m.(type) {
	case *linearModel:
		payload = linearJSON{Mean: mm.scale.mean, Std: mm.scale.std, W: mm.w}
	case *svrModel:
		payload = svrJSON{
			Mean: mm.scale.mean, Std: mm.scale.std,
			Gamma: mm.gamma, Xs: mm.xs, Alpha: mm.alpha,
		}
	case *treeModel:
		payload = treeToJSON(mm)
	case *forestModel:
		fj := forestJSON{}
		for _, t := range mm.trees {
			fj.Trees = append(fj.Trees, treeToJSON(t))
		}
		payload = fj
	default:
		return fmt.Errorf("ml: cannot serialize model type %T", m)
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	env.Data = raw
	return json.NewEncoder(w).Encode(env)
}

// invalidf builds a descriptive, classified model-load error.
func invalidf(format string, args ...any) error {
	return faults.Wrap(faults.StageModelLoad,
		fmt.Errorf("%w: %s", faults.ErrModelInvalid, fmt.Sprintf(format, args...)))
}

// finiteSlice reports the index of the first non-finite value, or -1.
func nonFiniteAt(vs []float64) int {
	for i, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i
		}
	}
	return -1
}

// checkScaler validates a deserialized feature scaler: all statistics
// finite, no zero or negative standard deviations (which would blow up
// or invert the normalization).
func checkScaler(mean, std [NumFeatures]float64) error {
	if i := nonFiniteAt(mean[:]); i >= 0 {
		return invalidf("scaler mean[%d] is not finite (%v)", i, mean[i])
	}
	if i := nonFiniteAt(std[:]); i >= 0 {
		return invalidf("scaler std[%d] is not finite (%v)", i, std[i])
	}
	for i, s := range std {
		if s <= 0 {
			return invalidf("scaler std[%d] = %v, want > 0", i, s)
		}
	}
	return nil
}

// LoadModel reads a model serialized with SaveModel, validating the
// payload defensively: truncated or corrupted streams, wrong weight
// counts, non-finite (NaN/Inf) weights, malformed tree topologies, and
// unknown families all produce descriptive, classified errors instead of
// a garbage model. LoadModel never panics.
func LoadModel(r io.Reader) (m Model, err error) {
	defer faults.Recover(faults.StageModelLoad, &err)
	if err := faults.Hit("ml.load"); err != nil {
		return nil, faults.Wrap(faults.StageModelLoad, err)
	}
	var env modelEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, faults.Wrap(faults.StageModelLoad, fmt.Errorf(
			"%w: ml: model file truncated or not valid JSON: %w", faults.ErrModelInvalid, err))
	}
	switch env.Family {
	case "LIN":
		var lj linearJSON
		if err := json.Unmarshal(env.Data, &lj); err != nil {
			return nil, invalidf("linear payload corrupted: %v", err)
		}
		if len(lj.W) != NumFeatures+1 {
			return nil, invalidf("linear model has %d weights, want %d", len(lj.W), NumFeatures+1)
		}
		if i := nonFiniteAt(lj.W); i >= 0 {
			return nil, invalidf("linear weight w[%d] is not finite (%v)", i, lj.W[i])
		}
		if err := checkScaler(lj.Mean, lj.Std); err != nil {
			return nil, err
		}
		return &linearModel{scale: &scaler{mean: lj.Mean, std: lj.Std}, w: lj.W}, nil
	case "SVR":
		var sj svrJSON
		if err := json.Unmarshal(env.Data, &sj); err != nil {
			return nil, invalidf("SVR payload corrupted: %v", err)
		}
		if len(sj.Xs) != len(sj.Alpha) {
			return nil, invalidf("SVR support/alpha length mismatch (%d vs %d)", len(sj.Xs), len(sj.Alpha))
		}
		if i := nonFiniteAt(sj.Alpha); i >= 0 {
			return nil, invalidf("SVR alpha[%d] is not finite (%v)", i, sj.Alpha[i])
		}
		if math.IsNaN(sj.Gamma) || math.IsInf(sj.Gamma, 0) || sj.Gamma < 0 {
			return nil, invalidf("SVR gamma %v invalid, want finite >= 0", sj.Gamma)
		}
		for i, x := range sj.Xs {
			if j := nonFiniteAt(x[:]); j >= 0 {
				return nil, invalidf("SVR support vector %d feature %d is not finite (%v)", i, j, x[j])
			}
		}
		if err := checkScaler(sj.Mean, sj.Std); err != nil {
			return nil, err
		}
		return &svrModel{
			scale: &scaler{mean: sj.Mean, std: sj.Std},
			gamma: sj.Gamma, xs: sj.Xs, alpha: sj.Alpha,
		}, nil
	case "DT":
		var tj treeJSON
		if err := json.Unmarshal(env.Data, &tj); err != nil {
			return nil, invalidf("decision-tree payload corrupted: %v", err)
		}
		tm, err := treeFromJSON(tj)
		if err != nil {
			return nil, err // avoid a typed-nil Model interface
		}
		return tm, nil
	case "RF":
		var fj forestJSON
		if err := json.Unmarshal(env.Data, &fj); err != nil {
			return nil, invalidf("forest payload corrupted: %v", err)
		}
		if len(fj.Trees) == 0 {
			return nil, invalidf("forest has no trees")
		}
		fm := &forestModel{}
		for i, tj := range fj.Trees {
			t, err := treeFromJSON(tj)
			if err != nil {
				return nil, fmt.Errorf("ml: forest tree %d: %w", i, err)
			}
			fm.trees = append(fm.trees, t)
		}
		return fm, nil
	}
	return nil, invalidf("unknown model family %q", env.Family)
}

// SaveModelFile and LoadModelFile are path-based conveniences.
func SaveModelFile(path string, m Model) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return SaveModel(f, m)
}

// LoadModelFile reads a model from a file written by SaveModelFile.
func LoadModelFile(path string) (Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, faults.Wrap(faults.StageModelLoad, err)
	}
	defer f.Close()
	return LoadModel(f)
}

func treeToJSON(t *treeModel) treeJSON {
	tj := treeJSON{Nodes: make([]treeNodeJSON, len(t.nodes))}
	for i, n := range t.nodes {
		tj.Nodes[i] = treeNodeJSON{
			Feature: n.feature, Thresh: n.thresh,
			Left: n.left, Right: n.right, Value: n.value,
		}
	}
	return tj
}

func treeFromJSON(tj treeJSON) (*treeModel, error) {
	if len(tj.Nodes) == 0 {
		return nil, invalidf("decision tree has no nodes")
	}
	t := &treeModel{nodes: make([]treeNode, len(tj.Nodes))}
	for i, n := range tj.Nodes {
		if n.Feature >= NumFeatures {
			return nil, invalidf("tree node %d has invalid feature %d (max %d)", i, n.Feature, NumFeatures-1)
		}
		if math.IsNaN(n.Value) || math.IsInf(n.Value, 0) {
			return nil, invalidf("tree node %d has non-finite value %v", i, n.Value)
		}
		if n.Feature >= 0 {
			if math.IsNaN(n.Thresh) || math.IsInf(n.Thresh, 0) {
				return nil, invalidf("tree node %d has non-finite threshold %v", i, n.Thresh)
			}
			// Children must point strictly forward (the trainer emits
			// pre-order trees); this also guarantees Predict terminates
			// on any accepted tree — no cycles possible.
			if int(n.Left) <= i || int(n.Left) >= len(tj.Nodes) ||
				int(n.Right) <= i || int(n.Right) >= len(tj.Nodes) {
				return nil, invalidf("tree node %d has out-of-range or backward children (l=%d r=%d of %d)",
					i, n.Left, n.Right, len(tj.Nodes))
			}
		}
		t.nodes[i] = treeNode{
			feature: n.Feature, thresh: n.Thresh,
			left: n.Left, right: n.Right, value: n.Value,
		}
	}
	return t, nil
}
