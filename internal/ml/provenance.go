package ml

// Provenance records where a model came from, carried alongside the
// model through serialization and the /v1/models endpoint.
type Provenance struct {
	// Tenant that the model was trained for ("" = global).
	Tenant string `json:"tenant,omitempty"`
	// Generation assigned when the model was published (0 = static).
	Generation uint64 `json:"generation,omitempty"`
	// Samples is how many (features, target) rows the model was built
	// from.
	Samples int `json:"samples,omitempty"`
	// Origin describes how the model was produced ("offline", "online",
	// ...).
	Origin string `json:"origin,omitempty"`
	// Parent names the model this one was built over.
	Parent string `json:"parent,omitempty"`
	// TrainedUnixMS is the wall-clock fit time in Unix milliseconds.
	TrainedUnixMS int64 `json:"trained_unix_ms,omitempty"`
}

// provModel attaches provenance to a model without changing its
// predictions. Prediction hot paths receive the unwrapped inner model.
type provModel struct {
	Model
	prov Provenance
}

// WithProvenance returns the model tagged with provenance. Tagging an
// already-tagged model replaces its provenance.
func WithProvenance(m Model, p Provenance) Model {
	if pm, ok := m.(*provModel); ok {
		m = pm.Model
	}
	return &provModel{Model: m, prov: p}
}

// ProvenanceOf extracts a model's provenance tag, if any.
func ProvenanceOf(m Model) (Provenance, bool) {
	if pm, ok := m.(*provModel); ok {
		return pm.prov, true
	}
	return Provenance{}, false
}

// Unwrap strips a provenance tag, returning the underlying model.
func Unwrap(m Model) Model {
	if pm, ok := m.(*provModel); ok {
		return pm.Model
	}
	return m
}
