package core

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
)

// evalFile is the on-disk form of a workload characterization set, used by
// cmd/dopia-train to cache the expensive simulation sweeps.
type evalFile struct {
	Machine string          `json:"machine"`
	Evals   []*WorkloadEval `json:"evals"`
}

// SaveEvals writes workload characterizations to a gzipped JSON file.
func SaveEvals(path, machine string, evals []*WorkloadEval) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	if err := enc.Encode(evalFile{Machine: machine, Evals: evals}); err != nil {
		zw.Close()
		return err
	}
	return zw.Close()
}

// LoadEvals reads characterizations written by SaveEvals, checking they
// were produced for the expected machine.
func LoadEvals(path, machine string) ([]*WorkloadEval, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("core: %s is not a gzipped eval file: %w", path, err)
	}
	defer zr.Close()
	var ef evalFile
	if err := json.NewDecoder(zr).Decode(&ef); err != nil {
		return nil, err
	}
	if machine != "" && ef.Machine != machine {
		return nil, fmt.Errorf("core: eval file %s is for machine %q, want %q",
			path, ef.Machine, machine)
	}
	return ef.Evals, nil
}
