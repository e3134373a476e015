package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// bench8Baseline has the shape of the checked-in BENCH_8.json: report
// fields and per-record lane_width values written before the lane tier
// was deleted (ignored on load), per-machine rows, and SchedSweep rows.
const bench8Baseline = `{
  "date": "2026-08-08", "go_version": "go1.24.0", "num_cpu": 1, "gomaxprocs": 1,
  "dopia_parallelism": 1, "dopia_engine": "bytecode",
  "benchmarks": [
    {"name": "InterpreterGesummv", "n": 2984, "ns_per_op": 390000, "allocs_per_op": 0, "engine": "bytecode", "lane_width": 8},
    {"name": "InterpreterGesummvScalar", "n": 3602, "ns_per_op": 365000, "allocs_per_op": 0, "engine": "bytecode", "lane_width": 1},
    {"name": "Fig1Heatmap", "n": 1000, "ns_per_op": 7000, "allocs_per_op": 51, "engine": "bytecode", "machine": "Kaveri"},
    {"name": "Fig1Heatmap", "n": 1000, "ns_per_op": 9000, "allocs_per_op": 51, "engine": "bytecode", "machine": "Skylake"},
    {"name": "StaticAnalysis", "n": 50047, "ns_per_op": 23000, "allocs_per_op": 105, "engine": "none"},
    {"name": "SchedSweep/Kaveri/GESUMMV.n2048.wg256/static", "n": 1, "ns_per_op": 7372800, "engine": "sim", "machine": "Kaveri"},
    {"name": "SchedSweep/AppleM/GESUMMV.n2048.wg256/hguided", "n": 1, "ns_per_op": 5100000, "engine": "sim", "machine": "AppleM"}
  ]
}`

// freshReport is what -out writes today for the baseline's benchmarks:
// no lane widths, no scalar gesummv row, and the per-machine rows in
// the opposite order, so a lookup by name alone would pair Skylake's
// 9000 ns with Kaveri's 7000 ns baseline (+28.6%).
func freshReport() benchReport {
	return benchReport{GoMaxProcs: 2, Benchmarks: []benchRecord{
		{Name: "InterpreterGesummv", NsPerOp: 370000, Engine: "bytecode"},
		{Name: "Fig1Heatmap", NsPerOp: 9000, AllocsPerOp: 51, Engine: "bytecode", Machine: "Skylake"},
		{Name: "Fig1Heatmap", NsPerOp: 7000, AllocsPerOp: 51, Engine: "bytecode", Machine: "Kaveri"},
		// The baseline row has no machine: it matches by name alone.
		{Name: "StaticAnalysis", NsPerOp: 23000, AllocsPerOp: 105, Engine: "none", Machine: "Kaveri"},
		{Name: "SchedSweep/Kaveri/GESUMMV.n2048.wg256/static", NsPerOp: 7372800, Engine: "sim", Machine: "Kaveri"},
		{Name: "SchedSweep/AppleM/GESUMMV.n2048.wg256/hguided", NsPerOp: 5100000, Engine: "sim", Machine: "AppleM"},
	}}
}

func TestCompareReports(t *testing.T) {
	const threshold = 25
	cases := []struct {
		name         string
		edit         func(r *benchReport)
		allowMissing bool
		wantErr      string // "" = must pass
	}{
		{name: "old baseline matches, scalar row waived", allowMissing: true},
		{name: "scalar row missing fails without -allow-missing", wantErr: "1 benchmark regression"},
		{
			name:         "ns/op regression still fails",
			edit:         func(r *benchReport) { r.Benchmarks[0].NsPerOp = 390000 * 1.3 },
			allowMissing: true, wantErr: "1 benchmark regression",
		},
		{
			name:         "allocs/op regression on one machine's row still fails",
			edit:         func(r *benchReport) { r.Benchmarks[1].AllocsPerOp = 80 },
			allowMissing: true, wantErr: "1 benchmark regression",
		},
		{
			name:         "sweep row regression still fails",
			edit:         func(r *benchReport) { r.Benchmarks[5].NsPerOp *= 2 },
			allowMissing: true, wantErr: "1 benchmark regression",
		},
	}
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	if err := os.WriteFile(oldPath, []byte(bench8Baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := freshReport()
			if tc.edit != nil {
				tc.edit(&rep)
			}
			data, err := json.Marshal(&rep)
			if err != nil {
				t.Fatal(err)
			}
			newPath := filepath.Join(t.TempDir(), "new.json")
			if err := os.WriteFile(newPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			err = compareReports(oldPath, newPath, threshold, tc.allowMissing)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("compare failed: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("compare error = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}
