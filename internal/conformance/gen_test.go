package conformance

import (
	"testing"
)

// TestGenerateCompiles asserts the generator's core contract: every
// generated case compiles through the real clc front end (Generate
// self-checks and returns an error otherwise) for a wide seed sweep.
func TestGenerateCompiles(t *testing.T) {
	tot, trap := 0, 0
	for i := 0; i < 400; i++ {
		c, err := Generate(CaseSeed(0xd0b1a, i))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if c.Kernel == "" || c.Source == "" || len(c.Args) == 0 {
			t.Fatalf("case %d: incomplete case %s", i, c)
		}
		if c.Class == ClassTrappy {
			trap++
		} else {
			tot++
		}
		// Every case must have at least one out buffer sized to the ND
		// range, so the oracle always has state to compare.
		var out bool
		for j := range c.Args {
			a := &c.Args[j]
			if a.Out && a.IsBuf() {
				out = true
			}
		}
		if !out {
			t.Fatalf("case %d has no output buffer:\n%s", i, c.Source)
		}
	}
	if tot == 0 || trap == 0 {
		t.Fatalf("class mix degenerate: total=%d trappy=%d", tot, trap)
	}
	t.Logf("generated %d total, %d trappy", tot, trap)
}

// TestGenerateDeterministic asserts bit-identical regeneration from the
// same seed: same source, geometry, and initial argument contents.
func TestGenerateDeterministic(t *testing.T) {
	for i := 0; i < 64; i++ {
		seed := CaseSeed(7, i)
		a, err := Generate(seed)
		if err != nil {
			t.Fatalf("gen a: %v", err)
		}
		b, err := Generate(seed)
		if err != nil {
			t.Fatalf("gen b: %v", err)
		}
		if a.Source != b.Source {
			t.Fatalf("seed %#x: source differs:\n--- a\n%s\n--- b\n%s", seed, a.Source, b.Source)
		}
		if a.Class != b.Class || a.Kernel != b.Kernel {
			t.Fatalf("seed %#x: metadata differs", seed)
		}
		if len(a.Args) != len(b.Args) {
			t.Fatalf("seed %#x: arg count differs", seed)
		}
		for j := range a.Args {
			x, y := &a.Args[j], &b.Args[j]
			if x.Name != y.Name || x.Kind != y.Kind || x.Out != y.Out ||
				x.IVal != y.IVal || x.FVal != y.FVal {
				t.Fatalf("seed %#x arg %d: spec differs", seed, j)
			}
			for k := range x.F32 {
				if x.F32[k] != y.F32[k] {
					t.Fatalf("seed %#x arg %s: F32[%d] differs", seed, x.Name, k)
				}
			}
			for k := range x.I32 {
				if x.I32[k] != y.I32[k] {
					t.Fatalf("seed %#x arg %s: I32[%d] differs", seed, x.Name, k)
				}
			}
		}
	}
}

// TestGenerateFeatureCoverage sweeps seeds and asserts the generator
// actually exercises its advertised feature axes (2D ranges, local
// memory + barriers, atomics, loops, data-dependent bounds, branches,
// affine neighbour reads).
func TestGenerateFeatureCoverage(t *testing.T) {
	seen := map[string]int{}
	for i := 0; i < 400; i++ {
		c, err := Generate(CaseSeed(3, i))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if c.spec == nil {
			t.Fatalf("case %d: generated case lost its spec", i)
		}
		sig := c.spec.FeatureSig()
		for _, f := range splitSig(sig) {
			seen[f]++
		}
	}
	for _, want := range []string{"2d", "local", "loop", "datadep", "branch", "trappy", "affine"} {
		if seen[want] == 0 {
			t.Errorf("feature %q never generated (coverage map: %v)", want, seen)
		}
	}
	var atomic bool
	for f := range seen {
		if len(f) > 7 && f[:7] == "atomic-" {
			atomic = true
		}
	}
	if !atomic {
		t.Errorf("no atomic family ever generated: %v", seen)
	}
	t.Logf("feature histogram: %v", seen)
}

func splitSig(sig string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(sig); i++ {
		if i == len(sig) || sig[i] == '+' {
			if i > start {
				out = append(out, sig[start:i])
			}
			start = i + 1
		}
	}
	return out
}
