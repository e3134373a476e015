// Package conformance is Dopia's generative differential-conformance
// harness. It closes the gap between the repo's pairwise equivalence
// claims — closure vs bytecode engine, sequential vs sharded, managed
// vs fallback rungs, local vs dopiad replay — and the combinatorial
// space of programs those claims must hold over.
//
// The harness has three parts:
//
//   - a seeded random-program generator (gen.go) that emits well-typed
//     OpenCL C kernels over the exact clc subset (global/local buffers,
//     loops with affine and data-dependent bounds, barriers, atomics,
//     ternaries, int/float mixes) together with matching deterministic
//     buffer initializations;
//
//   - an N-way differential oracle (oracle.go) that runs each case
//     across the full configuration lattice — {closure, bytecode}
//     engines × shard counts {1, 3, GOMAXPROCS} × ladder rungs
//     (managed / co-exec ALL / plain, forced via armed fault
//     injection) × {direct interpretation, dopiad round-trip through
//     an embedded server} — and asserts bit-identical buffers, site
//     profiles, trap text, and RunStats totals;
//
//   - automatic test-case shrinking (shrink.go) with a JSON repro dump
//     (crasher.go) written to testdata/conformance/crashers/ whenever
//     a divergence survives.
//
// Cases come in two classes. ClassTotal kernels are trap-free by
// construction (masked indices, guarded divisors, single-writer output
// discipline, order-commutative atomics) and run the entire lattice.
// ClassTrappy kernels may fault at runtime (unguarded division,
// unmasked indices); they run the engine differential only, at
// parallelism 1, where partial trap state is deterministic, and the
// oracle compares the trap text itself.
package conformance

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"dopia/internal/interp"
)

// Class partitions generated cases by trap behaviour.
type Class int

// Case classes.
const (
	// ClassTotal kernels cannot trap: every leg of the lattice must
	// succeed and agree bit-exactly.
	ClassTotal Class = iota
	// ClassTrappy kernels may trap at runtime; both engines must agree
	// on the trap text and the partial state at parallelism 1.
	ClassTrappy
)

func (c Class) String() string {
	if c == ClassTrappy {
		return "trappy"
	}
	return "total"
}

// ArgSpec is one kernel argument of a generated case: a float32/int32
// buffer with recorded initial contents, or a scalar.
type ArgSpec struct {
	Name string
	// Kind is "fbuf", "ibuf", "int", or "float".
	Kind string
	// F32/I32 hold the initial buffer contents (buffers only).
	F32 []float32
	I32 []int32
	// IVal/FVal hold the scalar value (scalars only).
	IVal int64
	FVal float64
	// Out marks buffers the kernel writes (indexed stores or atomics).
	Out bool
}

// IsBuf reports whether the argument is a buffer.
func (a *ArgSpec) IsBuf() bool { return a.Kind == "fbuf" || a.Kind == "ibuf" }

// Len returns the buffer element count (0 for scalars).
func (a *ArgSpec) Len() int {
	if a.Kind == "fbuf" {
		return len(a.F32)
	}
	return len(a.I32)
}

// NewBuffer materializes a fresh interpreter buffer holding the
// argument's initial contents. Each oracle leg gets its own copy, so
// legs can never observe each other's writes.
func (a *ArgSpec) NewBuffer() *interp.Buffer {
	switch a.Kind {
	case "fbuf":
		b := interp.NewFloatBuffer(len(a.F32))
		copy(b.F32, a.F32)
		return b
	case "ibuf":
		b := interp.NewIntBuffer(len(a.I32))
		copy(b.I32, a.I32)
		return b
	}
	return nil
}

// Arg returns the interp argument for one fresh leg: a new buffer copy
// or the scalar value.
func (a *ArgSpec) Arg() interp.Arg {
	switch a.Kind {
	case "fbuf", "ibuf":
		return interp.BufArg(a.NewBuffer())
	case "float":
		return interp.FloatArg(a.FVal)
	default:
		return interp.IntArg(a.IVal)
	}
}

// Case is one generated conformance test case: a compiling kernel, its
// launch geometry, and deterministic initial arguments.
type Case struct {
	// Seed reproduces the case through Generate (0 for cases loaded
	// from a crasher file, whose source is authoritative instead).
	Seed  uint64
	Class Class
	// Source is the OpenCL C program text; Kernel names the kernel.
	Source string
	Kernel string
	ND     interp.NDRange
	Args   []ArgSpec

	// spec is the structured form the generator produced, retained so
	// the shrinker can mutate and re-render it. Nil for loaded cases.
	spec *progSpec
}

// FeatureSig returns the grammar-feature signature of a generated case
// ("" for cases rebuilt from a crasher file, which carry no spec).
func (c *Case) FeatureSig() string {
	if c.spec == nil {
		return ""
	}
	return c.spec.FeatureSig()
}

// String identifies the case in failure messages.
func (c *Case) String() string {
	return fmt.Sprintf("case(seed=%#x class=%s kernel=%s nd=%dx%v/%v)",
		c.Seed, c.Class, c.Kernel, c.ND.Dims, c.ND.Global, c.ND.Local)
}

// repoRoot locates the repository root from this source file's path, so
// testdata directories resolve regardless of the test working
// directory.
func repoRoot() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "."
	}
	// file = <root>/internal/conformance/conformance.go
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// SeedsDir returns the checked-in conformance seed corpus directory
// (testdata/conformance/seeds), shared with the clc front-end fuzzers.
func SeedsDir() string {
	return filepath.Join(repoRoot(), "testdata", "conformance", "seeds")
}

// CrashersDir returns the directory divergence repro files are dumped
// into (testdata/conformance/crashers).
func CrashersDir() string {
	return filepath.Join(repoRoot(), "testdata", "conformance", "crashers")
}

// SeedSources reads every .cl file of the seed corpus. A missing
// directory yields an empty slice, never an error: the corpus is an
// additive source of seeds.
func SeedSources() ([]string, error) {
	ents, err := os.ReadDir(SeedsDir())
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".cl" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(SeedsDir(), e.Name()))
		if err != nil {
			return nil, err
		}
		out = append(out, string(data))
	}
	return out, nil
}

// splitmix64 is the SplitMix64 mixing function — the per-case seed
// derivation, so consecutive case indices yield decorrelated streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// CaseSeed derives the seed of case index i from a run's base seed.
func CaseSeed(base uint64, i int) uint64 {
	return splitmix64(base ^ splitmix64(uint64(i)+1))
}
