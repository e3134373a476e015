package workloads_test

import (
	"errors"
	"reflect"
	"testing"

	"dopia/internal/core"
	"dopia/internal/faults"
	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// sameSourcePair returns two grid workloads that differ in size or
// work-group size and share their source text.
func sameSourcePair(t *testing.T) (*workloads.Workload, *workloads.Workload) {
	t.Helper()
	grid, err := workloads.SyntheticGrid()
	if err != nil {
		t.Fatal(err)
	}
	a, b := grid[0], grid[1]
	if a.Name == b.Name || a.Source != b.Source {
		t.Fatalf("%s and %s do not share a source", a.Name, b.Name)
	}
	return a, b
}

// TestCompileKernelSharesEqualSources: two workloads with one source
// text get one kernel; another text gets another.
func TestCompileKernelSharesEqualSources(t *testing.T) {
	a, b := sameSourcePair(t)
	ka, err := a.CompileKernel()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.CompileKernel()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Errorf("%s and %s share a source but got distinct kernels", a.Name, b.Name)
	}
	other := *a
	other.Source += "\n// another text"
	ko, err := other.CompileKernel()
	if err != nil {
		t.Fatal(err)
	}
	if ko == ka {
		t.Error("distinct sources share a kernel")
	}
}

// TestCompileKernelPrivateWhileFaultsArmed: while a fault plan is armed,
// every call compiles — each returns its own kernel, and an armed
// clc.parse plan fires on every call once its skipped hits are spent.
func TestCompileKernelPrivateWhileFaultsArmed(t *testing.T) {
	a, _ := sameSourcePair(t)
	if _, err := a.CompileKernel(); err != nil { // resident before arming
		t.Fatal(err)
	}
	boom := errors.New("boom")
	faults.Inject("clc.parse", faults.Plan{Err: boom, After: 2})
	t.Cleanup(faults.Reset)
	k1, err1 := a.CompileKernel()
	k2, err2 := a.CompileKernel()
	if err1 != nil || err2 != nil {
		t.Fatalf("compiles before the plan fires: %v, %v", err1, err2)
	}
	if k1 == k2 {
		t.Error("two compiles while faults are armed returned one kernel")
	}
	const calls = 3
	for i := range calls {
		if _, err := a.CompileKernel(); !errors.Is(err, boom) {
			t.Fatalf("call %d with clc.parse armed: got %v, want the injected error", i, err)
		}
	}
	if n := faults.HitCount("clc.parse"); n != 2+calls {
		t.Errorf("clc.parse reached %d times, want %d", n, 2+calls)
	}
}

// TestConcurrentEvaluateSharedSources runs EvaluateAll at parallelism 4
// over grid workloads that share four sources, twice: the workers share
// each kernel and its memos (run under -race in CI), and both passes
// equal a sequential one.
func TestConcurrentEvaluateSharedSources(t *testing.T) {
	grid, err := workloads.SyntheticGrid()
	if err != nil {
		t.Fatal(err)
	}
	slice := grid[:24]
	sources := map[string]bool{}
	for _, w := range slice {
		sources[w.Source] = true
	}
	if len(sources) != 4 {
		t.Fatalf("the slice has %d sources, want 4", len(sources))
	}
	m := sim.Skylake()
	want, err := core.EvaluateAll(m, slice, 1)
	if err != nil {
		t.Fatal(err)
	}
	for pass := range 2 {
		got, err := core.EvaluateAll(m, slice, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pass %d at parallelism 4 differs from the sequential pass", pass)
		}
	}
}
