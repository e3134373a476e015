package clc_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"dopia/internal/clc"
	"dopia/internal/faults"
)

type (
	testKey  struct{}
	otherKey struct{ n int }
)

func memoKernel(t *testing.T) *clc.Kernel {
	t.Helper()
	prog, err := clc.Compile(`__kernel void k(__global float* a) { a[get_global_id(0)] = 1.0f; }`)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Kernels[0]
}

// TestMemoBuildsOncePerKey races the first Memo of one key from many
// goroutines: build runs once and everyone shares its result. Distinct
// keys, and the same key on another kernel, are separate entries.
func TestMemoBuildsOncePerKey(t *testing.T) {
	k := memoKernel(t)
	var builds atomic.Int32
	build := func() (*int, error) {
		builds.Add(1)
		return new(int), nil
	}
	const G = 32
	got := make([]*int, G)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			v, err := clc.Memo(k, testKey{}, build)
			if err != nil {
				t.Errorf("Memo: %v", err)
			}
			got[g] = v
		}(g)
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times for one key, want 1", n)
	}
	for g := 1; g < G; g++ {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d got a different value", g)
		}
	}

	a, _ := clc.Memo(k, otherKey{1}, build)
	b, _ := clc.Memo(k, otherKey{2}, build)
	c, _ := clc.Memo(memoKernel(t), testKey{}, build)
	if a == got[0] || b == a || c == got[0] {
		t.Error("distinct keys or kernels share an entry")
	}
	if n := builds.Load(); n != 4 {
		t.Fatalf("build ran %d times for four entries", n)
	}
}

// TestMemoKeepsErrors: a failed build is stored and returned without
// running build again; a build that panics stores nothing.
func TestMemoKeepsErrors(t *testing.T) {
	k := memoKernel(t)
	refused := errors.New("refused")
	builds := 0
	for i := 0; i < 3; i++ {
		v, err := clc.Memo(k, testKey{}, func() (*int, error) {
			builds++
			return nil, refused
		})
		if v != nil || !errors.Is(err, refused) {
			t.Fatalf("call %d: got (%v, %v), want the stored error", i, v, err)
		}
	}
	if builds != 1 {
		t.Fatalf("failing build ran %d times, want 1", builds)
	}

	panics := 0
	for i := 0; i < 2; i++ {
		func() {
			defer func() { _ = recover() }()
			_, _ = clc.Memo(k, otherKey{0}, func() (int, error) { panics++; panic("bug") })
		}()
	}
	if panics != 2 {
		t.Fatalf("panicking build ran %d times in two calls, want 2", panics)
	}
	if v, err := clc.Memo(k, otherKey{0}, func() (int, error) { return 7, nil }); v != 7 || err != nil {
		t.Fatalf("entry unusable after a panicking build: (%v, %v)", v, err)
	}
}

// TestMemoBypassedWhileFaultsArmed: with any injection point armed the
// memo is neither read nor written, so an injected failure reaches only
// the callers that ran while it was armed.
func TestMemoBypassedWhileFaultsArmed(t *testing.T) {
	t.Cleanup(faults.Reset)
	k := memoKernel(t)
	injected := errors.New("injected")
	builds := 0
	build := func() (int, error) {
		builds++
		if err := faults.Hit("memo.test"); err != nil {
			return 0, err
		}
		return builds, nil
	}

	// Armed before the first use: every call builds, nothing is stored.
	faults.InjectError("memo.test", injected)
	for i := 0; i < 2; i++ {
		if _, err := clc.Memo(k, testKey{}, build); !errors.Is(err, injected) {
			t.Fatalf("armed call %d: err = %v, want the injected error", i, err)
		}
	}
	faults.Reset()
	v, err := clc.Memo(k, testKey{}, build)
	if err != nil || v != 3 {
		t.Fatalf("un-armed caller got (%v, %v): the injected failure was stored", v, err)
	}

	// Armed after the entry exists: the stored value is not read.
	faults.InjectError("memo.test", injected)
	if _, err := clc.Memo(k, testKey{}, build); !errors.Is(err, injected) {
		t.Fatalf("armed call read the stored value: err = %v", err)
	}
	faults.Reset()
	if v, err := clc.Memo(k, testKey{}, build); err != nil || v != 3 {
		t.Fatalf("stored value lost or overwritten while armed: (%v, %v)", v, err)
	}
	if builds != 4 {
		t.Fatalf("build ran %d times, want 4 (2 armed, 1 stored, 1 armed)", builds)
	}

	// Armed while the first build is in flight: handed back, not kept.
	_, err = clc.Memo(k, otherKey{0}, func() (int, error) {
		faults.InjectError("memo.test", injected)
		return 0, faults.Hit("memo.test")
	})
	if !errors.Is(err, injected) {
		t.Fatalf("in-flight arm: err = %v", err)
	}
	faults.Reset()
	if v, err := clc.Memo(k, otherKey{0}, func() (int, error) { return 9, nil }); err != nil || v != 9 {
		t.Fatalf("failure injected mid-build was served to an un-armed caller: (%v, %v)", v, err)
	}
}
