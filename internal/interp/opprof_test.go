package interp

import (
	"strings"
	"testing"
)

// grams indexes an n-gram list by its space-joined sequence.
func grams(list []OpNGram) map[string]uint64 {
	out := make(map[string]uint64, len(list))
	for _, g := range list {
		key := ""
		for i, s := range g.Seq {
			if i > 0 {
				key += " "
			}
			key += s
		}
		out[key] = g.Count
	}
	return out
}

// TestOpProfiler proves the opcode n-gram profiler observes the base
// (unfused) instruction stream, counts exactly, and merges race-free
// across shard workers. It flips the process-global switch and restores
// it, so the rest of the suite keeps lowering with mined fusion.
func TestOpProfiler(t *testing.T) {
	EnableOpProfiling()
	ResetOpProfile()
	defer func() {
		opProfOn = false
		ResetOpProfile()
	}()

	n := 48
	ex := newExec(t, gesummvSrc, "gesummv")
	ex.Engine = EngineBytecode
	ex.Parallelism = 4 // shard workers share the atomic tables
	A, B := NewFloatBuffer(n*n), NewFloatBuffer(n*n)
	x, y := NewFloatBuffer(n), NewFloatBuffer(n)
	if err := ex.Bind(BufArg(A), BufArg(B), BufArg(x), BufArg(y),
		FloatArg(1.5), FloatArg(0.5), IntArg(int64(n))); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ND1(n, 16)); err != nil {
		t.Fatal(err)
	}

	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}

	p := CurrentOpProfile(64)
	if p.Dispatches == 0 {
		t.Fatal("profiler recorded no dispatches")
	}
	ops := grams(p.Ops)
	// The profile sees the base stream: two FMA load-pairs per inner
	// iteration, never the fused head.
	wantFMA := uint64(2 * n * n)
	if got := ops["FMALd2MAF32"]; got != wantFMA {
		t.Fatalf("FMALd2MAF32 count = %d, want %d", got, wantFMA)
	}
	if got := ops["FMALoopF32"]; got != 0 {
		t.Fatalf("profile contains %d fused dispatches; profiling must disable the peephole", got)
	}
	pairs := grams(p.Pairs)
	if got := pairs["FMALd2MAF32 IncJCmpI"]; got == 0 {
		t.Fatal("loop back-edge pair missing from profile")
	}
	tris := grams(p.Trigrams)
	if got := tris["FMALd2MAF32 FMALd2MAF32 IncJCmpI"]; got != uint64(n*n) {
		t.Fatalf("loop trigram count = %d, want %d", got, n*n)
	}

	// A second identical run must double the merged counters exactly.
	if err := ex.Launch(ND1(n, 16)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	p2 := CurrentOpProfile(64)
	if got := grams(p2.Ops)["FMALd2MAF32"]; got != 2*wantFMA {
		t.Fatalf("after second run FMALd2MAF32 count = %d, want %d", got, 2*wantFMA)
	}
}

// TestFusedLoopPresent proves the mined peephole actually fires on the
// flagship workload: gesummv's inner loop must lower to a fused
// opFMALoopF32 head.
func TestFusedLoopPresent(t *testing.T) {
	n := 48
	ex := newExec(t, gesummvSrc, "gesummv")
	ex.Engine = EngineBytecode
	A, B := NewFloatBuffer(n*n), NewFloatBuffer(n*n)
	x, y := NewFloatBuffer(n), NewFloatBuffer(n)
	if err := ex.Bind(BufArg(A), BufArg(B), BufArg(x), BufArg(y),
		FloatArg(1.5), FloatArg(0.5), IntArg(int64(n))); err != nil {
		t.Fatal(err)
	}
	if err := ex.Launch(ND1(n, 16)); err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	if ex.prog == nil {
		t.Fatal("no bytecode program after launch")
	}
	fused := 0
	for _, code := range ex.prog.segments {
		for i := range code {
			if code[i].op == opFMALoopF32 {
				fused++
			}
		}
	}
	if fused == 0 {
		var ops []string
		for _, code := range ex.prog.segments {
			for i := range code {
				ops = append(ops, opName(code[i].op))
			}
		}
		t.Fatalf("gesummv lowered without a fused FMA loop:\n%s", strings.Join(ops, " "))
	}
}
