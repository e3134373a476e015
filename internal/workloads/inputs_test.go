package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
)

// instanceDigest hashes everything a Setup hands a launch: each
// argument's buffer kind, length and bytes or its scalar bits, the
// ND-range, the buffer sizes and the output list.
func instanceDigest(inst *Instance) string {
	h := sha256.New()
	for _, a := range inst.Args {
		if a.IsBuf {
			fmt.Fprintf(h, "buf %d %d\n", a.Buf.Kind, a.Buf.Len())
			h.Write(a.Buf.Raw())
			continue
		}
		fmt.Fprintf(h, "val %d %x\n", a.Val.I, math.Float64bits(a.Val.F))
	}
	fmt.Fprintf(h, "nd %v bytes %v out %v\n", inst.ND, inst.BufBytes, inst.OutputArgs)
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedWorkloads are the workloads whose inputs testdata/inputs.golden
// pins: the fourteen real kernels at every size the benchmark's
// first_launch (1-D 64 and 256, 2-D 32 and 64), relaunch (1-D 1024,
// 2-D 256, sparse 512) and characterize (256) workloads build them, and
// every twelfth workload of the synthetic grid (the training slice).
func pinnedWorkloads(t *testing.T) []*Workload {
	t.Helper()
	var out []*Workload
	for _, n := range []int{32, 64, 256, 512, 1024} {
		ws, err := RealWorkloads(n, 64)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ws...)
	}
	grid, err := SyntheticGrid()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(grid); i += 12 {
		out = append(out, grid[i])
	}
	return out
}

func setupOf(t *testing.T, w *Workload) *Instance {
	t.Helper()
	inst, err := w.Setup()
	if err != nil {
		t.Fatalf("%s setup: %v", w.Name, err)
	}
	return inst
}

// TestSetupBytesGolden pins the SHA-256 of every pinned workload's
// inputs, as the generators drew them before any input was memoized.
// Each workload is set up twice, so a memo miss and a memo hit must both
// hand out exactly those bytes.
func TestSetupBytesGolden(t *testing.T) {
	const golden = "testdata/inputs.golden"
	var b strings.Builder
	for _, w := range pinnedWorkloads(t) {
		first := instanceDigest(setupOf(t, w))
		if again := instanceDigest(setupOf(t, w)); again != first {
			t.Errorf("%s: a second Setup hashes %s, the first %s", w.Name, again, first)
		}
		fmt.Fprintf(&b, "%s %s\n", w.Name, first)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v; the table this run produced:\n%s", err, b.String())
	}
	if got := b.String(); got != string(want) {
		t.Errorf("%s is stale; the table this run produced:\n%s", golden, got)
	}
}

// scribble overwrites every element of every buffer the instance holds.
func scribble(inst *Instance) {
	for _, a := range inst.Args {
		if !a.IsBuf {
			continue
		}
		for i := range a.Buf.F32 {
			a.Buf.F32[i] = -7
		}
		for i := range a.Buf.I32 {
			a.Buf.I32[i] = -7
		}
	}
}

// TestSetupOwnsItsBuffers writes over every buffer of one instance and
// checks that neither the next Setup of the same workload nor a workload
// drawing the same inputs sees the write, and that every input the memo
// keeps still equals a fresh draw of its generator.
func TestSetupOwnsItsBuffers(t *testing.T) {
	ws, err := RealWorkloads(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Workload{}
	for _, w := range ws {
		byName[strings.SplitN(w.Name, ".", 2)[0]] = w
	}
	// ATAX1, BICG2 and MVT1 share A (seed 3); ATAX1 and BICG2 share x
	// (seed 5); SpMV and PageRank each own a CSR matrix.
	for _, pair := range [][2]string{{"ATAX1", "ATAX1"}, {"ATAX1", "BICG2"}, {"MVT1", "ATAX1"},
		{"FDTD1", "FDTD3"}, {"SpMV", "SpMV"}, {"PageRank", "PageRank"}} {
		w, other := byName[pair[0]], byName[pair[1]]
		want := instanceDigest(setupOf(t, other))
		scribble(setupOf(t, w))
		if got := instanceDigest(setupOf(t, other)); got != want {
			t.Errorf("a write to a %s instance reached the next %s Setup", pair[0], pair[1])
		}
	}
	n := 0
	inputs.Each(func(k inputKey, m master) {
		n++
		if fresh := k.generate(); !sameInput(m, fresh) {
			t.Errorf("the memo's master for %+v differs from a fresh draw", k)
		}
	})
	if n == 0 {
		t.Fatal("the memo holds no inputs after a Setup")
	}
}

func sameInput(a, b master) bool {
	if a.csr != nil || b.csr != nil {
		if a.csr == nil || b.csr == nil {
			return false
		}
		return a.csr.Rows == b.csr.Rows && a.csr.Cols == b.csr.Cols &&
			slices.Equal(a.csr.RowPtr, b.csr.RowPtr) && slices.Equal(a.csr.ColIdx, b.csr.ColIdx) &&
			slices.Equal(a.csr.Val, b.csr.Val)
	}
	return a.buf.Equal(b.buf)
}

// TestConcurrentSetup sets up workloads that draw the same inputs from
// many goroutines at once, starting from an empty memo; run it with
// -race. Every instance must hash as a sequential Setup does.
func TestConcurrentSetup(t *testing.T) {
	ws, err := RealWorkloads(128, 64)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := SyntheticGrid()
	if err != nil {
		t.Fatal(err)
	}
	ws = append(ws, grid[:24]...)
	want := make([]string, len(ws))
	for i, w := range ws {
		want[i] = instanceDigest(setupOf(t, w))
	}
	inputs.Purge()
	var wg sync.WaitGroup
	errs := make(chan string, 4*len(ws))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range ws {
				i := (j + g*7) % len(ws)
				inst, err := ws[i].Setup()
				if err != nil {
					errs <- err.Error()
					continue
				}
				if got := instanceDigest(inst); got != want[i] {
					errs <- ws[i].Name + ": concurrent Setup hashed differently"
				}
				scribble(inst)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
