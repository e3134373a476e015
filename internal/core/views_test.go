package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dopia/internal/analysis"
	"dopia/internal/interp"
	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// instanceDigest hashes a launch instance as the workloads package's
// TestSetupBytesGolden does, so it can be checked against
// internal/workloads/testdata/inputs.golden.
func instanceDigest(inst *workloads.Instance) string {
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

func inputsGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("../workloads/testdata/inputs.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	golden := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, digest, ok := strings.Cut(sc.Text(), " "); ok {
			golden[name] = digest
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

// sameElems reports whether two buffers share their elements.
func sameElems(a, b *interp.Buffer) bool {
	ra, rb := a.Raw(), b.Raw()
	return len(ra) > 0 && len(rb) > 0 && &ra[0] == &rb[0]
}

// TestViewsNeverWriteAMaster characterizes, four workers at once, kernels
// whose written buffers are other kernels' read-only inputs in the input
// memo: FDTD2 writes ex and FDTD3 hz, which are the A (seed 3) of ATAX,
// BICG, MVT and GESUMMV and GESUMMV's B (seed 7); FDTD1 writes ey and
// MVT x. Afterwards every Setup still hashes as inputs.golden pins it,
// and every buffer a characterization binds enters Bind unplaced and,
// written ones included, shares its master's elements — unless no memo
// holds it, a fresh zeroed output.
func TestViewsNeverWriteAMaster(t *testing.T) {
	golden := inputsGolden(t)
	real, err := workloads.RealWorkloads(32, 64)
	if err != nil {
		t.Fatal(err)
	}
	var ws []*workloads.Workload
	for _, w := range real {
		if base, _, _ := strings.Cut(w.Name, "."); !slices.Contains([]string{"2DCONV", "SYR2K", "PageRank", "SpMV"}, base) {
			ws = append(ws, w)
		}
	}
	// Each workload twice, so workers bind views of one master together.
	if _, err := EvaluateAll(sim.Kaveri(), append(ws, ws...), 4); err != nil {
		t.Fatal(err)
	}
	writtenViews := 0
	for _, w := range ws {
		inst, err := w.Setup()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := instanceDigest(inst), golden[w.Name]; got != want {
			t.Errorf("%s: Setup hashes %s after characterization, inputs.golden %q", w.Name, got, want)
		}

		k, err := w.CompileKernel()
		if err != nil {
			t.Fatal(err)
		}
		res, err := analysis.Analyze(k)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := w.Views()
		if err != nil {
			t.Fatal(err)
		}
		master, err := w.Views()
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range bound.Args {
			if !a.IsBuf {
				continue
			}
			if a.Buf.Base != 0 || a.Buf.ID != 0 {
				t.Errorf("%s: argument %d enters Bind placed (base %d, id %d)", w.Name, i, a.Buf.Base, a.Buf.ID)
			}
			switch {
			case sameElems(a.Buf, master.Args[i].Buf):
				if slices.Contains(res.WrittenArgs(), i) {
					writtenViews++
				}
			case slices.ContainsFunc(a.Buf.Raw(), func(b byte) bool { return b != 0 }):
				t.Errorf("%s: argument %d is neither a view of its master nor a fresh output", w.Name, i)
			}
		}
	}
	if writtenViews == 0 {
		t.Error("no written argument is bound as a view of its master")
	}
}

// TestMemoHitCharacterizationCopiesNothing: once a kernel's model memo
// holds its profile, characterizing the workload again copies no buffer.
// FDTD1–3 write 256×256 fields that are input-memo masters; 2DCONV writes
// a fresh zeroed output, which Views itself allocates. A characterization
// that cloned the written buffers would allocate at least their bytes on
// top of the fresh outputs.
func TestMemoHitCharacterizationCopiesNothing(t *testing.T) {
	real, err := workloads.RealWorkloads(256, 64)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.Kaveri()
	for _, w := range real {
		if base, _, _ := strings.Cut(w.Name, "."); !slices.Contains([]string{"FDTD1", "FDTD2", "FDTD3", "2DCONV"}, base) {
			continue
		}
		k, err := w.CompileKernel()
		if err != nil {
			t.Fatal(err)
		}
		res, err := analysis.Analyze(k)
		if err != nil {
			t.Fatal(err)
		}
		views, err := w.Views()
		if err != nil {
			t.Fatal(err)
		}
		master, err := w.Views()
		if err != nil {
			t.Fatal(err)
		}
		var written, fresh uint64
		for _, i := range res.WrittenArgs() {
			written += uint64(views.Args[i].Buf.Bytes())
		}
		for i, a := range views.Args {
			if a.IsBuf && !sameElems(a.Buf, master.Args[i].Buf) {
				fresh += uint64(a.Buf.Bytes())
			}
		}
		if _, err := EvaluateWorkload(m, w); err != nil { // fills the model memo
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := EvaluateWorkload(m, w); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: allocated %d bytes; writes %d, fresh outputs %d", w.Name, alloc, written, fresh)
		if alloc >= written+fresh {
			t.Errorf("%s: a memo-hit characterization allocated %d bytes, not below the %d its written buffers hold plus its %d of fresh outputs",
				w.Name, alloc, written, fresh)
		}
	}
}
