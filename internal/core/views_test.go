package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
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

// sameElems reports whether two float buffers share their elements.
func sameElems(a, b *interp.Buffer) bool {
	return len(a.F32) > 0 && len(b.F32) > 0 && &a.F32[0] == &b.F32[0]
}

// TestViewsNeverWriteAMaster characterizes, four workers at once, kernels
// whose written buffers are other kernels' read-only inputs in the input
// memo: FDTD2 writes ex and FDTD3 hz, which are the A (seed 3) of ATAX,
// BICG, MVT and GESUMMV and GESUMMV's B (seed 7); FDTD1 writes ey and
// MVT x. Afterwards every Setup still hashes as inputs.golden pins it,
// and the instance a characterization binds is views of the masters,
// unplaced, with a private copy of each buffer the kernel writes.
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
		bound, err := timingInstance(w, res)
		if err != nil {
			t.Fatal(err)
		}
		views, err := w.Views()
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
			written := slices.Contains(res.WrittenArgs(), i)
			if shared := sameElems(a.Buf, views.Args[i].Buf); shared == written {
				t.Errorf("%s: argument %d (written %v) shares the master's elements: %v", w.Name, i, written, shared)
			}
		}
	}
}
