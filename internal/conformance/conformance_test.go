package conformance

import (
	"os"
	"strconv"
	"testing"
)

// baseSeed returns the quick-run base seed: DOPIA_CONF_SEED when set
// (for deterministic replay of a CI failure), else 1.
func baseSeed(t *testing.T) uint64 {
	if s := os.Getenv("DOPIA_CONF_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			t.Fatalf("DOPIA_CONF_SEED=%q: %v", s, err)
		}
		return v
	}
	return 1
}

// TestQuickLattice is the PR-blocking conformance run: quickCases
// generated cases, each across the full configuration lattice — both
// engines × shard counts × forced ladder rungs × the dopiad round-trip.
// A failure message names the case seed; replay it with
// DOPIA_CONF_SEED=<base> (the whole run) or dopia-fuzz -seed (one
// case).
func TestQuickLattice(t *testing.T) {
	env, err := NewServingEnv()
	if err != nil {
		t.Fatalf("serving env: %v", err)
	}
	defer env.Close()

	res, err := Fuzz(FuzzConfig{
		Seed:  baseSeed(t),
		Cases: quickCases,
		Opts: Options{
			Rungs:   true,
			Serving: env,
			// Machine×scheduler axes: every total-class case also
			// co-executes on every zoo machine under every scheduling
			// policy and must stay bit-identical to the reference.
			Machines: []string{"all"},
			Scheds:   []string{"all"},
		},
		Log: t.Logf,
	})
	if err != nil {
		t.Fatalf("fuzz: %v", err)
	}
	if res.Cases != quickCases && res.Divergent == 0 {
		t.Fatalf("ran %d cases, want %d", res.Cases, quickCases)
	}
	for _, d := range res.Divergences {
		t.Errorf("divergence: %s", d)
	}
	t.Logf("ran %d cases, %d feature signatures", res.Cases, len(res.Features))
}

// TestCrasherReplay re-runs every checked-in crasher repro across the
// lattice. The corpus is empty in a healthy tree; any file that appears
// (dumped by a fuzz run) keeps failing until the underlying bug is
// fixed, then starts acting as a regression test.
func TestCrasherReplay(t *testing.T) {
	crs, err := LoadCrashers(CrashersDir())
	if err != nil {
		t.Fatalf("load crashers: %v", err)
	}
	if len(crs) == 0 {
		t.Skip("no crasher repro files")
	}
	env, err := NewServingEnv()
	if err != nil {
		t.Fatalf("serving env: %v", err)
	}
	defer env.Close()
	for name, cr := range crs {
		t.Run(name, func(t *testing.T) {
			c, err := cr.Case()
			if err != nil {
				t.Fatalf("rebuild case: %v", err)
			}
			rep, err := RunCase(c, Options{Rungs: true, Serving: env})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, d := range rep.Divergences {
				t.Errorf("divergence: %s", d)
			}
		})
	}
}

// TestCrasherRoundTrip checks the repro format itself: a generated case
// survives the dump/load cycle bit-exactly.
func TestCrasherRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 16; i++ {
		c, err := Generate(CaseSeed(11, i))
		if err != nil {
			t.Fatalf("gen: %v", err)
		}
		cr := NewCrasher(c, []string{"note"})
		path, err := cr.Write(dir)
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		loaded, err := LoadCrasher(path)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		c2, err := loaded.Case()
		if err != nil {
			t.Fatalf("rebuild: %v", err)
		}
		if c2.Source != c.Source || c2.Kernel != c.Kernel || c2.ND != c.ND || c2.Class != c.Class {
			t.Fatalf("case %d: round-trip changed the case", i)
		}
		if len(c2.Args) != len(c.Args) {
			t.Fatalf("case %d: arg count changed", i)
		}
		for j := range c.Args {
			a, b := &c.Args[j], &c2.Args[j]
			if a.Name != b.Name || a.Kind != b.Kind || a.Out != b.Out ||
				a.IVal != b.IVal || a.FVal != b.FVal {
				t.Fatalf("case %d arg %d: metadata changed", i, j)
			}
			if DiffBytes(F32Bytes(a.F32), F32Bytes(b.F32)) != "" ||
				DiffBytes(I32Bytes(a.I32), I32Bytes(b.I32)) != "" {
				t.Fatalf("case %d arg %s: contents changed", i, a.Name)
			}
		}
	}
}

// TestSeedCorpusConformance replays the shared .cl seed corpus — the
// promoted front-end fuzz seeds — through the engine differential. Not
// every seed compiles (the corpus deliberately contains garbage the
// lexer/parser must survive); compiling single-kernel seeds must agree
// across engines at parallelism 1 with synthesized arguments.
func TestSeedCorpusConformance(t *testing.T) {
	srcs, err := SeedSources()
	if err != nil {
		t.Fatalf("seed corpus: %v", err)
	}
	if len(srcs) == 0 {
		t.Skip("no seed corpus")
	}
	ran := 0
	for _, src := range srcs {
		c, ok := CaseFromSource(src, 64)
		if !ok {
			continue
		}
		rep, err := RunCase(c, Options{Shards: []int{1}})
		if err != nil {
			t.Errorf("seed corpus case: %v", err)
			continue
		}
		ran++
		for _, d := range rep.Divergences {
			t.Errorf("%s: divergence: %s\n%s", c, d, c.Source)
		}
	}
	if ran == 0 {
		t.Fatal("no seed corpus entry produced a runnable case")
	}
	t.Logf("replayed %d corpus seeds", ran)
}
