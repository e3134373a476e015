package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"dopia"
	"dopia/internal/analysis"
	"dopia/internal/clc"
	"dopia/internal/core"
	"dopia/internal/interp"
	"dopia/internal/ml"
	"dopia/internal/sim"
	"dopia/internal/stats"
	"dopia/internal/workloads"
)

// wgSize is the work-group size of every launch in the benchmark (2-D
// kernels use the matching 8x8 group).
const wgSize = 64

// trainStride picks the fixed 102-workload slice of the 1,224-workload
// synthetic grid every model in the benchmark is trained on. (Tests use
// a wider stride to train in milliseconds.)
const trainStride = 12

// trainingSlice returns every stride-th workload of the synthetic grid.
func trainingSlice(stride int) ([]*workloads.Workload, error) {
	grid, err := dopia.SyntheticWorkloads()
	if err != nil {
		return nil, err
	}
	var sub []*workloads.Workload
	for i := 0; i < len(grid); i += stride {
		sub = append(sub, grid[i])
	}
	return sub, nil
}

// trainTimes splits one model training into its two layers.
type trainTimes struct {
	characterizeS float64 // core.EvaluateAll over the training slice
	fitMS         float64 // ml.TreeTrainer.Fit
}

// trainModel trains the deployed model family on the fixed slice. The
// traced run takes the facade's TrainDefaultModel apart into its two
// calls to time them; both forms fit the same tree.
func trainModel(m *sim.Machine, slice []*workloads.Workload, timed *trainTimes) (ml.Model, error) {
	if timed == nil {
		return dopia.TrainDefaultModel(m, slice)
	}
	t0 := time.Now()
	evals, err := core.EvaluateAll(m, slice, 0)
	if err != nil {
		return nil, err
	}
	timed.characterizeS += time.Since(t0).Seconds()
	t0 = time.Now()
	model, err := ml.TreeTrainer{}.Fit(core.BuildDataset(m, evals))
	timed.fitMS += ms(time.Since(t0))
	return model, err
}

// kernelClass is one (kernel, size) latency class of an in-process
// workload: the kernel's source, one set of input buffers, and what the
// benchmark learned about its ops so far.
type kernelClass struct {
	name   string // e.g. "ATAX1.n64"
	kernel string // workloads.Desc name, e.g. "ATAX1"
	w      *workloads.Workload
	inst   *workloads.Instance
	// written lists the buffer arguments the kernel stores to. They are
	// restored from saved before every op, so each launch sees identical
	// bytes, and digested after it.
	written []int
	saved   []*interp.Buffer

	// First op's observations; every later op of the class must repeat them.
	seen    bool
	digest  uint64
	cfg     sim.Config
	simBase float64 // Result.Time minus the charged InferTime
	ops     int     // ops that passed the per-op checks
}

// newKernelClass builds the workload of desc at size n and one instance
// of its inputs.
func newKernelClass(desc workloads.Desc, n int) (*kernelClass, error) {
	w, err := desc.Build(n, wgSize)
	if err != nil {
		return nil, err
	}
	inst, err := w.Setup()
	if err != nil {
		return nil, err
	}
	k, err := w.CompileKernel()
	if err != nil {
		return nil, err
	}
	res, err := analysis.Analyze(k)
	if err != nil {
		return nil, err
	}
	c := &kernelClass{
		name:   fmt.Sprintf("%s.n%d", desc.Name, n),
		kernel: desc.Name,
		w:      w,
		inst:   inst,
	}
	for _, ai := range writtenArgs(res) {
		if a := inst.Args[ai]; a.IsBuf {
			c.written = append(c.written, ai)
			c.saved = append(c.saved, a.Buf.Clone())
		}
	}
	return c, nil
}

// writtenArgs returns the parameter slots a kernel stores to, from its
// static analysis (indexed stores plus atomic targets).
func writtenArgs(res *analysis.Result) []int {
	seen := map[int]bool{}
	var out []int
	add := func(ai int) {
		if ai >= 0 && !seen[ai] {
			seen[ai] = true
			out = append(out, ai)
		}
	}
	for _, s := range res.Sites {
		if s.Write {
			add(s.ArgIndex)
		}
	}
	for _, ai := range res.AtomicArgs {
		add(ai)
	}
	return out
}

// restore puts the written buffers back to their pristine content.
func (c *kernelClass) restore() {
	for i, ai := range c.written {
		copyBuffer(c.inst.Args[ai].Buf, c.saved[i])
	}
}

func copyBuffer(dst, src *interp.Buffer) {
	copy(dst.F32, src.F32)
	copy(dst.I32, src.I32)
	copy(dst.F64, src.F64)
	copy(dst.I64, src.I64)
}

// outputDigest hashes the written buffers.
func (c *kernelClass) outputDigest() uint64 {
	h := newDigest()
	for _, ai := range c.written {
		h.buffer(c.inst.Args[ai].Buf)
	}
	return h.sum()
}

// referenceDigest runs the class's kernel from its untagged source on
// the independent reference path — closure engine, one goroutine, lane
// width 1, no interposer — over pristine inputs, and hashes the outputs.
func (c *kernelClass) referenceDigest() (uint64, error) {
	k, err := c.w.CompileKernel()
	if err != nil {
		return 0, err
	}
	c.restore()
	if err := runReference(k, c.inst.Args, c.inst.ND); err != nil {
		return 0, err
	}
	d := c.outputDigest()
	c.restore()
	return d, nil
}

// runReference executes one launch on the reference path.
func runReference(k *clc.Kernel, args []interp.Arg, nd interp.NDRange) error {
	ex, err := interp.NewExec(k)
	if err != nil {
		return err
	}
	ex.Engine = interp.EngineClosures
	ex.Parallelism = interp.Sequential
	ex.LaneWidth = 1
	if err := ex.Bind(args...); err != nil {
		return err
	}
	if err := ex.Launch(nd); err != nil {
		return err
	}
	return ex.Run()
}

// digest is FNV-1a over 32-bit words: cheap enough to run after every
// op, and any changed output bit changes it.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) word(w uint32) {
	d.h ^= uint64(w)
	d.h *= 1099511628211
}

func (d *digest) buffer(b *interp.Buffer) {
	d.floats(b.F32)
	d.ints(b.I32)
}

func (d *digest) floats(xs []float32) {
	for _, x := range xs {
		d.word(math.Float32bits(x))
	}
}

func (d *digest) ints(xs []int32) {
	for _, x := range xs {
		d.word(uint32(x))
	}
}

// le hashes raw little-endian 4-byte elements, giving the same digest as
// floats/ints over the decoded values.
func (d *digest) le(raw []byte) {
	for i := 0; i+4 <= len(raw); i += 4 {
		d.word(uint32(raw[i]) | uint32(raw[i+1])<<8 | uint32(raw[i+2])<<16 | uint32(raw[i+3])<<24)
	}
}

func (d *digest) sum() uint64 { return d.h }

// sourceSerial numbers the unique sources of the process.
var sourceSerial atomic.Int64

// uniqueSource prefixes src with a comment header no earlier source of
// the process carried, so the sha256 program cache, the interpreter's
// compile cache and the transform cache all miss. The header changes the
// source hash and nothing the compiler sees.
func uniqueSource(src string, seed int64) string {
	return fmt.Sprintf("// dopia-benchmark seed=%d serial=%d\n%s", seed, sourceSerial.Add(1), src)
}

// shuffledOps returns reps copies of 0..classes-1 in an order drawn from
// rng: the op list of one pass.
func shuffledOps(rng *rand.Rand, classes, reps int) []int {
	ops := make([]int, 0, classes*reps)
	for r := 0; r < reps; r++ {
		for c := 0; c < classes; c++ {
			ops = append(ops, c)
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// oracleClass is one class's contribution to the decision-quality
// metrics: the exhaustive oracle's best time, the simulated time of the
// configuration the launch chose, and the simulated times the launches
// themselves reported (which carry the host-measured inference time).
type oracleClass struct {
	best     float64
	chosen   float64
	reported []float64
}

// oracleFractions folds per-class oracle data into the two end-to-end
// ratios. Classes are visited in sorted order so oracle_fraction repeats
// bit for bit.
func oracleFractions(classes map[string]*oracleClass) (plain, overhead float64, n int) {
	var ps, os []float64
	for _, name := range sortedKeys(classes) {
		oc := classes[name]
		if len(oc.reported) == 0 {
			continue
		}
		ps = append(ps, oc.best/oc.chosen)
		os = append(os, oc.best/median(oc.reported))
		n += len(oc.reported)
	}
	return stats.Geomean(ps), stats.Geomean(os), n
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
