package interp

import (
	"encoding/binary"
	"fmt"
	"math"

	"dopia/internal/analysis"
	"dopia/internal/clc"
	"dopia/internal/faults"
)

// AddressSpace assigns non-overlapping base addresses to buffers so that
// the access addresses the pattern classifier sees from different buffers
// never alias. One AddressSpace is typically shared by all kernels of a
// context (buffers keep their base across launches).
type AddressSpace struct {
	next   int64
	nextID int
}

// bufferAlign keeps buffer bases page-aligned, like a real allocator.
const bufferAlign = 4096

// Place assigns a base address and ID to b if it does not have one yet.
func (as *AddressSpace) Place(b *Buffer) {
	if b.Base != 0 {
		return
	}
	if as.next == 0 {
		as.next = bufferAlign // keep 0 distinguishable from "unplaced"
	}
	b.Base = as.next
	as.nextID++
	b.ID = as.nextID
	sz := b.Bytes()
	as.next += (sz + bufferAlign - 1) / bufferAlign * bufferAlign
	if sz == 0 {
		as.next += bufferAlign
	}
}

// Exec executes one kernel. It owns the bound arguments and the
// statistics of the runs performed through it. The kernel's layout and
// its engine's program are immutable, stored on the kernel and shared.
//
// An Exec is not safe for concurrent use by multiple goroutines, but its
// Run* methods internally execute disjoint shards of the work-group space
// on a worker pool (see Parallelism and RunSegments).
type Exec struct {
	kernel *clc.Kernel
	lay    *layout

	args []Arg
	bufs []*Buffer // indexed by parameter slot; nil for scalars
	nd   NDRange

	stats *RunStats
	// as places bound buffers that no context has placed yet.
	as AddressSpace

	// Check, when non-nil, is polled before every work-group — by every
	// shard worker in parallel mode — so a non-nil return aborts the run
	// within one work-group quantum per shard. The scheduler's watchdog
	// uses it to bound pathological ND ranges with a context deadline.
	// It may be called concurrently and must be goroutine-safe.
	Check func() error

	// Parallelism selects how many shards the Run* methods split their
	// work-groups into: 0 uses GOMAXPROCS at the time of the run, and
	// Sequential (1) forces the single-goroutine reference path.
	// Results — output buffers, statistics, traps — are bit-identical
	// for every value. Launches that are not work-group independent
	// always run sequentially (see ShardPinned).
	Parallelism int

	// Engine selects the execution engine Launch builds the program of:
	// the bytecode engine (the zero value) or the closure engine.
	// Results are bit-identical across engines.
	Engine Engine

	// LaneWidth is ignored: the lane tier it selected is deleted. The
	// field stays only because benchmark/ (frozen outside benchmark PRs)
	// still assigns it; no other code may touch it, and it goes when the
	// next benchmark PR drops those assignments (ROADMAP item 5).
	LaneWidth int

	paramVals []Value

	// Resolved at Launch: the engine that runs the launch and its
	// program, the lowered bytecode or the closure tree (exactly one is
	// non-nil after a successful Launch).
	engineUsed Engine
	prog       *bcProgram
	ck         *compiled
	launched   bool

	// shardPin is the launch's work-group-independence verdict, resolved
	// on first use (shardPinReason). itemPin is the work-item-level
	// verdict a parking run needs (parks), resolved with it for a
	// parkable program.
	shardPin, itemPin string
	shardPinResolved  bool

	// id is the launch identity of the current binding and launch,
	// derived on first use (identity) like shardPin.
	id         launchIdentity
	idResolved bool

	seq     *runState   // shard-0 / sequential execution state
	workers []*runState // extra shard workers, grown lazily
	abort   abortFlag

	// Run scratch, reused so a steady-state run allocates nothing: the
	// shard tasks and the segment lists Run* build.
	tasks []*shardTask
	segs  []Segment
}

// Memo keys of what a kernel owns in this package (see clc.Memo): its
// layout and the program of each engine. They are distinct types, so
// the closure tree and the bytecode program of one kernel can never be
// served to each other's engine.
type (
	layoutKey   struct{}
	closureKey  struct{}
	bytecodeKey struct{}
)

// layout is the part of a kernel every engine reads: where its __local
// and private arrays live, and what each memory site accesses.
type layout struct {
	localSyms []*clc.Symbol // __local arrays/scalars, indexed by localIdx
	privSyms  []*clc.Symbol // private arrays, indexed by privIdx
	localIdx  map[*clc.Symbol]int
	privIdx   map[*clc.Symbol]int

	// Static per-site metadata, one entry per memory site the checker
	// assigned, so the hot memory-access paths do not re-store it on
	// every access: the parameter slot of the accessed buffer (-1 for a
	// __local or private array) and whether the site is a store target.
	siteArg   []int
	siteWrite []bool
}

// newLayout derives kernel k's layout: one pass over its symbols and one
// walk of its body for the sites.
func newLayout(k *clc.Kernel) *layout {
	l := &layout{localIdx: map[*clc.Symbol]int{}, privIdx: map[*clc.Symbol]int{}}
	for _, sym := range k.Locals {
		switch {
		case sym.IsLocal:
			l.localIdx[sym] = len(l.localSyms)
			l.localSyms = append(l.localSyms, sym)
		case sym.ArrayLen > 0:
			l.privIdx[sym] = len(l.privSyms)
			l.privSyms = append(l.privSyms, sym)
		}
	}
	site := func(x clc.Expr, write bool) {
		ix, ok := x.(*clc.Index)
		if !ok {
			return
		}
		for len(l.siteArg) <= ix.Site {
			l.siteArg, l.siteWrite = append(l.siteArg, -1), append(l.siteWrite, false)
		}
		if b, ok := ix.Base.(*clc.Ident); ok && b.Sym != nil && b.Sym.Class == clc.SymParam && b.Sym.Type.Ptr {
			l.siteArg[ix.Site] = b.Sym.Slot
			l.siteWrite[ix.Site] = l.siteWrite[ix.Site] || write
		}
	}
	var walkExpr func(x clc.Expr)
	walkExpr = func(x clc.Expr) {
		switch e := x.(type) {
		case *clc.Index:
			site(e, false)
			walkExpr(e.Base)
			walkExpr(e.Idx)
		case *clc.Binary:
			walkExpr(e.L)
			walkExpr(e.R)
		case *clc.Unary:
			walkExpr(e.X)
		case *clc.Cond:
			walkExpr(e.C)
			walkExpr(e.Then)
			walkExpr(e.Else)
		case *clc.Call:
			for _, a := range e.Args {
				walkExpr(a)
			}
		case *clc.Cast:
			walkExpr(e.X)
		case *clc.Assign:
			site(e.LHS, true)
			walkExpr(e.LHS)
			walkExpr(e.RHS)
		case *clc.IncDec:
			site(e.X, true)
			walkExpr(e.X)
		}
	}
	var walkStmt func(s clc.Stmt)
	walkStmt = func(s clc.Stmt) {
		switch st := s.(type) {
		case *clc.Block:
			for _, inner := range st.Stmts {
				walkStmt(inner)
			}
		case *clc.DeclStmt:
			for _, d := range st.Decls {
				if d.Init != nil {
					walkExpr(d.Init)
				}
			}
		case *clc.ExprStmt:
			walkExpr(st.X)
		case *clc.IfStmt:
			walkExpr(st.Cond)
			walkStmt(st.Then)
			if st.Else != nil {
				walkStmt(st.Else)
			}
		case *clc.ForStmt:
			if st.Init != nil {
				walkStmt(st.Init)
			}
			if st.Cond != nil {
				walkExpr(st.Cond)
			}
			if st.Post != nil {
				walkExpr(st.Post)
			}
			walkStmt(st.Body)
		case *clc.WhileStmt:
			walkExpr(st.Cond)
			walkStmt(st.Body)
		case *clc.DoWhileStmt:
			walkStmt(st.Body)
			walkExpr(st.Cond)
		}
	}
	if k.Body != nil {
		walkStmt(k.Body)
	}
	return l
}

// NewExec returns an executor for kernel k. The kernel must come from a
// checked program (clc.Compile). NewExec derives only the kernel's
// layout; Launch builds the selected engine's program. Both are
// immutable, hold no execution state and are stored on the kernel, so
// every Exec of one kernel shares them and constructing executors is
// cheap. Panics are contained and returned as classified errors.
func NewExec(k *clc.Kernel) (ex2 *Exec, err error) {
	defer faults.Recover(faults.StageCompile, &err)
	// The injection site fires before the memo is consulted, so a stored
	// layout cannot mask an injected compile fault.
	if err := faults.Hit("interp.compile"); err != nil {
		return nil, faults.Wrap(faults.StageCompile, err)
	}
	lay, _ := clc.Memo(k, layoutKey{}, func() (*layout, error) { return newLayout(k), nil })
	ex := &Exec{
		kernel: k,
		lay:    lay,
		args:   make([]Arg, len(k.Params)),
		bufs:   make([]*Buffer, len(k.Params)),
	}
	ex.ResetStats()
	return ex, nil
}

// Kernel returns the kernel this executor runs.
func (ex *Exec) Kernel() *clc.Kernel { return ex.kernel }

// ResetStats clears accumulated statistics.
func (ex *Exec) ResetStats() {
	ex.stats = newRunStats(ex.lay)
	ex.stats.EngineUsed = ex.engineUsed
}

// newRunStats allocates run statistics with per-site metadata resolved
// from the kernel's layout.
func newRunStats(lay *layout) *RunStats {
	s := &RunStats{}
	s.resetFor(lay)
	return s
}

// resetFor clears the statistics in place, reusing the site slice, and
// re-seeds the static per-site metadata.
func (s *RunStats) resetFor(lay *layout) {
	n := len(lay.siteArg)
	sites := s.sites
	if cap(sites) < n {
		sites = make([]siteState, n)
	} else {
		sites = sites[:n]
	}
	*s = RunStats{sites: sites}
	for i := range sites {
		sites[i] = siteState{argIndex: lay.siteArg[i], write: lay.siteWrite[i]}
	}
}

// Stats returns the profile of everything run since the last ResetStats.
func (ex *Exec) Stats() *Profile {
	if ex.launched {
		ex.stats.ShardPinReason = ex.shardPinReason()
	}
	return ex.stats.Summarize()
}

// EngineUsed reports the execution engine the last Launch built the
// program of (the bytecode engine before the first Launch). The string
// is always empty: no launch falls back from one engine to the other.
// It is kept only because benchmark/ (frozen outside benchmark PRs)
// reads both results (ROADMAP item 0).
func (ex *Exec) EngineUsed() (Engine, string) { return ex.engineUsed, "" }

// SetArg binds argument i. Buffers are placed in the executor's address
// space; scalar values are converted to the parameter's kind.
func (ex *Exec) SetArg(i int, a Arg) error {
	if i < 0 || i >= len(ex.kernel.Params) {
		return fmt.Errorf("interp: argument index %d out of range (kernel %s has %d params)",
			i, ex.kernel.Name, len(ex.kernel.Params))
	}
	p := ex.kernel.Params[i]
	if p.Type.Ptr {
		if !a.IsBuf || a.Buf == nil {
			return fmt.Errorf("interp: parameter %q of %s requires a buffer", p.Name, ex.kernel.Name)
		}
		if !a.Buf.CompatibleWith(p.Type.Kind) {
			return fmt.Errorf("interp: buffer of kind %v incompatible with parameter %q (%v)",
				a.Buf.Kind, p.Name, p.Type)
		}
		ex.as.Place(a.Buf)
		ex.bufs[i] = a.Buf
	} else {
		if a.IsBuf {
			return fmt.Errorf("interp: parameter %q of %s is a scalar", p.Name, ex.kernel.Name)
		}
		ex.bufs[i] = nil
		// Normalize the scalar to the parameter kind.
		if p.Type.Kind.IsFloat() {
			if a.Val.F == 0 && a.Val.I != 0 {
				a.Val.F = float64(a.Val.I)
			}
			a.Val = Value{F: normFloat(p.Type.Kind, a.Val.F)}
		} else {
			if a.Val.I == 0 && a.Val.F != 0 {
				a.Val.I = int64(a.Val.F)
			}
			a.Val = Value{I: normInt(p.Type.Kind, a.Val.I)}
		}
	}
	ex.args[i] = a
	return nil
}

// Bind sets all arguments at once.
func (ex *Exec) Bind(args ...Arg) error {
	if len(args) != len(ex.kernel.Params) {
		return fmt.Errorf("interp: kernel %s takes %d arguments, got %d",
			ex.kernel.Name, len(ex.kernel.Params), len(args))
	}
	for i, a := range args {
		if err := ex.SetArg(i, a); err != nil {
			return err
		}
	}
	return nil
}

// Launch validates and sets the ND range for subsequent Run* calls, and
// builds the selected engine's program (once per kernel). A kernel the
// engine cannot build fails the launch with a faults.StageCompile error.
func (ex *Exec) Launch(nd NDRange) error {
	if err := nd.Validate(); err != nil {
		return err
	}
	for i, p := range ex.kernel.Params {
		if p.Type.Ptr && ex.bufs[i] == nil {
			return fmt.Errorf("interp: argument %d (%s) not bound", i, p.Name)
		}
	}
	if err := ex.build(); err != nil {
		ex.launched = false
		return err
	}
	ex.nd = nd.Normalized()
	ex.paramVals = ex.paramVals[:0]
	for i := range ex.kernel.Params {
		ex.paramVals = append(ex.paramVals, ex.args[i].Val)
	}
	ex.launched, ex.shardPinResolved, ex.idResolved = true, false, false
	return nil
}

// build resolves the Engine field for the current launch: it fetches or
// builds that engine's program and stamps the engine into the executor's
// statistics.
func (ex *Exec) build() (err error) {
	defer faults.Recover(faults.StageCompile, &err)
	ex.prog, ex.ck, ex.engineUsed = nil, nil, ex.Engine
	if ex.Engine == EngineClosures {
		ex.ck, err = clc.Memo(ex.kernel, closureKey{}, func() (*compiled, error) {
			return compileKernel(ex.kernel, ex.lay)
		})
	} else {
		ex.prog, err = clc.Memo(ex.kernel, bytecodeKey{}, func() (*bcProgram, error) {
			return lowerKernel(ex.kernel, ex.lay)
		})
	}
	ex.stats.EngineUsed = ex.engineUsed
	return faults.Wrap(faults.StageCompile, err)
}

// shardPinReason evaluates the work-group-independence predicate for the
// current binding and launch, once per Launch. It is the single gate of
// every execution mode that reorders work-groups: a sharded Run,
// sharded sampled profiling, and the scheduler's sharded co-execution
// plan.
func (ex *Exec) shardPinReason() string {
	ex.resolvePins()
	return ex.shardPin
}

// parks reports whether an unprofiled run of the current launch
// parks its work-items at their column walks (park.go): the lowered
// program is parkable and the launch is work-item independent.
func (ex *Exec) parks() bool {
	if ex.prog == nil || !ex.prog.parkable {
		return false
	}
	ex.resolvePins()
	return ex.itemPin == ""
}

// resolvePins evaluates the independence predicate for the current
// binding and launch at both levels, once per Launch.
func (ex *Exec) resolvePins() {
	if ex.shardPinResolved {
		return
	}
	id := ex.identity()
	lf := analysis.LaunchFacts{
		Scalars:   id.scalars,
		BufferID:  id.bufferID,
		NumGroups: ex.nd.NumGroups(),
		Local:     ex.nd.Local,
	}
	in := analysis.WorkGroupIndependence(ex.kernel)
	ex.shardPin, ex.itemPin, ex.shardPinResolved = in.OrderSensitive(lf), "", true
	if ex.prog != nil && ex.prog.parkable {
		ex.itemPin = in.ItemOrderSensitive(lf)
	}
}

// launchIdentity is what makes two launches of one kernel the same
// launch: the alias group of every slot and one shape key.
type launchIdentity struct {
	// bufferID identifies the buffer bound to each slot by the first slot
	// it is bound to, plus one; a scalar slot is 0. scalars holds each
	// scalar slot's integer value. Both are analysis.LaunchFacts' fields.
	bufferID []int
	scalars  []int64
	// shape encodes the normalized ND-range, every scalar's bits as SetArg
	// normalized them, and each buffer's kind, length and bufferID, as
	// varints: the kernel's signature fixes which slots are buffers, so
	// the encoding needs no separators.
	shape string
}

// identity derives the launch identity of the current binding and launch
// on first use after Launch. It is the one walk of the arguments for
// alias groups and shapes: the independence predicate (resolvePins) and
// the scheduler's model memo (Identity) both read it. It reuses the
// previous launch's slices.
func (ex *Exec) identity() *launchIdentity {
	id := &ex.id
	if ex.idResolved {
		return id
	}
	if n := len(ex.bufs); cap(id.bufferID) < n {
		id.bufferID, id.scalars = make([]int, 0, n), make([]int64, 0, n)
	}
	var buf [256]byte
	nd := ex.nd
	k := binary.AppendVarint(buf[:0], int64(nd.Dims))
	for d := 0; d < 3; d++ {
		k = binary.AppendVarint(k, int64(nd.Global[d]))
		k = binary.AppendVarint(k, int64(nd.Local[d]))
		k = binary.AppendVarint(k, int64(nd.Offset[d]))
	}
	id.bufferID, id.scalars = id.bufferID[:0], id.scalars[:0]
	for i, b := range ex.bufs {
		if b == nil {
			v := ex.args[i].Val
			id.bufferID, id.scalars = append(id.bufferID, 0), append(id.scalars, v.I)
			k = binary.AppendVarint(k, v.I)
			k = binary.AppendUvarint(k, math.Float64bits(v.F))
			continue
		}
		g := i + 1
		for j := 0; j < i; j++ {
			if ex.bufs[j] == b {
				g = j + 1
				break
			}
		}
		id.bufferID, id.scalars = append(id.bufferID, g), append(id.scalars, 0)
		k = binary.AppendVarint(k, int64(b.Kind))
		k = binary.AppendVarint(k, int64(b.Len()))
		k = binary.AppendVarint(k, int64(g))
	}
	id.shape, ex.idResolved = string(k), true
	return id
}

// Identity returns the current launch's identity: its shape key (the
// normalized ND-range, every scalar as SetArg normalized it, and each
// buffer's kind, length and alias group) and the alias group of every
// slot — the first slot bound to the same buffer, plus one, or 0 for a
// scalar. The slice is shared and must not be modified.
func (ex *Exec) Identity() (shape string, bufferID []int) {
	id := ex.identity()
	return id.shape, id.bufferID
}

// ShardPinned reports why the current launch executes its work-groups in
// order on one goroutine regardless of Parallelism — global atomics, a
// store at a data-dependent or non-distinct index, a load of a stored
// buffer at another index — or "" when the launch is work-group
// independent and may be sharded. Before the first Launch it reports "".
func (ex *Exec) ShardPinned() string {
	if !ex.launched {
		return ""
	}
	return ex.shardPinReason()
}

// seqState returns the sequential/shard-0 execution state, prepared for
// the current launch and statistics, with the run's classifier gate set
// (see runState.profiled).
func (ex *Exec) seqState(profiled bool) *runState {
	if ex.seq == nil {
		ex.seq = &runState{ex: ex, abort: &ex.abort}
	}
	ex.seq.claim(profiled)
	ex.seq.prepare(ex.stats)
	return ex.seq
}

// claim sets up the state for the run it is claimed for: the classifier
// gate, and whether the run's groups park (an unprofiled run of a launch
// that parks). It runs on the caller's goroutine, so the
// launch's verdicts resolve there.
func (rs *runState) claim(profiled bool) {
	rs.profiled = profiled
	rs.parks = !profiled && rs.ex.parks()
}

// Run executes every work-group of the launched ND range, splitting the
// group space across Parallelism shard workers.
func (ex *Exec) Run() error {
	ex.segs = append(ex.segs[:0], Segment{Count: ex.nd.TotalGroups()})
	return ex.RunSegments(ex.segs)
}

// RunSampled executes at most maxGroups work-groups, spread evenly across
// the ND range, and returns how many were run. Statistics can be scaled by
// TotalGroups/groupsRun to extrapolate. Buffers hold partial results after
// a sampled run; use Run for functional output. The sampled groups are
// sharded like any other run, with the same bit-identical profile.
func (ex *Exec) RunSampled(maxGroups int) (int, error) {
	total := ex.nd.TotalGroups()
	if maxGroups <= 0 || maxGroups >= total {
		if err := ex.Run(); err != nil {
			return 0, err
		}
		return total, nil
	}
	stride := total / maxGroups
	ex.segs = ex.segs[:0]
	for g := 0; g < total && len(ex.segs) < maxGroups; g += stride {
		ex.segs = append(ex.segs, Segment{Start: g, Count: 1})
	}
	if err := ex.RunSegments(ex.segs); err != nil {
		return 0, err
	}
	return len(ex.segs), nil
}

// runState is the per-goroutine execution state for running work-groups:
// scratch slots, private arrays, __local storage, and the environment
// handed to compiled closures. The sequential path owns one; every shard
// worker of a parallel run owns another, so shards share nothing but the
// (read-only) compiled kernel, arguments, and the output buffers their
// disjoint work-groups write.
type runState struct {
	ex    *Exec
	stats *RunStats

	// nd is the Exec's launched range, copied when the state is prepared.
	nd NDRange

	// abort is the Exec's cancellation state, shared by the shards of a
	// run.
	abort *abortFlag

	env env
	wg  wgState

	slotScratch [][]Value
	privScratch [][][]Value
	doneScratch []bool

	// Bytecode-engine register rows: one per work-item of a group where its
	// registers outlive a segment or a park pass, else row 0 for them all.
	irScratch [][]int64
	frScratch [][]float64

	// profiled says what the run the state was claimed for is for: true
	// keeps the per-access pattern profile of every group it runs, false
	// is a run made for its output (RunUnprofiled),
	// whose groups all skip the classifier while the counters stay exact.
	// Set by whoever claims the state for a run (seqState,
	// shardState).
	profiled bool

	// Parallel-run scratch, reused across runs: per-shard statistics,
	// merged deterministically in shard order.
	ownStats *RunStats

	// affineLoops counts the fused loops the closed form served, and
	// unfusedLoops the fused loops whose guard held but which ran their
	// unfused body. Both ways of running such a loop are bit-identical in
	// every result, so this is the only place a test can see which one
	// ran. parked counts the work-items that parked at a column walk
	// (park.go), for the same reason.
	affineLoops, unfusedLoops, parked int64

	// parks says the groups of the run the state is claimed for park their
	// work-items at their column walks (see claim). parking is set while
	// one work-item runs its park pass, and parkAt is where it stopped.
	// items holds the group's parked work-items.
	parks, parking bool
	parkAt         int
	items          []parkedItem
}

// prepare sizes the scratch for the executor's current launch and points
// the environment at the given statistics. It is cheap when the
// previously prepared sizes still fit.
func (rs *runState) prepare(stats *RunStats) {
	ex := rs.ex
	wgSize := ex.nd.GroupSize()
	if len(rs.slotScratch) < wgSize {
		rs.slotScratch = make([][]Value, wgSize)
		for i := range rs.slotScratch {
			rs.slotScratch[i] = make([]Value, ex.kernel.NumSlots)
		}
		rs.doneScratch = make([]bool, wgSize)
		if len(ex.lay.privSyms) > 0 {
			rs.privScratch = make([][][]Value, wgSize)
			for i := range rs.privScratch {
				rs.privScratch[i] = make([][]Value, len(ex.lay.privSyms))
				for j, sym := range ex.lay.privSyms {
					rs.privScratch[i][j] = make([]Value, sym.ArrayLen)
				}
			}
		}
	}
	if rs.wg.locals == nil && len(ex.lay.localSyms) > 0 {
		rs.wg.locals = make([][]Value, len(ex.lay.localSyms))
		for i, sym := range ex.lay.localSyms {
			ln := sym.ArrayLen
			if ln == 0 {
				ln = 1 // __local scalar
			}
			rs.wg.locals[i] = make([]Value, ln)
		}
	}
	if prog := ex.prog; prog != nil && len(rs.irScratch) < wgSize {
		rs.irScratch = make([][]int64, wgSize)
		rs.frScratch = make([][]float64, wgSize)
		for i := 0; i < wgSize; i++ {
			rs.irScratch[i] = append([]int64(nil), prog.initI...)
			rs.frScratch[i] = append([]float64(nil), prog.initF...)
		}
	}
	// A parameter the kernel never writes holds its value for the whole
	// run, in every register row.
	for i := 0; ex.prog != nil && i < wgSize; i++ {
		loadParams(rs.irScratch[i], rs.frScratch[i], ex.prog.fixedI, ex.prog.fixedF, ex.paramVals)
	}
	if rs.parks && len(rs.items) < wgSize {
		rs.items = make([]parkedItem, wgSize)
	}
	rs.stats = stats
	rs.env.stats = stats
	rs.env.bufs = ex.bufs
	rs.nd = ex.nd
	rs.env.nd = &rs.nd
	rs.env.wg = &rs.wg
}

// runGroup executes a single work-group identified by its linear id
// (dimension 0 fastest). Panics below this boundary — including injected
// ones — are contained and returned as classified errors, also when the
// call happens on a shard worker goroutine.
func (rs *runState) runGroup(linear int) (err error) {
	if rs.ex.prog != nil {
		return rs.runGroupBC(linear)
	}
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*runtimeError); ok {
				err = faults.Wrap(faults.StageExec,
					fmt.Errorf("interp: kernel %s: %w", rs.ex.kernel.Name, re))
				return
			}
			// Any other panic is an interpreter bug: contain it at the
			// package boundary so it cannot escape into the host app.
			err = &faults.PanicError{Stage: faults.StageExec, Value: r}
		}
	}()
	ex := rs.ex
	if ex.Check != nil {
		if cerr := ex.Check(); cerr != nil {
			return faults.Wrap(faults.StageExec, cerr)
		}
	}
	total := rs.nd.TotalGroups()
	if linear < 0 || linear >= total {
		return fmt.Errorf("interp: work-group %d out of range [0,%d)", linear, total)
	}
	coords := rs.nd.GroupCoords(linear)
	wgSize := rs.nd.GroupSize()

	// __local storage starts zeroed for every work-group.
	for _, arr := range rs.wg.locals {
		for j := range arr {
			arr[j] = Value{}
		}
	}
	for i := 0; i < wgSize; i++ {
		rs.doneScratch[i] = false
	}

	e := &rs.env
	e.classify = rs.profiled
	nd := &rs.nd
	l0, l1 := int64(nd.Local[0]), int64(nd.Local[1])
	baseWI := int64(linear) * int64(wgSize)

	rs.stats.GroupsRun++
	for segIdx, seg := range ex.ck.segments {
		lin := 0
		for l2v := 0; l2v < nd.Local[2]; l2v++ {
			for l1v := 0; l1v < nd.Local[1]; l1v++ {
				for l0v := 0; l0v < nd.Local[0]; l0v++ {
					if rs.doneScratch[lin] {
						lin++
						continue
					}
					slots := rs.slotScratch[lin]
					if segIdx == 0 {
						copy(slots, ex.paramVals)
						if rs.privScratch != nil {
							for _, arr := range rs.privScratch[lin] {
								for j := range arr {
									arr[j] = Value{}
								}
							}
						}
						rs.stats.ItemsRun++
					}
					e.slots = slots
					if rs.privScratch != nil {
						e.priv = rs.privScratch[lin]
					}
					e.lid = [3]int64{int64(l0v), int64(l1v), int64(l2v)}
					e.grp = [3]int64{int64(coords[0]), int64(coords[1]), int64(coords[2])}
					e.gid = [3]int64{
						int64(nd.Offset[0]) + e.grp[0]*l0 + e.lid[0],
						int64(nd.Offset[1]) + e.grp[1]*l1 + e.lid[1],
						int64(nd.Offset[2]) + e.grp[2]*int64(nd.Local[2]) + e.lid[2],
					}
					e.wi = baseWI + int64(lin)
					if seg(e) == ctrlReturn {
						rs.doneScratch[lin] = true
					}
					lin++
				}
			}
		}
	}
	return nil
}
