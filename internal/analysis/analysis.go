package analysis

import (
	"fmt"

	"dopia/internal/access"
	"dopia/internal/clc"
	"dopia/internal/faults"
)

// SiteClass is the static classification of one memory site.
type SiteClass struct {
	Site     int
	ArgIndex int // kernel parameter slot of the accessed buffer; -1 = local/private
	Write    bool
	Local    bool // __local or private array access (on-chip, not DRAM)
	Depth    int  // loop nesting depth of the access

	// Iter is the per-loop-iteration pattern (the paper's Table 1
	// classification). IterStride is in elements when Strided and the
	// stride is a known constant; 0 when symbolic.
	Iter       access.Pattern
	IterStride int64

	// Lane is the across-adjacent-work-items pattern that determines GPU
	// memory coalescing. LaneStride as above.
	Lane       access.Pattern
	LaneStride int64
}

// Result is the outcome of analyzing one kernel: the paper's static code
// features plus the per-site classifications consumed by the performance
// simulator.
type Result struct {
	KernelName string

	// Static memory-operation counts by iteration pattern (Table 1).
	MemConstant   int
	MemContinuous int
	MemStride     int
	MemRandom     int

	// Static arithmetic-operation counts (Table 1).
	ArithInt   int
	ArithFloat int

	Sites []SiteClass

	// AtomicArgs lists the kernel parameter slots targeted by atomic
	// builtins (atomic_add(ptr, v) and friends). Atomics mutate memory
	// through a bare pointer rather than an Index expression, so they
	// never appear in Sites — but runtime layers that snapshot and
	// restore "written" buffers (sampled profiling in sched, the
	// fallback ladder's rollback in core) must treat these parameters
	// as written, or atomic accumulators leak partial state.
	AtomicArgs []int

	// ProfileInputs lists, ascending, the buffer parameter slots whose
	// loaded values can reach an index, a branch, loop or ternary
	// condition, a &&/|| operand or an integer divisor (see inputs.go).
	// No other buffer's contents can change which operations a run
	// executes or where they access memory, so a sampled profile depends
	// on the launch geometry, the scalars, the buffer shapes and the
	// bytes of these buffers alone.
	ProfileInputs []int

	// MaxLoopDepth is the deepest loop nest in the kernel.
	MaxLoopDepth int

	// written is WrittenArgs, filled in once the walk is done.
	written []int

	// indep is the static half of the work-group-independence predicate
	// (see independence.go).
	indep Independence
}

// appendSlot appends a parameter slot unless it is already listed.
func appendSlot(slots []int, slot int) []int {
	for _, s := range slots {
		if s == slot {
			return slots
		}
	}
	return append(slots, slot)
}

// addAtomicArg records a parameter slot as an atomic target (deduped).
func (r *Result) addAtomicArg(slot int) { r.AtomicArgs = appendSlot(r.AtomicArgs, slot) }

// WrittenArgs returns the parameter slots the kernel writes: the targets
// of its store sites plus AtomicArgs, each once. Every layer that
// snapshots, restores or invalidates "the written buffers" asks here.
// The slice is shared and must not be modified.
func (r *Result) WrittenArgs() []int { return r.written }

// MemTotal returns the total number of classified memory operations.
func (r *Result) MemTotal() int {
	return r.MemConstant + r.MemContinuous + r.MemStride + r.MemRandom
}

// Site returns the classification for a site id, or nil.
func (r *Result) Site(id int) *SiteClass {
	for i := range r.Sites {
		if r.Sites[i].Site == id {
			return &r.Sites[i]
		}
	}
	return nil
}

// Memo keys of the two analyses a kernel owns (see clc.Memo).
type (
	analysisKey     struct{}
	independenceKey struct{}
)

// Analyze performs the static analysis of a checked kernel, once per
// kernel: the result is shared and must not be modified. Panics in the
// analyzer are contained and returned as classified errors; Analyze
// never panics.
func Analyze(k *clc.Kernel) (res *Result, err error) {
	defer faults.Recover(faults.StageAnalysis, &err)
	if err := faults.Hit("analysis.analyze"); err != nil {
		return nil, faults.Wrap(faults.StageAnalysis, err)
	}
	return clc.Memo(k, analysisKey{}, func() (*Result, error) { return runAnalysis(k, false) })
}

// runAnalysis walks the kernel. With exact set it additionally tracks
// the exact value of every integer expression (poly.go) and fills in the
// work-group-independence summary; the classification is the same either
// way, the exact walk just costs about half as much again.
func runAnalysis(k *clc.Kernel, exact bool) (*Result, error) {
	a := &analyzer{
		res:   &Result{KernelName: k.Name},
		env:   map[*clc.Symbol]form{},
		exact: exact,
	}
	// Parameters are launch-constant.
	for _, p := range k.Params {
		if exact {
			a.res.indep.params = append(a.res.indep.params, p.Name)
		}
		if !p.Type.Ptr {
			a.env[p.Sym] = a.paramForm(p.Sym)
		}
	}
	if k.Body != nil {
		a.block(k.Body, true)
	}
	if a.err != nil {
		return nil, faults.Wrap(faults.StageAnalysis,
			fmt.Errorf("%w: %w", faults.ErrAnalysisFailed, a.err))
	}
	for _, sc := range a.res.Sites {
		if sc.Write && sc.ArgIndex >= 0 {
			a.res.written = appendSlot(a.res.written, sc.ArgIndex)
		}
	}
	for _, slot := range a.res.AtomicArgs {
		a.res.written = appendSlot(a.res.written, slot)
	}
	if len(a.res.AtomicArgs) > 0 {
		a.res.indep.static = "global atomics"
	}
	a.res.ProfileInputs = profileInputs(k)
	return a.res, nil
}

// paramForm is the form of a scalar parameter: launch-constant, and for
// integer parameters exactly the bound argument value.
func (a *analyzer) paramForm(sym *clc.Symbol) form {
	if exactInt(sym.Type.Kind) {
		return a.variable(uniformForm(), pvar{varParam, sym.Slot})
	}
	return uniformForm()
}

// variable gives f the exact value "variable v"; lit gives a literal form
// its own value. Both do nothing in an analysis that is not exact.
func (a *analyzer) variable(f form, v pvar) form {
	if a.exact {
		f.p = varPoly(v)
	}
	return f
}

func (a *analyzer) lit(f form) form {
	if a.exact && f.litOK {
		f.p = constPoly(f.lit)
	}
	return f
}

// exactInt reports whether values of kind k are tracked exactly: the
// 32- and 64-bit integers a buffer index is computed in.
func exactInt(k clc.Kind) bool {
	switch k {
	case clc.KindInt, clc.KindUInt, clc.KindLong, clc.KindULong:
		return true
	}
	return false
}

type loopInfo struct {
	sym  *clc.Symbol
	step int64 // 0 when the step is not a recognizable constant
}

type analyzer struct {
	res   *Result
	env   map[*clc.Symbol]form
	loops []loopInfo // enclosing loops, innermost last
	// exact turns on exact-value tracking (see runAnalysis).
	exact bool
	// loopIDs numbers the for loops; the number names the loop's
	// induction variable in exact index polynomials.
	loopIDs map[*clc.ForStmt]int
	// record suppresses site/op recording during fixpoint warm-up passes.
	suppress int
	err      error
}

func (a *analyzer) fail(pos clc.Pos, format string, args ...any) {
	if a.err == nil {
		a.err = fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))
	}
}

func (a *analyzer) envClone() map[*clc.Symbol]form {
	m := make(map[*clc.Symbol]form, len(a.env))
	for k, v := range a.env {
		m[k] = v
	}
	return m
}

// ---------------------------------------------------------------------------
// Statements

func (a *analyzer) block(b *clc.Block, _ bool) {
	for _, s := range b.Stmts {
		a.stmt(s)
	}
}

func (a *analyzer) stmt(s clc.Stmt) {
	switch st := s.(type) {
	case *clc.Block:
		a.block(st, false)
	case *clc.DeclStmt:
		for _, d := range st.Decls {
			if d.Init != nil {
				a.env[d.Sym] = storedForm(d.Sym, a.expr(d.Init))
			} else if d.Sym != nil && d.ArrayLen == 0 {
				a.env[d.Sym] = storedForm(d.Sym, a.lit(litForm(0)))
			}
		}
	case *clc.ExprStmt:
		a.expr(st.X)
	case *clc.IfStmt:
		a.expr(st.Cond)
		pre := a.envClone()
		a.stmt(st.Then)
		thenEnv := a.env
		a.env = pre
		if st.Else != nil {
			elseEnv := a.envClone()
			a.env = elseEnv
			a.stmt(st.Else)
			elseEnv = a.env
			a.env = mergeEnvs(thenEnv, elseEnv)
		} else {
			a.env = mergeEnvs(thenEnv, pre)
		}
	case *clc.ForStmt:
		a.forLoop(st)
	case *clc.WhileStmt:
		a.loopBody(nil, 0, pvar{}, st.Body, func() { a.expr(st.Cond) })
	case *clc.DoWhileStmt:
		a.loopBody(nil, 0, pvar{}, st.Body, func() { a.expr(st.Cond) })
	case *clc.ReturnStmt, *clc.BreakStmt, *clc.ContinueStmt, *clc.BarrierStmt:
		// No dataflow effect for this analysis.
	}
}

// mergeEnvs widens variables that differ between two paths.
func mergeEnvs(x, y map[*clc.Symbol]form) map[*clc.Symbol]form {
	out := make(map[*clc.Symbol]form, len(x))
	for k, v := range x {
		if w, ok := y[k]; ok {
			out[k] = mergeForms(v, w)
		} else {
			out[k] = v
		}
	}
	for k, v := range y {
		if _, ok := x[k]; !ok {
			out[k] = v
		}
	}
	return out
}

func (a *analyzer) forLoop(st *clc.ForStmt) {
	// Evaluate the init in the current environment.
	if st.Init != nil {
		a.stmt(st.Init)
	}
	sym, step := inductionOf(st)
	id := 0
	if a.exact {
		id = a.loopID(st)
	}
	var lo poly
	if sym != nil {
		lo = a.env[sym].p
	}
	a.loopBody(sym, step, pvar{varLoop, id}, st.Body, func() {
		if st.Cond == nil {
			return
		}
		a.expr(st.Cond)
		if a.exact && a.suppress == 0 && sym != nil {
			// The recording pass sees the loop-head environment after
			// widening, so a bound the body modifies is already unknown.
			a.res.indep.loops[id] = a.rangeOf(sym, lo, step, st.Cond)
		}
	})
	// st.Post is intentionally not analyzed as a side effect here: the
	// induction variable is replaced by a basis inside the body, and after
	// the loop its value depends on the trip count.
	if sym != nil {
		a.env[sym] = nonlinearForm()
	}
}

// loopID numbers st on first sight; fixpoint passes revisit loops.
func (a *analyzer) loopID(st *clc.ForStmt) int {
	id, ok := a.loopIDs[st]
	if !ok {
		if a.loopIDs == nil {
			a.loopIDs = map[*clc.ForStmt]int{}
		}
		id = len(a.res.indep.loops)
		a.loopIDs[st] = id
		a.res.indep.loops = append(a.res.indep.loops, loopRange{})
	}
	return id
}

// rangeOf derives the values induction variable sym takes from a loop of
// the shape `for (sym = lo; sym < hi; sym += step)` (or <=) with a
// positive constant step; any other shape yields the unknown range.
func (a *analyzer) rangeOf(sym *clc.Symbol, lo poly, step int64, cond clc.Expr) loopRange {
	bin, ok := cond.(*clc.Binary)
	if !ok || step <= 0 || (bin.Op != clc.BinLt && bin.Op != clc.BinLe) {
		return loopRange{}
	}
	if id, ok := bin.L.(*clc.Ident); !ok || id.Sym != sym {
		return loopRange{}
	}
	a.suppress++
	hi := a.expr(bin.R).p
	a.suppress--
	if bin.Op == clc.BinLe {
		hi = addPoly(hi, constPoly(1), false)
	}
	if lo == nil || hi == nil {
		return loopRange{}
	}
	return loopRange{lo: lo, hi: hi, step: step}
}

// inductionOf identifies the induction variable and step of a for loop:
// the variable assigned by the post expression via ++/--/+=/-= or
// i = i + c.
func inductionOf(st *clc.ForStmt) (*clc.Symbol, int64) {
	switch post := st.Post.(type) {
	case *clc.IncDec:
		if id, ok := post.X.(*clc.Ident); ok && id.Sym != nil {
			if post.Decr {
				return id.Sym, -1
			}
			return id.Sym, 1
		}
	case *clc.Assign:
		id, ok := post.LHS.(*clc.Ident)
		if !ok || id.Sym == nil {
			return nil, 0
		}
		switch post.Op {
		case clc.AssignAdd:
			if lit, ok := post.RHS.(*clc.IntLit); ok {
				return id.Sym, lit.Value
			}
			return id.Sym, 0
		case clc.AssignSub:
			if lit, ok := post.RHS.(*clc.IntLit); ok {
				return id.Sym, -lit.Value
			}
			return id.Sym, 0
		case clc.AssignPlain:
			// i = i + c or i = c + i
			if bin, ok := post.RHS.(*clc.Binary); ok && bin.Op == clc.BinAdd {
				if l, ok := bin.L.(*clc.Ident); ok && l.Sym == id.Sym {
					if lit, ok := bin.R.(*clc.IntLit); ok {
						return id.Sym, lit.Value
					}
					return id.Sym, 0
				}
				if r, ok := bin.R.(*clc.Ident); ok && r.Sym == id.Sym {
					if lit, ok := bin.L.(*clc.IntLit); ok {
						return id.Sym, lit.Value
					}
					return id.Sym, 0
				}
			}
		}
	}
	return nil, 0
}

// loopBody analyzes a loop body to a fixpoint: a warm-up pass widens
// variables whose form changes across an iteration (loop-carried
// dependencies); the final pass records sites and operation counts.
// sym is the induction variable (or nil), step its per-iteration
// increment (0 = unknown) and iv the variable that names it in exact
// index polynomials.
func (a *analyzer) loopBody(sym *clc.Symbol, step int64, iv pvar, body clc.Stmt, cond func()) {
	li := loopInfo{sym: sym, step: step}
	a.loops = append(a.loops, li)
	if len(a.loops) > a.res.MaxLoopDepth {
		a.res.MaxLoopDepth = len(a.loops)
	}
	if sym != nil {
		a.env[sym] = a.variable(basisForm(basis{sym: sym}), iv)
	}

	// Warm-up passes (recording suppressed) until the environment is
	// stable; two passes suffice because widening is idempotent, but we
	// allow a third for safety.
	a.suppress++
	for pass := 0; pass < 3; pass++ {
		before := a.envClone()
		cond()
		a.stmt(body)
		changed := false
		for k, v := range a.env {
			if w, ok := before[k]; !ok {
				continue
			} else if !v.equal(w) {
				a.env[k] = nonlinearForm()
				changed = true
			} else if !samePoly(v.p, w.p) {
				// Same abstract form, different exact value (x += 1 under
				// an abstraction that drops offsets): only the exact
				// value is loop-carried.
				a.env[k] = w.inexact()
				changed = true
			}
		}
		// Restore forms that did not change; drop body-local declarations.
		for k := range a.env {
			if _, ok := before[k]; !ok {
				delete(a.env, k)
			}
		}
		for k, v := range before {
			if !a.env[k].equal(v) && !a.env[k].nonlinear {
				a.env[k] = v
			}
		}
		if sym != nil {
			a.env[sym] = a.variable(basisForm(basis{sym: sym}), iv)
		}
		if !changed {
			break
		}
	}
	a.suppress--

	// Final recording pass.
	pre := a.envClone()
	cond()
	a.stmt(body)
	if sym != nil && a.exact && a.suppress == 0 && !a.env[sym].p.equal(varPoly(iv)) {
		// The body moves the induction variable itself, so the values it
		// takes are not the init/bound/step progression.
		a.res.indep.loops[iv.n] = loopRange{}
	}
	// After the loop, body-assigned variables are trip-count dependent.
	for k, v := range a.env {
		if w, ok := pre[k]; !ok {
			delete(a.env, k)
		} else if !v.equal(w) {
			a.env[k] = nonlinearForm()
		} else if !samePoly(v.p, w.p) {
			a.env[k] = w.inexact()
		}
	}
	a.loops = a.loops[:len(a.loops)-1]
}

// ---------------------------------------------------------------------------
// Expressions

// storedForm is the form variable sym holds after being assigned f: the
// exact value survives only in a private 32/64-bit integer variable (a
// __local scalar is shared, so one work-item reads what another wrote).
func storedForm(sym *clc.Symbol, f form) form {
	if sym == nil || sym.IsLocal || !exactInt(sym.Type.Kind) {
		return f.inexact()
	}
	return f
}

// expr evaluates x abstractly. Exact values (form.p) exist only for
// 32/64-bit integer expressions — anything computed in another type may
// round or truncate — and every case below keeps that invariant: exact
// values enter at integer literals, integer parameters, work-item ids and
// loop counters, combine through +, -, * of exact operands, and are
// dropped by a cast or an assignment to any other type.
func (a *analyzer) expr(x clc.Expr) form {
	switch e := x.(type) {
	case *clc.IntLit:
		return a.lit(litForm(e.Value))
	case *clc.FloatLit:
		return uniformForm()
	case *clc.Ident:
		if e.Sym == nil {
			return nonlinearForm()
		}
		if f, ok := a.env[e.Sym]; ok {
			return f
		}
		if e.Sym.Class == clc.SymParam {
			return a.paramForm(e.Sym)
		}
		return nonlinearForm()
	case *clc.Unary:
		f := a.expr(e.X)
		a.countArith(x, e.Op == clc.UnaryNeg || e.Op == clc.UnaryPlus)
		switch e.Op {
		case clc.UnaryNeg:
			return negForm(f)
		case clc.UnaryPlus:
			return f
		default:
			if f.isUniform() {
				return uniformForm()
			}
			return nonlinearForm()
		}
	case *clc.Binary:
		return a.binary(e)
	case *clc.Cond:
		a.expr(e.C)
		t := a.expr(e.Then)
		f := a.expr(e.Else)
		return mergeForms(t, f)
	case *clc.Index:
		a.classifySite(e)
		idx := a.expr(e.Idx)
		_ = idx
		// The loaded value is data-dependent: nonlinear as an index.
		return nonlinearForm()
	case *clc.Call:
		return a.call(e)
	case *clc.Cast:
		f := a.expr(e.X)
		if !exactInt(e.To.Kind) {
			f.p = nil
		}
		return f
	case *clc.Assign:
		return a.assign(e)
	case *clc.IncDec:
		a.countArithKind(e.X.ResultType().Kind)
		if id, ok := e.X.(*clc.Ident); ok && id.Sym != nil {
			cur, ok := a.env[id.Sym]
			if !ok {
				cur = nonlinearForm()
			}
			delta := a.lit(litForm(1))
			nf := storedForm(id.Sym, addForms(cur, delta, e.Decr))
			a.env[id.Sym] = nf
			return nf
		}
		if ix, ok := e.X.(*clc.Index); ok {
			a.classifySite(ix) // read
			a.classifySiteWrite(ix)
			a.expr(ix.Idx)
		}
		return nonlinearForm()
	}
	return nonlinearForm()
}

func (a *analyzer) binary(e *clc.Binary) form {
	l := a.expr(e.L)
	r := a.expr(e.R)
	if !e.Op.IsComparison() && !e.Op.IsLogical() {
		a.countArithKind(e.ResultType().Kind)
	}
	switch e.Op {
	case clc.BinAdd:
		return addForms(l, r, false)
	case clc.BinSub:
		return addForms(l, r, true)
	case clc.BinMul:
		return mulForms(l, r)
	case clc.BinDiv, clc.BinRem, clc.BinShl, clc.BinShr, clc.BinAnd, clc.BinOr, clc.BinXor:
		if l.isUniform() && r.isUniform() {
			if l.litOK && r.litOK {
				f := foldIntOp(e.Op, l.lit, r.lit)
				if exactInt(e.ResultType().Kind) {
					f = a.lit(f)
				}
				return f
			}
			return uniformForm()
		}
		// A loop-varying value combined through a non-affine operator:
		// unanalyzable stride.
		return nonlinearForm()
	default: // comparisons, logical
		return uniformForm()
	}
}

func foldIntOp(op clc.BinaryOp, l, r int64) form {
	switch op {
	case clc.BinDiv:
		if r != 0 {
			return litForm(l / r)
		}
	case clc.BinRem:
		if r != 0 {
			return litForm(l % r)
		}
	case clc.BinShl:
		return litForm(l << uint64(r&63))
	case clc.BinShr:
		return litForm(l >> uint64(r&63))
	case clc.BinAnd:
		return litForm(l & r)
	case clc.BinOr:
		return litForm(l | r)
	case clc.BinXor:
		return litForm(l ^ r)
	}
	return uniformForm()
}

func (a *analyzer) assign(e *clc.Assign) form {
	rhs := a.expr(e.RHS)
	if e.Op != clc.AssignPlain {
		a.countArithKind(e.LHS.ResultType().Kind)
	}
	switch lhs := e.LHS.(type) {
	case *clc.Ident:
		if lhs.Sym == nil {
			return nonlinearForm()
		}
		var nf form
		if e.Op == clc.AssignPlain {
			nf = rhs
		} else {
			cur, ok := a.env[lhs.Sym]
			if !ok {
				cur = nonlinearForm()
			}
			switch e.Op {
			case clc.AssignAdd:
				nf = addForms(cur, rhs, false)
			case clc.AssignSub:
				nf = addForms(cur, rhs, true)
			case clc.AssignMul:
				nf = mulForms(cur, rhs)
			default:
				if cur.isUniform() && rhs.isUniform() {
					nf = uniformForm()
				} else {
					nf = nonlinearForm()
				}
			}
		}
		nf = storedForm(lhs.Sym, nf)
		a.env[lhs.Sym] = nf
		return nf
	case *clc.Index:
		if e.Op != clc.AssignPlain {
			a.classifySite(lhs) // compound assignment also reads
		}
		a.classifySiteWrite(lhs)
		a.expr(lhs.Idx)
		return rhs.inexact() // the stored value has the element's type
	}
	return nonlinearForm()
}

func (a *analyzer) call(e *clc.Call) form {
	b := e.Builtin
	if b == nil {
		return nonlinearForm()
	}
	switch b.Kind {
	case clc.BuiltinWorkItem:
		dim := 0
		// The exact value is known only for a literal dimension inside
		// the index space.
		dimKnown := len(e.Args) == 0
		if len(e.Args) == 1 {
			if lit, ok := e.Args[0].(*clc.IntLit); ok {
				dim = int(lit.Value)
				dimKnown = lit.Value >= 0 && lit.Value < 3
			} else {
				f := a.expr(e.Args[0])
				if !f.isUniform() {
					return nonlinearForm()
				}
			}
		}
		var f form
		var v pvar
		switch e.Name {
		case "get_global_id":
			f, v = basisForm(basis{wik: wiGlobalID, dim: dim}), pvar{varGlobalID, dim}
		case "get_local_id":
			f, v = basisForm(basis{wik: wiLocalID, dim: dim}), pvar{varLocalID, dim}
		case "get_group_id":
			// Group ids are launch-wide (every co-execution span is a
			// segment of the one launch), but the exact domain does not
			// track them, so they have no exact value.
			return basisForm(basis{wik: wiGroupID, dim: dim})
		case "get_local_size":
			f, v = uniformForm(), pvar{varLocalSize, dim}
		default: // other sizes, offsets, work_dim are launch-constant
			return uniformForm()
		}
		if !dimKnown {
			return f
		}
		return a.variable(f, v)
	case clc.BuiltinMath, clc.BuiltinMath2:
		for _, arg := range e.Args {
			a.expr(arg)
		}
		a.res.ArithFloat++
		return nonlinearForm()
	case clc.BuiltinIntMinMax, clc.BuiltinAbs:
		allUniform := true
		for _, arg := range e.Args {
			if f := a.expr(arg); !f.isUniform() {
				allUniform = false
			}
		}
		a.countArithKind(e.ResultType().Kind)
		if allUniform {
			return uniformForm()
		}
		return nonlinearForm()
	case clc.BuiltinAtomic, clc.BuiltinAtomic2:
		// The target (Args[0]) is a bare pointer Ident, not an Index, so
		// it never reaches classifySite; record the written parameter so
		// snapshot/restore layers can roll atomic accumulators back.
		if id, ok := e.Args[0].(*clc.Ident); ok && id.Sym != nil && id.Sym.Class == clc.SymParam {
			a.res.addAtomicArg(id.Sym.Slot)
		}
		for _, arg := range e.Args[1:] {
			a.expr(arg)
		}
		a.res.ArithInt++
		return nonlinearForm()
	}
	return nonlinearForm()
}

// ---------------------------------------------------------------------------
// Counting and classification

func (a *analyzer) countArith(x clc.Expr, arith bool) {
	if !arith {
		return
	}
	a.countArithKind(x.ResultType().Kind)
}

func (a *analyzer) countArithKind(k clc.Kind) {
	if a.suppress > 0 {
		return
	}
	if k.IsFloat() {
		a.res.ArithFloat++
	} else {
		a.res.ArithInt++
	}
}

func (a *analyzer) classifySite(ix *clc.Index) {
	a.recordSite(ix, false)
}

func (a *analyzer) classifySiteWrite(ix *clc.Index) {
	a.recordSite(ix, true)
}

func (a *analyzer) recordSite(ix *clc.Index, write bool) {
	if a.suppress > 0 {
		return
	}
	// The index form must be computed without double-counting arithmetic:
	// the caller is responsible for invoking a.expr on subexpressions; here
	// we recompute the form with counting suppressed.
	a.suppress++
	f := a.expr(ix.Idx)
	a.suppress--

	sc := SiteClass{
		Site:  ix.Site,
		Write: write,
		Depth: len(a.loops),
	}
	sc.ArgIndex = -1
	if id, ok := ix.Base.(*clc.Ident); ok && id.Sym != nil {
		if id.Sym.Class == clc.SymParam {
			sc.ArgIndex = id.Sym.Slot
			if a.exact {
				a.res.indep.accesses = append(a.res.indep.accesses,
					globalAccess{slot: sc.ArgIndex, write: write, idx: f.p})
			}
		} else {
			sc.Local = true
		}
	}

	sc.Iter, sc.IterStride = a.iterClass(f)
	sc.Lane, sc.LaneStride = laneClass(f)

	// On-chip accesses do not enter the Table 1 feature counts: the paper
	// analyzes DRAM-bound behaviour.
	if !sc.Local {
		switch sc.Iter {
		case access.Constant:
			a.res.MemConstant++
		case access.Continuous:
			a.res.MemContinuous++
		case access.Strided:
			a.res.MemStride++
		case access.Random:
			a.res.MemRandom++
		}
	}
	a.res.Sites = append(a.res.Sites, sc)
}

// iterClass classifies an index form against the innermost enclosing loop.
// Outside loops, the implicit loop is the work-item stream, so the lane
// classification is used.
func (a *analyzer) iterClass(f form) (access.Pattern, int64) {
	if f.nonlinear {
		return access.Random, 0
	}
	// Find the innermost loop that has a recognised induction variable.
	for i := len(a.loops) - 1; i >= 0; i-- {
		li := a.loops[i]
		if li.sym == nil {
			// Unrecognised loop (while/do): if the form depends on
			// anything loop-internal it was widened already; treat the
			// access as constant w.r.t. this loop and keep searching.
			continue
		}
		c := f.coefOf(basis{sym: li.sym})
		step := li.step
		if c.isZero() {
			if i == len(a.loops)-1 {
				// Invariant w.r.t. the innermost loop.
				return access.Constant, 0
			}
			continue
		}
		if step == 0 {
			return access.Strided, 0
		}
		switch c.kind {
		case coefConst:
			d := c.k * step
			if d == 1 || d == -1 {
				return access.Continuous, d
			}
			return access.Strided, d
		default:
			return access.Strided, 0
		}
	}
	// Not loop-dependent: classify by the work-item stream.
	return laneClass(f)
}

// laneClass classifies an index form against adjacent work-items in
// dimension 0 (the lane axis for GPU coalescing). get_global_id(0) and
// get_local_id(0) advance by 1 between adjacent lanes; group ids and other
// dimensions are lane-invariant.
func laneClass(f form) (access.Pattern, int64) {
	if f.nonlinear {
		return access.Random, 0
	}
	c := f.coefOf(basis{wik: wiGlobalID, dim: 0}).
		add(f.coefOf(basis{wik: wiLocalID, dim: 0}))
	switch c.kind {
	case coefZero:
		return access.Constant, 0
	case coefConst:
		if c.k == 1 || c.k == -1 {
			return access.Continuous, c.k
		}
		return access.Strided, c.k
	default:
		return access.Strided, 0
	}
}
