package interp

import (
	"fmt"
	"math"

	"dopia/internal/clc"
)

// ctrl is the control-flow result of executing a compiled statement.
type ctrl int8

const (
	ctrlNormal ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// evalFn evaluates a compiled expression in an environment.
type evalFn func(e *env) Value

// stmtFn executes a compiled statement.
type stmtFn func(e *env) ctrl

// env is the per-work-item execution environment. It is reused across
// work-items with the slots slice swapped, so compiled closures must not
// retain it. An env carries everything a compiled closure may touch at
// run time — compiled kernels themselves hold no per-execution state, so
// one compiled form can be shared by any number of executors and shard
// workers running concurrently, each with its own env.
type env struct {
	slots []Value
	gid   [3]int64
	lid   [3]int64
	grp   [3]int64
	wi    int64 // linear work-item index within the launch

	stats *RunStats // statistics of this worker/shard
	bufs  []*Buffer // bound buffers, by parameter slot
	nd    *NDRange  // the launched ND range (shared, read-only)
	wg    *wgState
	priv  [][]Value // private arrays of the current work-item, by index

	// classify gates the per-access pattern classifier: when false (an
	// unsampled work-group under sampled profiling) recordAccess is
	// skipped while the aggregate counters stay exact.
	// Exact profiling keeps it true for every group.
	classify bool
}

// wgState is the work-group-shared state: __local arrays and scalars.
type wgState struct {
	locals [][]Value // by local symbol index
}

// runtimeError aborts kernel execution; Run recovers it into an error.
type runtimeError struct {
	pos clc.Pos
	msg string
}

func (e *runtimeError) Error() string { return fmt.Sprintf("%s: %s", e.pos, e.msg) }

func rtErr(pos clc.Pos, format string, args ...any) {
	panic(&runtimeError{pos: pos, msg: fmt.Sprintf(format, args...)})
}

// compiled is a kernel lowered to closures, split into barrier-delimited
// segments. A compiled form is immutable after compileKernel returns and
// holds no execution state, so it is shared freely across executors and
// goroutines (see Exec.Launch).
type compiled struct {
	segments []stmtFn
}

// compiler holds state while lowering one kernel.
type compiler struct {
	lay *layout
	err error
}

func (cp *compiler) fail(pos clc.Pos, format string, args ...any) {
	if cp.err == nil {
		cp.err = fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))
	}
}

// compileKernel lowers a checked kernel with layout lay to closures.
func compileKernel(k *clc.Kernel, lay *layout) (*compiled, error) {
	c := &compiled{}
	cp := &compiler{lay: lay}

	// Split the body at top-level barriers into segments.
	var seg []clc.Stmt
	flush := func() {
		stmts := make([]stmtFn, 0, len(seg))
		for _, s := range seg {
			stmts = append(stmts, cp.compileStmt(s))
		}
		seg = nil
		list := stmts
		c.segments = append(c.segments, func(e *env) ctrl {
			for _, fn := range list {
				if cc := fn(e); cc != ctrlNormal {
					return cc
				}
			}
			return ctrlNormal
		})
	}
	if k.Body != nil {
		for _, s := range k.Body.Stmts {
			if _, isBarrier := s.(*clc.BarrierStmt); isBarrier {
				flush()
				continue
			}
			seg = append(seg, s)
		}
	}
	flush()
	if cp.err != nil {
		return nil, cp.err
	}
	return c, nil
}

// ---------------------------------------------------------------------------
// Statements

func (cp *compiler) compileStmt(s clc.Stmt) stmtFn {
	switch st := s.(type) {
	case *clc.Block:
		fns := make([]stmtFn, 0, len(st.Stmts))
		for _, inner := range st.Stmts {
			fns = append(fns, cp.compileStmt(inner))
		}
		return func(e *env) ctrl {
			for _, fn := range fns {
				if cc := fn(e); cc != ctrlNormal {
					return cc
				}
			}
			return ctrlNormal
		}
	case *clc.DeclStmt:
		var fns []stmtFn
		for _, d := range st.Decls {
			fns = append(fns, cp.compileDecl(d))
		}
		if len(fns) == 1 {
			return fns[0]
		}
		return func(e *env) ctrl {
			for _, fn := range fns {
				fn(e)
			}
			return ctrlNormal
		}
	case *clc.ExprStmt:
		fn := cp.compileExpr(st.X)
		return func(e *env) ctrl {
			fn(e)
			return ctrlNormal
		}
	case *clc.IfStmt:
		cond := cp.compileTruth(st.Cond)
		then := cp.compileStmt(st.Then)
		if st.Else == nil {
			return func(e *env) ctrl {
				if cond(e) {
					return then(e)
				}
				return ctrlNormal
			}
		}
		els := cp.compileStmt(st.Else)
		return func(e *env) ctrl {
			if cond(e) {
				return then(e)
			}
			return els(e)
		}
	case *clc.ForStmt:
		var init stmtFn
		if st.Init != nil {
			init = cp.compileStmt(st.Init)
		}
		var cond func(e *env) bool
		if st.Cond != nil {
			cond = cp.compileTruth(st.Cond)
		}
		var post evalFn
		if st.Post != nil {
			post = cp.compileExpr(st.Post)
		}
		body := cp.compileStmt(st.Body)
		return func(e *env) ctrl {
			if init != nil {
				init(e)
			}
			for cond == nil || cond(e) {
				switch body(e) {
				case ctrlBreak:
					return ctrlNormal
				case ctrlReturn:
					return ctrlReturn
				}
				if post != nil {
					post(e)
				}
			}
			return ctrlNormal
		}
	case *clc.WhileStmt:
		cond := cp.compileTruth(st.Cond)
		body := cp.compileStmt(st.Body)
		return func(e *env) ctrl {
			for cond(e) {
				switch body(e) {
				case ctrlBreak:
					return ctrlNormal
				case ctrlReturn:
					return ctrlReturn
				}
			}
			return ctrlNormal
		}
	case *clc.DoWhileStmt:
		cond := cp.compileTruth(st.Cond)
		body := cp.compileStmt(st.Body)
		return func(e *env) ctrl {
			for {
				switch body(e) {
				case ctrlBreak:
					return ctrlNormal
				case ctrlReturn:
					return ctrlReturn
				}
				if !cond(e) {
					return ctrlNormal
				}
			}
		}
	case *clc.ReturnStmt:
		return func(e *env) ctrl { return ctrlReturn }
	case *clc.BreakStmt:
		return func(e *env) ctrl { return ctrlBreak }
	case *clc.ContinueStmt:
		return func(e *env) ctrl { return ctrlContinue }
	case *clc.BarrierStmt:
		// Top-level barriers are handled by segmentation before
		// compileStmt is reached; nested ones are rejected by the checker.
		return func(e *env) ctrl { return ctrlNormal }
	}
	cp.fail(s.Pos(), "interp: unhandled statement %T", s)
	return func(e *env) ctrl { return ctrlNormal }
}

func (cp *compiler) compileDecl(d *clc.VarDecl) stmtFn {
	sym := d.Sym
	if sym == nil {
		cp.fail(d.NamePos, "interp: unresolved declaration %q", d.Name)
		return func(e *env) ctrl { return ctrlNormal }
	}
	if sym.IsLocal {
		// Local memory is zeroed by the executor at work-group start;
		// the checker rejects an initializer.
		return func(e *env) ctrl { return ctrlNormal }
	}
	if sym.ArrayLen > 0 {
		// Private arrays are zeroed by the executor at work-item start.
		return func(e *env) ctrl { return ctrlNormal }
	}
	slot := sym.Slot
	if d.Init == nil {
		return func(e *env) ctrl {
			e.slots[slot] = Value{}
			return ctrlNormal
		}
	}
	init := cp.convert(cp.compileExpr(d.Init), d.Init.ResultType().Kind, sym.Type.Kind, d.NamePos)
	return func(e *env) ctrl {
		e.slots[slot] = init(e)
		return ctrlNormal
	}
}

// ---------------------------------------------------------------------------
// Scalar semantics helpers

// normInt normalizes an integer to the width/signedness of kind k,
// reproducing OpenCL's 32-bit int wrap-around semantics.
func normInt(k clc.Kind, v int64) int64 {
	switch k {
	case clc.KindInt:
		return int64(int32(v))
	case clc.KindUInt:
		return int64(uint32(v))
	case clc.KindBool:
		if v != 0 {
			return 1
		}
		return 0
	default: // KindLong, KindULong keep the 64-bit pattern
		return v
	}
}

// normFloat rounds to float32 when the kind is float.
func normFloat(k clc.Kind, v float64) float64 {
	if k == clc.KindFloat {
		return float64(float32(v))
	}
	return v
}

// convert adapts a value of kind from to kind to.
func (cp *compiler) convert(fn evalFn, from, to clc.Kind, pos clc.Pos) evalFn {
	if from == to {
		return fn
	}
	switch {
	case from.IsInteger() && to.IsInteger():
		return func(e *env) Value { return Value{I: normInt(to, fn(e).I)} }
	case from.IsInteger() && to.IsFloat():
		if from.IsUnsigned() && from == clc.KindULong {
			return func(e *env) Value { return Value{F: normFloat(to, float64(uint64(fn(e).I)))} }
		}
		return func(e *env) Value { return Value{F: normFloat(to, float64(fn(e).I))} }
	case from.IsFloat() && to.IsInteger():
		return func(e *env) Value { return Value{I: normInt(to, int64(fn(e).F))} }
	case from.IsFloat() && to.IsFloat():
		return func(e *env) Value { return Value{F: normFloat(to, fn(e).F)} }
	}
	cp.fail(pos, "interp: cannot convert %v to %v", from, to)
	return fn
}

// compileTruth compiles an expression used as a condition.
func (cp *compiler) compileTruth(x clc.Expr) func(e *env) bool {
	fn := cp.compileExpr(x)
	if x.ResultType().Kind.IsFloat() {
		return func(e *env) bool { return fn(e).F != 0 }
	}
	return func(e *env) bool { return fn(e).I != 0 }
}

// ---------------------------------------------------------------------------
// Expressions

func (cp *compiler) compileExpr(x clc.Expr) evalFn {
	switch ex := x.(type) {
	case *clc.IntLit:
		v := Value{I: ex.Value}
		return func(e *env) Value { return v }
	case *clc.FloatLit:
		v := Value{F: normFloat(clc.KindFloat, ex.Value)}
		return func(e *env) Value { return v }
	case *clc.Ident:
		return cp.compileIdentLoad(ex)
	case *clc.Unary:
		return cp.compileUnary(ex)
	case *clc.Binary:
		return cp.compileBinary(ex)
	case *clc.Cond:
		cond := cp.compileTruth(ex.C)
		rk := ex.ResultType().Kind
		then := cp.convert(cp.compileExpr(ex.Then), ex.Then.ResultType().Kind, rk, ex.Pos())
		els := cp.convert(cp.compileExpr(ex.Else), ex.Else.ResultType().Kind, rk, ex.Pos())
		return func(e *env) Value {
			if cond(e) {
				return then(e)
			}
			return els(e)
		}
	case *clc.Index:
		return cp.compileLoad(ex)
	case *clc.Call:
		return cp.compileCall(ex)
	case *clc.Cast:
		return cp.convert(cp.compileExpr(ex.X), ex.X.ResultType().Kind, ex.To.Kind, ex.Pos())
	case *clc.Assign:
		return cp.compileAssign(ex)
	case *clc.IncDec:
		return cp.compileIncDec(ex)
	}
	cp.fail(x.Pos(), "interp: unhandled expression %T", x)
	return func(e *env) Value { return Value{} }
}

func (cp *compiler) compileIdentLoad(id *clc.Ident) evalFn {
	sym := id.Sym
	if sym == nil {
		cp.fail(id.Pos(), "interp: unresolved identifier %q", id.Name)
		return func(e *env) Value { return Value{} }
	}
	if sym.Type.Ptr || sym.ArrayLen > 0 {
		cp.fail(id.Pos(), "interp: pointer %q used as a value", id.Name)
		return func(e *env) Value { return Value{} }
	}
	if sym.IsLocal {
		idx := cp.lay.localIdx[sym]
		return func(e *env) Value { return e.wg.locals[idx][0] }
	}
	slot := sym.Slot
	return func(e *env) Value { return e.slots[slot] }
}

func (cp *compiler) compileUnary(u *clc.Unary) evalFn {
	xk := u.X.ResultType().Kind
	fn := cp.compileExpr(u.X)
	rk := u.ResultType().Kind
	switch u.Op {
	case clc.UnaryPlus:
		return fn
	case clc.UnaryNeg:
		if xk.IsFloat() {
			return func(e *env) Value {
				e.stats.AluFloat++
				return Value{F: normFloat(rk, -fn(e).F)}
			}
		}
		return func(e *env) Value {
			e.stats.AluInt++
			return Value{I: normInt(rk, -fn(e).I)}
		}
	case clc.UnaryNot:
		truth := cp.compileTruth(u.X)
		return func(e *env) Value {
			e.stats.AluInt++
			if truth(e) {
				return Value{I: 0}
			}
			return Value{I: 1}
		}
	case clc.UnaryBitNot:
		return func(e *env) Value {
			e.stats.AluInt++
			return Value{I: normInt(rk, ^fn(e).I)}
		}
	}
	cp.fail(u.Pos(), "interp: unhandled unary op %v", u.Op)
	return fn
}

func (cp *compiler) compileBinary(b *clc.Binary) evalFn {
	if b.Op.IsLogical() {
		l := cp.compileTruth(b.L)
		r := cp.compileTruth(b.R)
		if b.Op == clc.BinLAnd {
			return func(e *env) Value {
				e.stats.AluInt++
				if l(e) && r(e) {
					return Value{I: 1}
				}
				return Value{I: 0}
			}
		}
		return func(e *env) Value {
			e.stats.AluInt++
			if l(e) || r(e) {
				return Value{I: 1}
			}
			return Value{I: 0}
		}
	}
	lk := b.L.ResultType().Kind
	rk := b.R.ResultType().Kind
	pk := promoteKind(lk, rk)
	l := cp.convert(cp.compileExpr(b.L), lk, pk, b.Pos())
	r := cp.convert(cp.compileExpr(b.R), rk, pk, b.Pos())
	return cp.binOpFn(b.Op, pk, l, r, b.Pos())
}

// promoteKind mirrors the checker's usual arithmetic conversion.
func promoteKind(a, b clc.Kind) clc.Kind {
	if a == clc.KindDouble || b == clc.KindDouble {
		return clc.KindDouble
	}
	if a == clc.KindFloat || b == clc.KindFloat {
		return clc.KindFloat
	}
	if a == clc.KindULong || b == clc.KindULong {
		return clc.KindULong
	}
	if a == clc.KindLong || b == clc.KindLong {
		return clc.KindLong
	}
	if a == clc.KindUInt || b == clc.KindUInt {
		return clc.KindUInt
	}
	return clc.KindInt
}

// binOpFn builds the closure for a binary operator over promoted kind pk.
func (cp *compiler) binOpFn(op clc.BinaryOp, pk clc.Kind, l, r evalFn, pos clc.Pos) evalFn {
	if pk.IsFloat() {
		switch op {
		case clc.BinAdd:
			return func(e *env) Value { e.stats.AluFloat++; return Value{F: normFloat(pk, l(e).F+r(e).F)} }
		case clc.BinSub:
			return func(e *env) Value { e.stats.AluFloat++; return Value{F: normFloat(pk, l(e).F-r(e).F)} }
		case clc.BinMul:
			return func(e *env) Value { e.stats.AluFloat++; return Value{F: normFloat(pk, l(e).F*r(e).F)} }
		case clc.BinDiv:
			return func(e *env) Value { e.stats.AluFloat++; return Value{F: normFloat(pk, l(e).F/r(e).F)} }
		case clc.BinEq:
			return func(e *env) Value { e.stats.AluFloat++; return boolVal(l(e).F == r(e).F) }
		case clc.BinNe:
			return func(e *env) Value { e.stats.AluFloat++; return boolVal(l(e).F != r(e).F) }
		case clc.BinLt:
			return func(e *env) Value { e.stats.AluFloat++; return boolVal(l(e).F < r(e).F) }
		case clc.BinGt:
			return func(e *env) Value { e.stats.AluFloat++; return boolVal(l(e).F > r(e).F) }
		case clc.BinLe:
			return func(e *env) Value { e.stats.AluFloat++; return boolVal(l(e).F <= r(e).F) }
		case clc.BinGe:
			return func(e *env) Value { e.stats.AluFloat++; return boolVal(l(e).F >= r(e).F) }
		}
		cp.fail(pos, "interp: invalid float operator %v", op)
		return l
	}
	unsigned := pk.IsUnsigned()
	shiftMask := int64(31)
	if pk == clc.KindLong || pk == clc.KindULong {
		shiftMask = 63
	}
	switch op {
	case clc.BinAdd:
		return func(e *env) Value { e.stats.AluInt++; return Value{I: normInt(pk, l(e).I+r(e).I)} }
	case clc.BinSub:
		return func(e *env) Value { e.stats.AluInt++; return Value{I: normInt(pk, l(e).I-r(e).I)} }
	case clc.BinMul:
		return func(e *env) Value { e.stats.AluInt++; return Value{I: normInt(pk, l(e).I*r(e).I)} }
	case clc.BinDiv:
		return func(e *env) Value {
			e.stats.AluInt++
			rv := r(e).I
			if rv == 0 {
				rtErr(pos, "integer division by zero")
			}
			if unsigned {
				return Value{I: normInt(pk, int64(uint64(l(e).I)/uint64(rv)))}
			}
			return Value{I: normInt(pk, l(e).I/rv)}
		}
	case clc.BinRem:
		return func(e *env) Value {
			e.stats.AluInt++
			rv := r(e).I
			if rv == 0 {
				rtErr(pos, "integer modulo by zero")
			}
			if unsigned {
				return Value{I: normInt(pk, int64(uint64(l(e).I)%uint64(rv)))}
			}
			return Value{I: normInt(pk, l(e).I%rv)}
		}
	case clc.BinShl:
		return func(e *env) Value {
			e.stats.AluInt++
			return Value{I: normInt(pk, l(e).I<<uint64(r(e).I&shiftMask))}
		}
	case clc.BinShr:
		if unsigned {
			return func(e *env) Value {
				e.stats.AluInt++
				return Value{I: normInt(pk, int64(uint64(l(e).I)>>uint64(r(e).I&shiftMask)))}
			}
		}
		return func(e *env) Value {
			e.stats.AluInt++
			return Value{I: normInt(pk, l(e).I>>uint64(r(e).I&shiftMask))}
		}
	case clc.BinAnd:
		return func(e *env) Value { e.stats.AluInt++; return Value{I: normInt(pk, l(e).I&r(e).I)} }
	case clc.BinOr:
		return func(e *env) Value { e.stats.AluInt++; return Value{I: normInt(pk, l(e).I|r(e).I)} }
	case clc.BinXor:
		return func(e *env) Value { e.stats.AluInt++; return Value{I: normInt(pk, l(e).I^r(e).I)} }
	case clc.BinEq:
		return func(e *env) Value { e.stats.AluInt++; return boolVal(l(e).I == r(e).I) }
	case clc.BinNe:
		return func(e *env) Value { e.stats.AluInt++; return boolVal(l(e).I != r(e).I) }
	case clc.BinLt:
		if unsigned {
			return func(e *env) Value { e.stats.AluInt++; return boolVal(uint64(l(e).I) < uint64(r(e).I)) }
		}
		return func(e *env) Value { e.stats.AluInt++; return boolVal(l(e).I < r(e).I) }
	case clc.BinGt:
		if unsigned {
			return func(e *env) Value { e.stats.AluInt++; return boolVal(uint64(l(e).I) > uint64(r(e).I)) }
		}
		return func(e *env) Value { e.stats.AluInt++; return boolVal(l(e).I > r(e).I) }
	case clc.BinLe:
		if unsigned {
			return func(e *env) Value { e.stats.AluInt++; return boolVal(uint64(l(e).I) <= uint64(r(e).I)) }
		}
		return func(e *env) Value { e.stats.AluInt++; return boolVal(l(e).I <= r(e).I) }
	case clc.BinGe:
		if unsigned {
			return func(e *env) Value { e.stats.AluInt++; return boolVal(uint64(l(e).I) >= uint64(r(e).I)) }
		}
		return func(e *env) Value { e.stats.AluInt++; return boolVal(l(e).I >= r(e).I) }
	}
	cp.fail(pos, "interp: unhandled binary op %v", op)
	return l
}

func boolVal(b bool) Value {
	if b {
		return Value{I: 1}
	}
	return Value{I: 0}
}

// applyBin applies a non-logical binary operator to already-evaluated
// operands of promoted kind pk. It is used where operands must be computed
// out of line (compound assignments through memory), so no state can be
// shared between invocations.
func applyBin(op clc.BinaryOp, pk clc.Kind, pos clc.Pos, e *env, a, b Value) Value {
	if pk.IsFloat() {
		e.stats.AluFloat++
		switch op {
		case clc.BinAdd:
			return Value{F: normFloat(pk, a.F+b.F)}
		case clc.BinSub:
			return Value{F: normFloat(pk, a.F-b.F)}
		case clc.BinMul:
			return Value{F: normFloat(pk, a.F*b.F)}
		case clc.BinDiv:
			return Value{F: normFloat(pk, a.F/b.F)}
		case clc.BinEq:
			return boolVal(a.F == b.F)
		case clc.BinNe:
			return boolVal(a.F != b.F)
		case clc.BinLt:
			return boolVal(a.F < b.F)
		case clc.BinGt:
			return boolVal(a.F > b.F)
		case clc.BinLe:
			return boolVal(a.F <= b.F)
		case clc.BinGe:
			return boolVal(a.F >= b.F)
		}
		rtErr(pos, "invalid float operator %v", op)
	}
	e.stats.AluInt++
	unsigned := pk.IsUnsigned()
	shiftMask := int64(31)
	if pk == clc.KindLong || pk == clc.KindULong {
		shiftMask = 63
	}
	switch op {
	case clc.BinAdd:
		return Value{I: normInt(pk, a.I+b.I)}
	case clc.BinSub:
		return Value{I: normInt(pk, a.I-b.I)}
	case clc.BinMul:
		return Value{I: normInt(pk, a.I*b.I)}
	case clc.BinDiv:
		if b.I == 0 {
			rtErr(pos, "integer division by zero")
		}
		if unsigned {
			return Value{I: normInt(pk, int64(uint64(a.I)/uint64(b.I)))}
		}
		return Value{I: normInt(pk, a.I/b.I)}
	case clc.BinRem:
		if b.I == 0 {
			rtErr(pos, "integer modulo by zero")
		}
		if unsigned {
			return Value{I: normInt(pk, int64(uint64(a.I)%uint64(b.I)))}
		}
		return Value{I: normInt(pk, a.I%b.I)}
	case clc.BinShl:
		return Value{I: normInt(pk, a.I<<uint64(b.I&shiftMask))}
	case clc.BinShr:
		if unsigned {
			return Value{I: normInt(pk, int64(uint64(a.I)>>uint64(b.I&shiftMask)))}
		}
		return Value{I: normInt(pk, a.I>>uint64(b.I&shiftMask))}
	case clc.BinAnd:
		return Value{I: normInt(pk, a.I&b.I)}
	case clc.BinOr:
		return Value{I: normInt(pk, a.I|b.I)}
	case clc.BinXor:
		return Value{I: normInt(pk, a.I^b.I)}
	case clc.BinEq:
		return boolVal(a.I == b.I)
	case clc.BinNe:
		return boolVal(a.I != b.I)
	case clc.BinLt:
		if unsigned {
			return boolVal(uint64(a.I) < uint64(b.I))
		}
		return boolVal(a.I < b.I)
	case clc.BinGt:
		if unsigned {
			return boolVal(uint64(a.I) > uint64(b.I))
		}
		return boolVal(a.I > b.I)
	case clc.BinLe:
		if unsigned {
			return boolVal(uint64(a.I) <= uint64(b.I))
		}
		return boolVal(a.I <= b.I)
	case clc.BinGe:
		if unsigned {
			return boolVal(uint64(a.I) >= uint64(b.I))
		}
		return boolVal(a.I >= b.I)
	}
	rtErr(pos, "invalid integer operator %v", op)
	return Value{}
}

// ---------------------------------------------------------------------------
// Memory access

// memRef describes the compiled addressing of an Index expression.
type memRef struct {
	idxFn    evalFn
	kind     clc.Kind // element kind
	site     int
	pos      clc.Pos
	argIndex int // parameter slot for global/constant buffers; -1 otherwise
	localIdx int // for __local arrays; -1 otherwise
	privIdx  int // for private arrays; -1 otherwise
}

func (cp *compiler) compileMemRef(ix *clc.Index) memRef {
	ref := memRef{
		idxFn:    cp.compileExpr(ix.Idx),
		site:     ix.Site,
		pos:      ix.Pos(),
		argIndex: -1,
		localIdx: -1,
		privIdx:  -1,
	}
	if ix.Idx.ResultType().Kind.IsFloat() {
		cp.fail(ix.Idx.Pos(), "interp: non-integer index")
	}
	base, ok := ix.Base.(*clc.Ident)
	if !ok || base.Sym == nil {
		cp.fail(ix.Pos(), "interp: unsupported subscript base")
		return ref
	}
	sym := base.Sym
	switch {
	case sym.Class == clc.SymParam && sym.Type.Ptr:
		ref.kind = sym.Type.Kind
		ref.argIndex = sym.Slot
	case sym.ArrayLen > 0 && sym.IsLocal:
		ref.kind = sym.Type.Kind
		ref.localIdx = cp.lay.localIdx[sym]
	case sym.ArrayLen > 0:
		ref.kind = sym.Type.Kind
		ref.privIdx = cp.lay.privIdx[sym]
	default:
		cp.fail(ix.Pos(), "interp: subscript of non-array %q", sym.Name)
	}
	return ref
}

// record updates the statistics for a global-memory access.
func record(e *env, b *Buffer, st *siteState, idx int64, write bool) {
	es := b.ElemSize()
	stats := e.stats
	if write {
		stats.Stores++
		stats.StoreBytes += es
	} else {
		stats.Loads++
		stats.LoadBytes += es
	}
	if e.classify {
		st.recordAccess(b.Base+idx*es, es, e.wi)
	}
}

func (cp *compiler) compileLoad(ix *clc.Index) evalFn {
	ref := cp.compileMemRef(ix)
	idxFn := ref.idxFn
	switch {
	case ref.argIndex >= 0:
		slot := ref.argIndex
		site := ref.site
		pos := ref.pos
		switch ref.kind {
		case clc.KindFloat:
			return func(e *env) Value {
				b := e.bufs[slot]
				i := idxFn(e).I
				if i < 0 || i >= int64(len(b.F32)) {
					rtErr(pos, "index %d out of range [0,%d)", i, len(b.F32))
				}
				record(e, b, &e.stats.sites[site], i, false)
				return Value{F: float64(b.F32[i])}
			}
		case clc.KindDouble:
			return func(e *env) Value {
				b := e.bufs[slot]
				i := idxFn(e).I
				if i < 0 || i >= int64(len(b.F64)) {
					rtErr(pos, "index %d out of range [0,%d)", i, len(b.F64))
				}
				record(e, b, &e.stats.sites[site], i, false)
				return Value{F: b.F64[i]}
			}
		case clc.KindLong, clc.KindULong:
			return func(e *env) Value {
				b := e.bufs[slot]
				i := idxFn(e).I
				if i < 0 || i >= int64(len(b.I64)) {
					rtErr(pos, "index %d out of range [0,%d)", i, len(b.I64))
				}
				record(e, b, &e.stats.sites[site], i, false)
				return Value{I: b.I64[i]}
			}
		default: // int, uint
			k := ref.kind
			return func(e *env) Value {
				b := e.bufs[slot]
				i := idxFn(e).I
				if i < 0 || i >= int64(len(b.I32)) {
					rtErr(pos, "index %d out of range [0,%d)", i, len(b.I32))
				}
				record(e, b, &e.stats.sites[site], i, false)
				return Value{I: normInt(k, int64(b.I32[i]))}
			}
		}
	case ref.localIdx >= 0:
		li := ref.localIdx
		pos := ref.pos
		return func(e *env) Value {
			arr := e.wg.locals[li]
			i := idxFn(e).I
			if i < 0 || i >= int64(len(arr)) {
				rtErr(pos, "local index %d out of range [0,%d)", i, len(arr))
			}
			return arr[i]
		}
	default:
		pi := ref.privIdx
		pos := ref.pos
		return func(e *env) Value {
			arr := e.priv[pi]
			i := idxFn(e).I
			if i < 0 || i >= int64(len(arr)) {
				rtErr(pos, "private index %d out of range [0,%d)", i, len(arr))
			}
			return arr[i]
		}
	}
}

// storeFn writes a value through a memRef given a precomputed index.
type storeFn func(e *env, i int64, v Value)

// loadAtFn reads through a memRef at a precomputed index.
type loadAtFn func(e *env, i int64) Value

func (cp *compiler) makeStore(ref memRef) storeFn {
	switch {
	case ref.argIndex >= 0:
		slot := ref.argIndex
		site := ref.site
		pos := ref.pos
		switch ref.kind {
		case clc.KindFloat:
			return func(e *env, i int64, v Value) {
				b := e.bufs[slot]
				if i < 0 || i >= int64(len(b.F32)) {
					rtErr(pos, "index %d out of range [0,%d)", i, len(b.F32))
				}
				record(e, b, &e.stats.sites[site], i, true)
				b.F32[i] = float32(v.F)
			}
		case clc.KindDouble:
			return func(e *env, i int64, v Value) {
				b := e.bufs[slot]
				if i < 0 || i >= int64(len(b.F64)) {
					rtErr(pos, "index %d out of range [0,%d)", i, len(b.F64))
				}
				record(e, b, &e.stats.sites[site], i, true)
				b.F64[i] = v.F
			}
		case clc.KindLong, clc.KindULong:
			return func(e *env, i int64, v Value) {
				b := e.bufs[slot]
				if i < 0 || i >= int64(len(b.I64)) {
					rtErr(pos, "index %d out of range [0,%d)", i, len(b.I64))
				}
				record(e, b, &e.stats.sites[site], i, true)
				b.I64[i] = v.I
			}
		default:
			return func(e *env, i int64, v Value) {
				b := e.bufs[slot]
				if i < 0 || i >= int64(len(b.I32)) {
					rtErr(pos, "index %d out of range [0,%d)", i, len(b.I32))
				}
				record(e, b, &e.stats.sites[site], i, true)
				b.I32[i] = int32(v.I)
			}
		}
	case ref.localIdx >= 0:
		li := ref.localIdx
		pos := ref.pos
		return func(e *env, i int64, v Value) {
			arr := e.wg.locals[li]
			if i < 0 || i >= int64(len(arr)) {
				rtErr(pos, "local index %d out of range [0,%d)", i, len(arr))
			}
			arr[i] = v
		}
	default:
		pi := ref.privIdx
		pos := ref.pos
		return func(e *env, i int64, v Value) {
			arr := e.priv[pi]
			if i < 0 || i >= int64(len(arr)) {
				rtErr(pos, "private index %d out of range [0,%d)", i, len(arr))
			}
			arr[i] = v
		}
	}
}

func (cp *compiler) makeLoadAt(ref memRef) loadAtFn {
	switch {
	case ref.argIndex >= 0:
		slot := ref.argIndex
		site := ref.site
		pos := ref.pos
		kind := ref.kind
		return func(e *env, i int64) Value {
			b := e.bufs[slot]
			if i < 0 || i >= int64(b.Len()) {
				rtErr(pos, "index %d out of range [0,%d)", i, b.Len())
			}
			record(e, b, &e.stats.sites[site], i, false)
			switch kind {
			case clc.KindFloat:
				return Value{F: float64(b.F32[i])}
			case clc.KindDouble:
				return Value{F: b.F64[i]}
			case clc.KindLong, clc.KindULong:
				return Value{I: b.I64[i]}
			default:
				return Value{I: normInt(kind, int64(b.I32[i]))}
			}
		}
	case ref.localIdx >= 0:
		li := ref.localIdx
		pos := ref.pos
		return func(e *env, i int64) Value {
			arr := e.wg.locals[li]
			if i < 0 || i >= int64(len(arr)) {
				rtErr(pos, "local index %d out of range [0,%d)", i, len(arr))
			}
			return arr[i]
		}
	default:
		pi := ref.privIdx
		pos := ref.pos
		return func(e *env, i int64) Value {
			arr := e.priv[pi]
			if i < 0 || i >= int64(len(arr)) {
				rtErr(pos, "private index %d out of range [0,%d)", i, len(arr))
			}
			return arr[i]
		}
	}
}

// ---------------------------------------------------------------------------
// Assignment and increment

func (cp *compiler) compileAssign(as *clc.Assign) evalFn {
	rk := as.LHS.ResultType().Kind
	rhs := cp.convert(cp.compileExpr(as.RHS), as.RHS.ResultType().Kind, rk, as.Pos())

	switch lhs := as.LHS.(type) {
	case *clc.Ident:
		sym := lhs.Sym
		if sym == nil {
			cp.fail(lhs.Pos(), "interp: unresolved assignment target")
			return rhs
		}
		var load evalFn
		var store func(e *env, v Value)
		if sym.IsLocal {
			li := cp.lay.localIdx[sym]
			load = func(e *env) Value { return e.wg.locals[li][0] }
			store = func(e *env, v Value) { e.wg.locals[li][0] = v }
		} else {
			slot := sym.Slot
			load = func(e *env) Value { return e.slots[slot] }
			store = func(e *env, v Value) { e.slots[slot] = v }
		}
		if as.Op == clc.AssignPlain {
			return func(e *env) Value {
				v := rhs(e)
				store(e, v)
				return v
			}
		}
		binOp, _ := as.Op.BinOp()
		op := cp.binOpFn(binOp, rk, load, rhs, as.Pos())
		return func(e *env) Value {
			v := op(e)
			store(e, v)
			return v
		}
	case *clc.Index:
		ref := cp.compileMemRef(lhs)
		idxFn := ref.idxFn
		store := cp.makeStore(ref)
		if as.Op == clc.AssignPlain {
			return func(e *env) Value {
				i := idxFn(e).I
				v := rhs(e)
				store(e, i, v)
				return v
			}
		}
		loadAt := cp.makeLoadAt(ref)
		binOp, _ := as.Op.BinOp()
		pos := as.Pos()
		// Compound op over the loaded value and the RHS; the index is
		// evaluated once, matching C semantics.
		return func(e *env) Value {
			i := idxFn(e).I
			old := loadAt(e, i)
			v := applyBin(binOp, rk, pos, e, old, rhs(e))
			store(e, i, v)
			return v
		}
	}
	cp.fail(as.Pos(), "interp: invalid assignment target %T", as.LHS)
	return rhs
}

func (cp *compiler) compileIncDec(id *clc.IncDec) evalFn {
	rk := id.X.ResultType().Kind
	one := Value{I: 1}
	if rk.IsFloat() {
		one = Value{F: 1}
	}
	step := func(v Value) Value {
		if rk.IsFloat() {
			if id.Decr {
				return Value{F: normFloat(rk, v.F-one.F)}
			}
			return Value{F: normFloat(rk, v.F+one.F)}
		}
		if id.Decr {
			return Value{I: normInt(rk, v.I-1)}
		}
		return Value{I: normInt(rk, v.I+1)}
	}
	switch x := id.X.(type) {
	case *clc.Ident:
		sym := x.Sym
		if sym == nil {
			cp.fail(x.Pos(), "interp: unresolved inc/dec target")
			return func(e *env) Value { return Value{} }
		}
		if sym.IsLocal {
			li := cp.lay.localIdx[sym]
			post := id.Post
			return func(e *env) Value {
				e.stats.AluInt++
				old := e.wg.locals[li][0]
				nv := step(old)
				e.wg.locals[li][0] = nv
				if post {
					return old
				}
				return nv
			}
		}
		slot := sym.Slot
		post := id.Post
		isFloat := rk.IsFloat()
		return func(e *env) Value {
			if isFloat {
				e.stats.AluFloat++
			} else {
				e.stats.AluInt++
			}
			old := e.slots[slot]
			nv := step(old)
			e.slots[slot] = nv
			if post {
				return old
			}
			return nv
		}
	case *clc.Index:
		ref := cp.compileMemRef(x)
		idxFn := ref.idxFn
		loadAt := cp.makeLoadAt(ref)
		store := cp.makeStore(ref)
		post := id.Post
		return func(e *env) Value {
			e.stats.AluInt++
			i := idxFn(e).I
			old := loadAt(e, i)
			nv := step(old)
			store(e, i, nv)
			if post {
				return old
			}
			return nv
		}
	}
	cp.fail(id.Pos(), "interp: invalid inc/dec target %T", id.X)
	return func(e *env) Value { return Value{} }
}

// ---------------------------------------------------------------------------
// Calls

func (cp *compiler) compileCall(call *clc.Call) evalFn {
	b := call.Builtin
	if b == nil {
		cp.fail(call.Pos(), "interp: unresolved call %q", call.Name)
		return func(e *env) Value { return Value{} }
	}
	switch b.Kind {
	case clc.BuiltinWorkItem:
		return cp.compileWorkItemFn(call)
	case clc.BuiltinMath:
		arg := cp.toFloat(call.Args[0])
		f := mathFn1(b.Name)
		return func(e *env) Value {
			e.stats.AluFloat++
			return Value{F: normFloat(clc.KindFloat, f(arg(e).F))}
		}
	case clc.BuiltinMath2:
		a0 := cp.toFloat(call.Args[0])
		a1 := cp.toFloat(call.Args[1])
		f := mathFn2(b.Name)
		return func(e *env) Value {
			e.stats.AluFloat++
			return Value{F: normFloat(clc.KindFloat, f(a0(e).F, a1(e).F))}
		}
	case clc.BuiltinIntMinMax:
		rk := call.ResultType().Kind
		a0 := cp.convert(cp.compileExpr(call.Args[0]), call.Args[0].ResultType().Kind, rk, call.Pos())
		a1 := cp.convert(cp.compileExpr(call.Args[1]), call.Args[1].ResultType().Kind, rk, call.Pos())
		isMin := b.Name == "min"
		if rk.IsFloat() {
			return func(e *env) Value {
				e.stats.AluFloat++
				x, y := a0(e).F, a1(e).F
				if (x < y) == isMin {
					return Value{F: x}
				}
				return Value{F: y}
			}
		}
		return func(e *env) Value {
			e.stats.AluInt++
			x, y := a0(e).I, a1(e).I
			if (x < y) == isMin {
				return Value{I: x}
			}
			return Value{I: y}
		}
	case clc.BuiltinAbs:
		a0 := cp.compileExpr(call.Args[0])
		return func(e *env) Value {
			e.stats.AluInt++
			v := a0(e).I
			if v < 0 {
				v = -v
			}
			return Value{I: v}
		}
	case clc.BuiltinAtomic, clc.BuiltinAtomic2:
		return cp.compileAtomic(call)
	}
	cp.fail(call.Pos(), "interp: unhandled builtin %q", b.Name)
	return func(e *env) Value { return Value{} }
}

func (cp *compiler) toFloat(x clc.Expr) evalFn {
	return cp.convert(cp.compileExpr(x), x.ResultType().Kind, clc.KindFloat, x.Pos())
}

func mathFn1(name string) func(float64) float64 {
	switch name {
	case "sqrt":
		return math.Sqrt
	case "rsqrt":
		return func(x float64) float64 { return 1 / math.Sqrt(x) }
	case "exp":
		return math.Exp
	case "log":
		return math.Log
	case "sin":
		return math.Sin
	case "cos":
		return math.Cos
	case "tan":
		return math.Tan
	case "fabs":
		return math.Abs
	case "floor":
		return math.Floor
	case "ceil":
		return math.Ceil
	}
	return func(x float64) float64 { return x }
}

func mathFn2(name string) func(a, b float64) float64 {
	switch name {
	case "pow":
		return math.Pow
	case "fmin":
		return math.Min
	case "fmax":
		return math.Max
	case "hypot":
		return math.Hypot
	case "fmod":
		return math.Mod
	}
	return func(a, b float64) float64 { return a }
}

func (cp *compiler) compileWorkItemFn(call *clc.Call) evalFn {
	name := call.Name
	code, ok := wiCodes[name]
	if !ok {
		cp.fail(call.Pos(), "interp: unhandled work-item fn %q", name)
		return func(e *env) Value { return Value{} }
	}
	if name == "get_work_dim" {
		return func(e *env) Value { return Value{I: int64(e.nd.Dims)} }
	}
	// Constant dimension (the overwhelmingly common case): resolve the
	// index at compile time so the hot path is a single array load.
	if lit, ok := call.Args[0].(*clc.IntLit); ok {
		if uint64(lit.Value) >= 3 {
			v := Value{I: wiOutOfRange(code)}
			return func(e *env) Value { return v }
		}
		d := int(lit.Value)
		switch name {
		case "get_global_id":
			return func(e *env) Value { return Value{I: e.gid[d]} }
		case "get_local_id":
			return func(e *env) Value { return Value{I: e.lid[d]} }
		case "get_group_id":
			return func(e *env) Value { return Value{I: e.grp[d]} }
		case "get_global_size":
			return func(e *env) Value { return Value{I: int64(e.nd.Global[d])} }
		case "get_local_size":
			return func(e *env) Value { return Value{I: int64(e.nd.Local[d])} }
		case "get_num_groups":
			return func(e *env) Value { return Value{I: int64(e.nd.NumGroups()[d])} }
		case "get_global_offset":
			return func(e *env) Value { return Value{I: int64(e.nd.Offset[d])} }
		}
	}
	dimFn := cp.compileExpr(call.Args[0])
	return func(e *env) Value { return Value{I: wiQuery(e, code, dimFn(e).I)} }
}

// compileAtomic lowers atomic builtins. The interpreter executes
// work-items sequentially, so atomics reduce to plain read-modify-write;
// their synchronizing role is preserved because there is no concurrent
// interleaving to order.
func (cp *compiler) compileAtomic(call *clc.Call) evalFn {
	target, ok := call.Args[0].(*clc.Ident)
	if !ok || target.Sym == nil {
		cp.fail(call.Args[0].Pos(), "interp: unsupported atomic target")
		return func(e *env) Value { return Value{} }
	}
	sym := target.Sym
	var load func(e *env) int64
	var store func(e *env, v int64)
	switch {
	case sym.IsLocal && sym.ArrayLen > 0:
		li := cp.lay.localIdx[sym]
		load = func(e *env) int64 { return e.wg.locals[li][0].I }
		store = func(e *env, v int64) { e.wg.locals[li][0] = Value{I: v} }
	case sym.Class == clc.SymParam && sym.Type.Ptr:
		slot := sym.Slot
		pos := call.Pos()
		load = func(e *env) int64 { return atomicLoad(e.bufs[slot], pos) }
		store = func(e *env, v int64) { atomicStore(e.bufs[slot], v) }
	default:
		cp.fail(call.Args[0].Pos(), "interp: atomic target must be a __local array or global int pointer")
		return func(e *env) Value { return Value{} }
	}
	// Pre-resolve the operation at compile time instead of switching on
	// the builtin name for every executed atomic.
	op, ok := atomicOps[call.Name]
	if !ok {
		cp.fail(call.Pos(), "interp: unhandled atomic %q", call.Name)
		return func(e *env) Value { return Value{} }
	}
	var operand evalFn
	if len(call.Args) > 1 {
		operand = cp.compileExpr(call.Args[1])
	}
	return func(e *env) Value {
		e.stats.AluInt++
		old := load(e)
		var nv int64
		switch op {
		case atomInc:
			nv = old + 1
		case atomDec:
			nv = old - 1
		case atomAdd:
			nv = old + operand(e).I
		case atomSub:
			nv = old - operand(e).I
		case atomMin:
			nv = old
			if v := operand(e).I; v < nv {
				nv = v
			}
		case atomMax:
			nv = old
			if v := operand(e).I; v > nv {
				nv = v
			}
		case atomXchg:
			nv = operand(e).I
		}
		store(e, nv)
		return Value{I: old}
	}
}

// atomicOp is a pre-resolved atomic builtin operation.
type atomicOp int8

const (
	atomInc atomicOp = iota
	atomDec
	atomAdd
	atomSub
	atomMin
	atomMax
	atomXchg
)

var atomicOps = map[string]atomicOp{
	"atomic_inc":  atomInc,
	"atomic_dec":  atomDec,
	"atomic_add":  atomAdd,
	"atomic_sub":  atomSub,
	"atomic_min":  atomMin,
	"atomic_max":  atomMax,
	"atomic_xchg": atomXchg,
}
