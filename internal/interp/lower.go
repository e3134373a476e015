package interp

// This file implements the lowering pass from the typed clc AST to the
// register-based bytecode of bytecode.go. Lowering preserves the closure
// engine's observable behaviour exactly:
//
//   - Arithmetic follows normInt/normFloat (OpenCL 32-bit wrap-around,
//     float32 rounding), encoded in each instruction's norm field.
//   - Statistics counters are incremented with the closure engine's
//     ordering. Closures count an operation before evaluating its
//     operands; fused counting at instruction execution is used only when
//     no operand can trap (then the reordering is unobservable), otherwise
//     the count is pre-paid with opStat and the instruction's count
//     field is zero.
//   - Trap order matches: integer division evaluates the divisor before
//     the dividend with the zero check in between (opChkDiv0) whenever
//     the surrounding operands have observable effects, and an atomic
//     whose operand has any loads its old value (opAtomicLd, which checks
//     a global target for an empty buffer) before the operand's code
//     runs, then applies and stores after it (opAtomicSt).
//   - Memory accesses (bounds checks, site recording) are emitted in the
//     exact closure order.
//
// Variables live in dedicated registers. Because operands of the closure
// engine are evaluated lazily at combination time, an operand lowered to a
// bare variable register must be snapshotted into a temporary when code
// emitted between its lowering point and its consumption may write
// variables (see writesVars).
//
// Anything the lowerer cannot handle fails the whole kernel, and with it
// every launch of the kernel on this engine.

import (
	"fmt"

	"dopia/internal/clc"
	"dopia/internal/faults"
)

// breg is a bytecode register reference produced by lowering an
// expression: an index into the int or float register file, plus whether
// the register is a variable's home (lazily read, so subject to the
// snapshot rule) rather than a temporary.
type breg struct {
	idx    int32
	f      bool
	varRef bool
}

// loopCtx collects the break/continue jump instructions of one loop for
// backpatching.
type loopCtx struct {
	breaks    []int
	continues []int
}

// lowerer holds state while lowering one kernel to bytecode.
type lowerer struct {
	k   *clc.Kernel
	lay *layout

	code []instr

	slotReg []int32 // kernel slot -> variable register (-1 = none)
	slotIsF []bool

	baseI, baseF int32 // first temporary register (after variables)
	tmpI, tmpF   int32 // per-statement temporary watermark
	maxI, maxF   int32

	loops []loopCtx

	math1Idx map[string]int
	math2Idx map[string]int
	math1    []func(float64) float64
	math2    []func(a, b float64) float64

	// Straight-line state (straight.go): which slots are declaration-only
	// and which of those are constants, the preloaded constant registers,
	// the subscript bases computed since the last jump target (label), and
	// the temporaries those bases hold.
	declOnly []bool
	folded   map[*clc.Symbol]bool
	lits     []clc.Expr
	constI   map[int64]int32
	constF   map[uint64]int32
	initI    []int64
	initF    []float64
	bases    []subBase
	keepI    int32
	label    int

	err error
}

func (lw *lowerer) fail(pos clc.Pos, format string, args ...any) {
	if lw.err == nil {
		lw.err = fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))
	}
}

func (lw *lowerer) emit(in instr) int {
	lw.code = append(lw.code, in)
	return len(lw.code) - 1
}

func (lw *lowerer) tempI() breg {
	r := lw.tmpI
	lw.tmpI++
	if lw.tmpI > lw.maxI {
		lw.maxI = lw.tmpI
	}
	return breg{idx: r}
}

func (lw *lowerer) tempF() breg {
	r := lw.tmpF
	lw.tmpF++
	if lw.tmpF > lw.maxF {
		lw.maxF = lw.tmpF
	}
	return breg{idx: r, f: true}
}

func (lw *lowerer) temp(f bool) breg {
	if f {
		return lw.tempF()
	}
	return lw.tempI()
}

// resetTmp releases all temporaries. Called at statement boundaries,
// where no expression value is live.
func (lw *lowerer) resetTmp() {
	lw.tmpI, lw.tmpF = max(lw.baseI, lw.keepI), lw.baseF
}

// snapshot copies a lazily-read variable register into a temporary, for
// operands whose closure-engine read happens before code that may write
// variables.
func (lw *lowerer) snapshot(r breg) breg {
	if !r.varRef {
		return r
	}
	t := lw.temp(r.f)
	lw.move(t, r)
	return t
}

// move emits dst = src, both of dst's file, without normalization.
func (lw *lowerer) move(dst, src breg) {
	op := opMovI
	if dst.f {
		op = opMovF
	}
	lw.emit(instr{op: op, norm: normNone, dst: dst.idx, a: src.idx})
}

func (lw *lowerer) patch(pcs []int, target int) {
	for _, pc := range pcs {
		lw.code[pc].imm = int64(target)
	}
}

func (lw *lowerer) patchHere(pcs []int) { lw.patch(pcs, lw.here()) }

// ---------------------------------------------------------------------------
// Static predicates

// canTrap reports whether evaluating x can raise a runtime error (bounds
// check, integer division by zero, atomic on an empty buffer).
// Conservative true is always safe: it only forces statistics pre-payment,
// which matches the closure engine's count-before-operands order exactly.
func canTrap(x clc.Expr) bool {
	switch x.(type) {
	case *clc.Ident, *clc.IntLit, *clc.FloatLit:
		return false // the common operand, without a walk
	}
	// The visitor only ever sets trap: a later sibling must not clear it.
	trap := false
	clc.Inspect(x, func(n clc.Node) bool {
		switch e := n.(type) {
		case *clc.Index:
			trap = true
		case *clc.Assign:
			trap = true // conservative: Index targets and compound div trap
		case *clc.Binary:
			if (e.Op == clc.BinDiv || e.Op == clc.BinRem) &&
				!promoteKind(e.L.ResultType().Kind, e.R.ResultType().Kind).IsFloat() {
				trap = true
			}
		case *clc.Call:
			if e.Builtin != nil &&
				(e.Builtin.Kind == clc.BuiltinAtomic || e.Builtin.Kind == clc.BuiltinAtomic2) {
				trap = true
			}
		}
		return !trap
	})
	return trap
}

// writesVars reports whether evaluating x may modify a variable register
// (any assignment or inc/dec, conservatively). Used for the operand
// snapshot rule.
func writesVars(x clc.Expr) bool {
	switch x.(type) {
	case *clc.Ident, *clc.IntLit, *clc.FloatLit:
		return false // the common operand, without a walk
	}
	writes := false
	clc.Inspect(x, func(n clc.Node) bool {
		switch n.(type) {
		case *clc.Assign, *clc.IncDec:
			writes = true
		}
		return !writes
	})
	return writes
}

// pureNoEffects reports whether evaluating x emits no statistics, no
// memory-site records, and cannot trap: literals, variable and __local
// scalar reads, work-item queries, and casts/unary-plus of such.
func pureNoEffects(x clc.Expr) bool {
	switch e := x.(type) {
	case *clc.IntLit, *clc.FloatLit:
		return true
	case *clc.Ident:
		return e.Sym != nil && !e.Sym.Type.Ptr && e.Sym.ArrayLen == 0
	case *clc.Cast:
		return pureNoEffects(e.X)
	case *clc.Unary:
		return e.Op == clc.UnaryPlus && pureNoEffects(e.X)
	case *clc.Call:
		if e.Builtin == nil || e.Builtin.Kind != clc.BuiltinWorkItem {
			return false
		}
		for _, a := range e.Args {
			if !pureNoEffects(a) {
				return false
			}
		}
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Scalar helpers

// normCodeInt maps a result kind to the integer norm code (normInt).
func normCodeInt(k clc.Kind) uint8 {
	switch k {
	case clc.KindInt:
		return normI32
	case clc.KindUInt:
		return normU32
	case clc.KindBool:
		return normBool
	}
	return normNone
}

// normCodeFloat maps a result kind to the float norm code (normFloat).
func normCodeFloat(k clc.Kind) uint8 {
	if k == clc.KindFloat {
		return normF32
	}
	return normNone
}

// binOpcode maps an arithmetic or bitwise operator over the promoted
// kind pk to its opcode, and the shift mask that a shift carries in imm.
// It is the lowerer's one operator table: an expression, a compound
// assignment to any target and an integer division all emit through it.
func binOpcode(op clc.BinaryOp, pk clc.Kind) (code opcode, mask int64, ok bool) {
	if pk.IsFloat() {
		switch op {
		case clc.BinAdd:
			return opAddF, 0, true
		case clc.BinSub:
			return opSubF, 0, true
		case clc.BinMul:
			return opMulF, 0, true
		case clc.BinDiv:
			return opDivF, 0, true
		}
		return 0, 0, false
	}
	mask = 31
	if pk == clc.KindLong || pk == clc.KindULong {
		mask = 63
	}
	u := pk.IsUnsigned()
	switch op {
	case clc.BinAdd:
		return opAddI, 0, true
	case clc.BinSub:
		return opSubI, 0, true
	case clc.BinMul:
		return opMulI, 0, true
	case clc.BinDiv:
		if u {
			return opDivU, 0, true
		}
		return opDivI, 0, true
	case clc.BinRem:
		if u {
			return opRemU, 0, true
		}
		return opRemI, 0, true
	case clc.BinAnd:
		return opAndI, 0, true
	case clc.BinOr:
		return opOrI, 0, true
	case clc.BinXor:
		return opXorI, 0, true
	case clc.BinShl:
		return opShlI, mask, true
	case clc.BinShr:
		if u {
			return opShrU, mask, true
		}
		return opShrI, mask, true
	}
	return 0, 0, false
}

// cmpCode maps a comparison operator to a cmp code; unsigned applies to
// integer operands only.
func cmpCode(op clc.BinaryOp, unsigned bool) uint8 {
	var c uint8
	switch op {
	case clc.BinEq:
		return cmpEq
	case clc.BinNe:
		return cmpNe
	case clc.BinLt:
		c = cmpLt
	case clc.BinGt:
		c = cmpGt
	case clc.BinLe:
		c = cmpLe
	default: // BinGe
		c = cmpGe
	}
	if unsigned {
		c |= cmpU
	}
	return c
}

// invertICmp negates an integer cmp code (safe for integers only; float
// comparison inversion is NaN-incorrect and never used).
func invertICmp(c uint8) uint8 {
	u := c & cmpU
	switch c &^ cmpU {
	case cmpEq:
		return cmpNe
	case cmpNe:
		return cmpEq
	case cmpLt:
		return cmpGe | u
	case cmpGt:
		return cmpLe | u
	case cmpLe:
		return cmpGt | u
	}
	return cmpLt | u // cmpGe
}

var wiCodes = map[string]uint8{
	"get_global_id":     wiGlobalID,
	"get_local_id":      wiLocalID,
	"get_group_id":      wiGroupID,
	"get_global_size":   wiGlobalSize,
	"get_local_size":    wiLocalSize,
	"get_num_groups":    wiNumGroups,
	"get_global_offset": wiGlobalOffset,
	"get_work_dim":      wiWorkDim,
}

// ---------------------------------------------------------------------------
// Entry point

// lowerKernel lowers a checked kernel with layout lay to bytecode. It
// returns an error (and a nil program) for any construct it does not
// support, which fails the launch (Exec.Launch).
func lowerKernel(k *clc.Kernel, lay *layout) (prog *bcProgram, err error) {
	defer func() {
		if r := recover(); r != nil {
			prog, err = nil, fmt.Errorf("interp: lowering panic: %v", r)
		}
	}()
	if ferr := faults.Hit("interp.lower"); ferr != nil {
		return nil, ferr
	}
	lw := &lowerer{
		k: k, lay: lay,
		math1Idx: map[string]int{},
		math2Idx: map[string]int{},
	}
	lw.allocVars()

	var segments [][]instr
	var seg []clc.Stmt
	flush := func() {
		lw.code = nil
		lw.here()
		for _, s := range seg {
			lw.lowerStmt(s)
		}
		seg = nil
		segments = append(segments, mergeStats(lw.code))
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
	if lw.err != nil {
		return nil, lw.err
	}

	p := &bcProgram{
		segments: segments,
		numI:     int(lw.maxI),
		numF:     int(lw.maxF),
		initI:    append(lw.initI, make([]int64, int(lw.maxI)-len(lw.initI))...),
		initF:    append(lw.initF, make([]float64, int(lw.maxF)-len(lw.initF))...),
		math1:    lw.math1,
		math2:    lw.math2,
	}
	for _, prm := range k.Params {
		if prm.Type.Ptr || prm.Sym == nil {
			continue
		}
		reg := lw.slotReg[prm.Sym.Slot]
		if reg < 0 {
			continue // parameter never referenced
		}
		pc := paramCopy{slot: int32(prm.Sym.Slot), reg: reg}
		ints, floats := &p.paramI, &p.paramF
		if lw.declOnly[prm.Sym.Slot] {
			ints, floats = &p.fixedI, &p.fixedF
		}
		if lw.slotIsF[prm.Sym.Slot] {
			*floats = append(*floats, pc)
		} else {
			*ints = append(*ints, pc)
		}
	}
	fuseFMALoops(p, lw.baseI, lw.baseF)
	p.parkable = parkable(p)
	return p, nil
}

// allocVars assigns a dedicated register to every scalar variable slot
// (parameters and locals; __local scalars and arrays live elsewhere).
func (lw *lowerer) allocVars() {
	lw.slotReg = make([]int32, lw.k.NumSlots)
	for i := range lw.slotReg {
		lw.slotReg[i] = -1
	}
	lw.slotIsF = make([]bool, lw.k.NumSlots)
	folded := lw.scanKernel()
	assign := func(sym *clc.Symbol) {
		if sym == nil || sym.Slot < 0 || sym.Slot >= len(lw.slotReg) {
			return
		}
		if sym.Type.Ptr || sym.IsLocal || sym.ArrayLen > 0 {
			return
		}
		if lw.slotReg[sym.Slot] >= 0 || lw.folded[sym] {
			return
		}
		if sym.Type.Kind.IsFloat() {
			lw.slotReg[sym.Slot] = lw.baseF
			lw.slotIsF[sym.Slot] = true
			lw.baseF++
		} else {
			lw.slotReg[sym.Slot] = lw.baseI
			lw.baseI++
		}
	}
	for _, prm := range lw.k.Params {
		assign(prm.Sym)
	}
	for _, sym := range lw.k.Locals {
		assign(sym)
	}
	lw.allocConsts(folded)
	lw.tmpI, lw.tmpF = lw.baseI, lw.baseF
	lw.maxI, lw.maxF = lw.baseI, lw.baseF
}

// varReg returns the register of a scalar variable symbol.
func (lw *lowerer) varReg(sym *clc.Symbol, pos clc.Pos) breg {
	if sym == nil || sym.Slot < 0 || sym.Slot >= len(lw.slotReg) || lw.slotReg[sym.Slot] < 0 {
		lw.fail(pos, "interp: no register for symbol")
		return breg{}
	}
	return breg{idx: lw.slotReg[sym.Slot], f: lw.slotIsF[sym.Slot], varRef: true}
}

// ---------------------------------------------------------------------------
// Statements

func (lw *lowerer) lowerStmt(s clc.Stmt) {
	lw.resetTmp()
	switch st := s.(type) {
	case *clc.Block:
		for _, inner := range st.Stmts {
			lw.lowerStmt(inner)
		}
	case *clc.DeclStmt:
		for _, d := range st.Decls {
			lw.resetTmp()
			lw.lowerDecl(d)
		}
	case *clc.ExprStmt:
		lw.lowerExprStmt(st.X)
	case *clc.IfStmt:
		fp := lw.jumpIfFalse(st.Cond)
		lw.lowerStmt(st.Then)
		if st.Else == nil {
			lw.patchHere(fp)
			return
		}
		over := lw.emit(instr{op: opJmp, imm: -1})
		lw.patchHere(fp)
		lw.lowerStmt(st.Else)
		lw.patchHere([]int{over})
	case *clc.ForStmt:
		if st.Init != nil {
			lw.lowerStmt(st.Init)
		}
		start := lw.here()
		var exit []int
		if st.Cond != nil {
			lw.resetTmp()
			exit = lw.jumpIfFalse(st.Cond)
		}
		bodyStart := lw.here()
		lw.loops = append(lw.loops, loopCtx{})
		lw.lowerStmt(st.Body)
		lp := lw.loops[len(lw.loops)-1]
		lw.loops = lw.loops[:len(lw.loops)-1]
		cont := lw.here()
		if lw.tryFusedBackEdge(st, bodyStart) {
			// Post, condition, and back-jump fused into one
			// instruction (the head condition still runs on entry).
		} else {
			if st.Post != nil {
				lw.resetTmp()
				lw.lowerExprStmt(st.Post)
			}
			lw.emit(instr{op: opJmp, imm: int64(start)})
		}
		end := lw.here()
		lw.patch(exit, end)
		lw.patch(lp.breaks, end)
		lw.patch(lp.continues, cont)
	case *clc.WhileStmt:
		start := lw.here()
		exit := lw.jumpIfFalse(st.Cond)
		lw.loops = append(lw.loops, loopCtx{})
		lw.lowerStmt(st.Body)
		lp := lw.loops[len(lw.loops)-1]
		lw.loops = lw.loops[:len(lw.loops)-1]
		lw.emit(instr{op: opJmp, imm: int64(start)})
		end := lw.here()
		lw.patch(exit, end)
		lw.patch(lp.breaks, end)
		lw.patch(lp.continues, start)
	case *clc.DoWhileStmt:
		start := lw.here()
		lw.loops = append(lw.loops, loopCtx{})
		lw.lowerStmt(st.Body)
		lp := lw.loops[len(lw.loops)-1]
		lw.loops = lw.loops[:len(lw.loops)-1]
		cont := lw.here()
		lw.resetTmp()
		back := lw.jumpIfTrue(st.Cond)
		lw.patch(back, start)
		end := lw.here()
		lw.patch(lp.breaks, end)
		lw.patch(lp.continues, cont)
	case *clc.ReturnStmt:
		lw.emit(instr{op: opRet})
	case *clc.BreakStmt:
		if len(lw.loops) == 0 {
			lw.fail(st.Pos(), "interp: break outside loop")
			return
		}
		pc := lw.emit(instr{op: opJmp, imm: -1})
		lp := &lw.loops[len(lw.loops)-1]
		lp.breaks = append(lp.breaks, pc)
	case *clc.ContinueStmt:
		if len(lw.loops) == 0 {
			lw.fail(st.Pos(), "interp: continue outside loop")
			return
		}
		pc := lw.emit(instr{op: opJmp, imm: -1})
		lp := &lw.loops[len(lw.loops)-1]
		lp.continues = append(lp.continues, pc)
	case *clc.BarrierStmt:
		// Top-level barriers are handled by segmentation; the checker
		// rejects nested ones (the closure engine also treats them as
		// no-ops).
	default:
		lw.fail(s.Pos(), "interp: unhandled statement %T", s)
	}
}

func (lw *lowerer) lowerDecl(d *clc.VarDecl) {
	sym := d.Sym
	if sym == nil {
		lw.fail(d.NamePos, "interp: unresolved declaration %q", d.Name)
		return
	}
	if sym.IsLocal || sym.ArrayLen > 0 {
		// __local storage is zeroed per work-group, private arrays per
		// work-item, both by the executor.
		return
	}
	if sym.Type.Ptr {
		// A private pointer has no register: reading it as a value and
		// subscripting it are refused where they occur, and so is its
		// initializer, a pointer read as a value.
		if d.Init != nil {
			lw.lowerExpr(d.Init)
		}
		return
	}
	lw.dropBases(sym)
	if lw.folded[sym] {
		// The slot is a preloaded constant register (allocConsts): the
		// declaration only counts what evaluating its literal counts.
		_, aluI, aluF, _ := foldConst(d.Init)
		lw.pay(aluI, aluF)
		return
	}
	dst := lw.varReg(sym, d.NamePos)
	if d.Init == nil {
		// Matches the closure engine's e.slots[slot] = Value{}.
		if dst.f {
			lw.emit(instr{op: opConstF, dst: dst.idx})
		} else {
			lw.emit(instr{op: opConstI, dst: dst.idx})
		}
		return
	}
	rv := lw.lowerConverted(d.Init, sym.Type.Kind, d.NamePos)
	lw.moveTo(dst, rv)
}

// lowerExprStmt lowers an expression evaluated for its side effects only.
func (lw *lowerer) lowerExprStmt(x clc.Expr) {
	switch e := x.(type) {
	case *clc.Assign:
		lw.lowerAssign(e, false)
	case *clc.IncDec:
		lw.lowerIncDec(e, false)
	default:
		lw.lowerExpr(x)
	}
}

// moveTo copies src into the (typed) register dst without normalization.
func (lw *lowerer) moveTo(dst, src breg) {
	if dst.idx == src.idx && dst.f == src.f {
		return
	}
	if !lw.retarget(dst, src) {
		lw.move(dst, src)
	}
}

// ---------------------------------------------------------------------------
// Conditions

// jumpIfFalse lowers condition x and emits jumps taken when it is false,
// returning their pcs for backpatching. Comparisons fuse into
// compare-and-branch instructions; logical operators short-circuit exactly
// like the closure engine (one AluInt count per operator, counted first).
func (lw *lowerer) jumpIfFalse(x clc.Expr) []int {
	switch e := x.(type) {
	case *clc.Binary:
		switch {
		case e.Op == clc.BinLAnd:
			lw.pay(1, 0)
			p := lw.jumpIfFalse(e.L)
			return append(p, lw.jumpIfFalse(e.R)...)
		case e.Op == clc.BinLOr:
			lw.pay(1, 0)
			t := lw.jumpIfTrue(e.L)
			p := lw.jumpIfFalse(e.R)
			lw.patchHere(t)
			return p
		case e.Op.IsComparison():
			return []int{lw.emitCmpJump(e, false)}
		}
	case *clc.Unary:
		if e.Op == clc.UnaryNot {
			lw.pay(1, 0)
			return lw.jumpIfTrue(e.X)
		}
	}
	r := lw.lowerExpr(x)
	op := opJmpZI
	if r.f {
		op = opJmpZF
	}
	return []int{lw.emit(instr{op: op, a: r.idx, imm: -1})}
}

// jumpIfTrue is the dual of jumpIfFalse.
func (lw *lowerer) jumpIfTrue(x clc.Expr) []int {
	switch e := x.(type) {
	case *clc.Binary:
		switch {
		case e.Op == clc.BinLAnd:
			lw.pay(1, 0)
			f := lw.jumpIfFalse(e.L)
			f = append(f, lw.jumpIfFalse(e.R)...)
			t := lw.emit(instr{op: opJmp, imm: -1})
			lw.patchHere(f)
			return []int{t}
		case e.Op == clc.BinLOr:
			lw.pay(1, 0)
			t := lw.jumpIfTrue(e.L)
			return append(t, lw.jumpIfTrue(e.R)...)
		case e.Op.IsComparison():
			return []int{lw.emitCmpJump(e, true)}
		}
	case *clc.Unary:
		if e.Op == clc.UnaryNot {
			lw.pay(1, 0)
			return lw.jumpIfFalse(e.X)
		}
	}
	r := lw.lowerExpr(x)
	op := opJmpNZI
	if r.f {
		op = opJmpNZF
	}
	return []int{lw.emit(instr{op: op, a: r.idx, imm: -1})}
}

// emitCmpJump lowers a comparison fused with a branch. The branch is
// taken when the comparison is false (ifTrue=false) or true (ifTrue=true).
// Float jump-if-true materializes the comparison instead of inverting it,
// because inverted float comparisons are NaN-incorrect.
func (lw *lowerer) emitCmpJump(b *clc.Binary, ifTrue bool) int {
	pk := promoteKind(b.L.ResultType().Kind, b.R.ResultType().Kind)
	c := lw.countAt(canTrap(b.L) || canTrap(b.R), pk.IsFloat())
	l := lw.lowerConverted(b.L, pk, b.Pos())
	if l.varRef && writesVars(b.R) {
		l = lw.snapshot(l)
	}
	code := cmpCode(b.Op, pk.IsUnsigned())
	if pk.IsFloat() {
		r := lw.lowerConverted(b.R, pk, b.Pos())
		if !ifTrue {
			return lw.emit(instr{op: opJCmpF, norm: code, a: l.idx, b: r.idx, c: c, imm: -1})
		}
		t := lw.tempI()
		lw.emit(instr{op: opCmpF, norm: code, dst: t.idx, a: l.idx, b: r.idx, c: c})
		return lw.emit(instr{op: opJmpNZI, a: t.idx, imm: -1})
	}
	if ifTrue {
		code = invertICmp(code)
	}
	if reg, k, ok := lw.offsetOperand(b.R, pk); ok {
		return lw.emit(instr{op: opJCmpIK, norm: code, a: l.idx, b: reg, k: k, c: c + 1, imm: -1})
	}
	r := lw.lowerConverted(b.R, pk, b.Pos())
	return lw.emit(instr{op: opJCmpI, norm: code, a: l.idx, b: r.idx, c: c, imm: -1})
}

// countAt returns the count field of an operation that counts one AluInt,
// or one AluFloat when float, and is about to lower its operands. The
// closure engine counts an operation before its operands, so when they
// can trap (trap) the count is paid now, ahead of their code, and the
// instruction counts 0; otherwise nothing can observe the difference and
// the instruction counts 1 as it runs.
func (lw *lowerer) countAt(trap, float bool) int32 {
	switch {
	case !trap:
		return 1
	case float:
		lw.pay(0, 1)
	default:
		lw.pay(1, 0)
	}
	return 0
}

// newTemp, as emitBinOp's destination, asks for a fresh temporary.
var newTemp = breg{idx: -1}

// emitBinOp emits dst = a op b over the promoted kind pk, counting c as
// it runs, and returns dst. A dst of newTemp is a temporary allocated
// after the operands'.
func (lw *lowerer) emitBinOp(op clc.BinaryOp, pk clc.Kind, dst, a, b breg, c int32, pos clc.Pos) breg {
	code, mask, ok := binOpcode(op, pk)
	if !ok {
		lw.fail(pos, "interp: invalid operator %v over %v", op, pk)
		return breg{}
	}
	if dst.idx < 0 {
		dst = lw.temp(pk.IsFloat())
	}
	norm := normCodeInt(pk)
	if pk.IsFloat() {
		norm = normCodeFloat(pk)
	}
	lw.emit(instr{op: code, norm: norm, dst: dst.idx, a: a.idx, b: b.idx, c: c, imm: mask, pos: pos})
	return dst
}

// emitDivision lowers the integer x / y or x % y over kind pk into dst
// (as emitBinOp) in the closure engine's event order: the count, the
// divisor, its zero check (opChkDiv0), then the dividend. When the
// dividend has no observable effect and the divisor cannot trap, nothing
// can tell that order from the operation's own, which counts as it runs
// and checks the divisor itself, so the count and the check fold into it.
func (lw *lowerer) emitDivision(op clc.BinaryOp, pk clc.Kind, dst breg, x, y clc.Expr, pos clc.Pos) breg {
	full := !pureNoEffects(x) || canTrap(y)
	c := lw.countAt(full, false)
	r := lw.lowerConverted(y, pk, pos)
	if r.varRef && writesVars(x) {
		r = lw.snapshot(r)
	}
	if full {
		chk := instr{op: opChkDiv0, a: r.idx, pos: pos}
		if op == clc.BinRem {
			chk.imm = 1
		}
		lw.emit(chk)
	}
	l := lw.lowerConverted(x, pk, pos)
	return lw.emitBinOp(op, pk, dst, l, r, c, pos)
}

// ---------------------------------------------------------------------------
// Expressions

// lowerExpr lowers x and returns the register holding its value; the
// register's type matches x.ResultType().Kind (float kinds in the float
// file, everything else in the int file).
func (lw *lowerer) lowerExpr(x clc.Expr) breg {
	if r, ok := lw.lowerConst(x); ok {
		return r
	}
	switch e := x.(type) {
	case *clc.IntLit:
		t := lw.tempI()
		lw.emit(instr{op: opConstI, dst: t.idx, imm: e.Value})
		return t
	case *clc.FloatLit:
		t := lw.tempF()
		// Float literals are float32-rounded like the closure engine.
		lw.emit(instr{op: opConstF, dst: t.idx, fimm: float64(float32(e.Value))})
		return t
	case *clc.Ident:
		return lw.lowerIdentLoad(e)
	case *clc.Unary:
		return lw.lowerUnary(e)
	case *clc.Binary:
		return lw.lowerBinary(e)
	case *clc.Cond:
		return lw.lowerCond(e)
	case *clc.Index:
		return lw.lowerIndexLoad(e)
	case *clc.Call:
		return lw.lowerCall(e)
	case *clc.Cast:
		v := lw.lowerExpr(e.X)
		return lw.emitConvert(v, e.X.ResultType().Kind, e.To.Kind, e.Pos())
	case *clc.Assign:
		return lw.lowerAssign(e, true)
	case *clc.IncDec:
		return lw.lowerIncDec(e, true)
	}
	lw.fail(x.Pos(), "interp: unhandled expression %T", x)
	return breg{}
}

// lowerConverted lowers x and converts the result to kind `to`.
func (lw *lowerer) lowerConverted(x clc.Expr, to clc.Kind, pos clc.Pos) breg {
	v := lw.lowerExpr(x)
	return lw.emitConvert(v, x.ResultType().Kind, to, pos)
}

// emitConvert adapts a register value of kind from to kind to, mirroring
// the closure engine's convert (which emits no statistics).
func (lw *lowerer) emitConvert(v breg, from, to clc.Kind, pos clc.Pos) breg {
	if from == to {
		return v
	}
	switch {
	case from.IsInteger() && to.IsInteger():
		n := normCodeInt(to)
		if n == normNone {
			return v // widening to long/ulong keeps the 64-bit pattern
		}
		t := lw.tempI()
		lw.emit(instr{op: opMovI, norm: n, dst: t.idx, a: v.idx})
		return t
	case from.IsInteger() && to.IsFloat():
		t := lw.tempF()
		var flags uint8
		if from == clc.KindULong {
			flags |= convUnsigned
		}
		if to == clc.KindFloat {
			flags |= convRound32
		}
		lw.emit(instr{op: opI2F, norm: flags, dst: t.idx, a: v.idx})
		return t
	case from.IsFloat() && to.IsInteger():
		t := lw.tempI()
		lw.emit(instr{op: opF2I, norm: normCodeInt(to), dst: t.idx, a: v.idx})
		return t
	case from.IsFloat() && to.IsFloat():
		if to != clc.KindFloat {
			return v // float -> double is exact
		}
		t := lw.tempF()
		lw.emit(instr{op: opMovF, norm: normF32, dst: t.idx, a: v.idx})
		return t
	}
	lw.fail(pos, "interp: cannot convert %v to %v", from, to)
	return v
}

func (lw *lowerer) lowerIdentLoad(id *clc.Ident) breg {
	sym := id.Sym
	if sym == nil {
		lw.fail(id.Pos(), "interp: unresolved identifier %q", id.Name)
		return breg{}
	}
	if sym.Type.Ptr || sym.ArrayLen > 0 {
		lw.fail(id.Pos(), "interp: pointer %q used as a value", id.Name)
		return breg{}
	}
	if sym.IsLocal {
		li, ok := lw.lay.localIdx[sym]
		if !ok {
			lw.fail(id.Pos(), "interp: unknown __local symbol %q", id.Name)
			return breg{}
		}
		if sym.Type.Kind.IsFloat() {
			t := lw.tempF()
			lw.emit(instr{op: opLdLSF, dst: t.idx, slot: int32(li)})
			return t
		}
		t := lw.tempI()
		lw.emit(instr{op: opLdLSI, dst: t.idx, slot: int32(li)})
		return t
	}
	return lw.varReg(sym, id.Pos())
}

func (lw *lowerer) lowerUnary(u *clc.Unary) breg {
	if u.Op == clc.UnaryPlus {
		return lw.lowerExpr(u.X)
	}
	rk := u.ResultType().Kind
	// Logical not counts AluInt even over a float operand.
	isF := u.Op == clc.UnaryNeg && u.X.ResultType().Kind.IsFloat()
	var in instr
	switch u.Op {
	case clc.UnaryNeg:
		in.op, in.norm = opNegI, normCodeInt(rk)
		if isF {
			in.op, in.norm = opNegF, normCodeFloat(rk)
		}
	case clc.UnaryNot:
		in.op = opNotI
	case clc.UnaryBitNot:
		in.op, in.norm = opBitNotI, normCodeInt(rk)
	default:
		lw.fail(u.Pos(), "interp: unhandled unary op %v", u.Op)
		return breg{}
	}
	in.c = lw.countAt(canTrap(u.X), isF)
	v := lw.lowerExpr(u.X)
	if in.op == opNotI && v.f {
		in.op = opNotF
	}
	t := lw.temp(isF)
	in.dst, in.a = t.idx, v.idx
	lw.emit(in)
	return t
}

func (lw *lowerer) lowerBinary(b *clc.Binary) breg {
	if b.Op.IsLogical() {
		return lw.lowerLogical(b)
	}
	pk := promoteKind(b.L.ResultType().Kind, b.R.ResultType().Kind)
	if (b.Op == clc.BinDiv || b.Op == clc.BinRem) && !pk.IsFloat() {
		return lw.emitDivision(b.Op, pk, newTemp, b.L, b.R, b.Pos())
	}
	// Fused multiply-add addressing: (a*b)+c / c+(a*b) over pure int32
	// operands (e.g. row*n+col subscripts). Counts AluInt += 2 at once;
	// legal because pure operands emit no interleaved events.
	if b.Op == clc.BinAdd && pk == clc.KindInt {
		if t, ok := lw.tryMulAdd(b); ok {
			return t
		}
	}
	c := lw.countAt(canTrap(b.L) || canTrap(b.R), pk.IsFloat())
	l := lw.lowerConverted(b.L, pk, b.Pos())
	if l.varRef && writesVars(b.R) {
		l = lw.snapshot(l)
	}
	if t, ok := lw.tryLoadOperand(b, pk, l, c); ok {
		return t
	}
	r := lw.lowerConverted(b.R, pk, b.Pos())
	if b.Op.IsComparison() {
		op := opCmpI
		if pk.IsFloat() {
			op = opCmpF
		}
		t := lw.tempI()
		lw.emit(instr{op: op, norm: cmpCode(b.Op, pk.IsUnsigned()), dst: t.idx, a: l.idx, b: r.idx, c: c})
		return t
	}
	return lw.emitBinOp(b.Op, pk, newTemp, l, r, c, b.Pos())
}

// mulAddParts splits (a*b)+c or c+(a*b) over int32-promoted, pure
// operands — the shape lowered to opMulAddI — into the multiply and the
// addend.
func mulAddParts(x clc.Expr) (mul *clc.Binary, add clc.Expr, ok bool) {
	b, isBin := x.(*clc.Binary)
	if !isBin || b.Op != clc.BinAdd || promoteKind(b.L.ResultType().Kind, b.R.ResultType().Kind) != clc.KindInt {
		return nil, nil, false
	}
	match := func(mulX, addX clc.Expr) bool {
		m, isMul := mulX.(*clc.Binary)
		if !isMul || m.Op != clc.BinMul ||
			promoteKind(m.L.ResultType().Kind, m.R.ResultType().Kind) != clc.KindInt ||
			!pureNoEffects(m.L) || !pureNoEffects(m.R) || !pureNoEffects(addX) {
			return false
		}
		mul, add = m, addX
		return true
	}
	ok = match(b.L, b.R) || match(b.R, b.L)
	return mul, add, ok
}

// tryMulAdd fuses the mulAddParts shape into opMulAddI.
func (lw *lowerer) tryMulAdd(b *clc.Binary) (breg, bool) {
	mul, add, ok := mulAddParts(b)
	if !ok {
		return breg{}, false
	}
	ma := lw.lowerConverted(mul.L, clc.KindInt, mul.Pos())
	mb := lw.lowerConverted(mul.R, clc.KindInt, mul.Pos())
	ad := lw.lowerConverted(add, clc.KindInt, b.Pos())
	t := lw.tempI()
	lw.emit(instr{op: opMulAddI, norm: 2, dst: t.idx, a: ma.idx, b: mb.idx, c: ad.idx})
	return t, true
}

// lowerLogical materializes a short-circuit && / || as a 0/1 integer,
// counting one AluInt for the operator before the operands like the
// closure engine.
func (lw *lowerer) lowerLogical(b *clc.Binary) breg {
	lw.pay(1, 0)
	t := lw.tempI()
	var f, tr []int
	if b.Op == clc.BinLAnd {
		f = lw.jumpIfFalse(b.L)
		f = append(f, lw.jumpIfFalse(b.R)...)
		lw.emit(instr{op: opConstI, dst: t.idx, imm: 1})
		over := lw.emit(instr{op: opJmp, imm: -1})
		lw.patchHere(f)
		lw.emit(instr{op: opConstI, dst: t.idx, imm: 0})
		lw.patchHere([]int{over})
		return t
	}
	tr = lw.jumpIfTrue(b.L)
	tr = append(tr, lw.jumpIfTrue(b.R)...)
	lw.emit(instr{op: opConstI, dst: t.idx, imm: 0})
	over := lw.emit(instr{op: opJmp, imm: -1})
	lw.patchHere(tr)
	lw.emit(instr{op: opConstI, dst: t.idx, imm: 1})
	lw.patchHere([]int{over})
	return t
}

func (lw *lowerer) lowerCond(e *clc.Cond) breg {
	rk := e.ResultType().Kind
	dst := lw.temp(rk.IsFloat())
	fp := lw.jumpIfFalse(e.C)
	tv := lw.lowerConverted(e.Then, rk, e.Pos())
	lw.moveTo(dst, tv)
	over := lw.emit(instr{op: opJmp, imm: -1})
	lw.patchHere(fp)
	ev := lw.lowerConverted(e.Else, rk, e.Pos())
	lw.moveTo(dst, ev)
	lw.patchHere([]int{over})
	return dst
}

// ---------------------------------------------------------------------------
// Memory access

// bcRef is the lowered addressing of an Index expression.
type bcRef struct {
	kind     clc.Kind
	site     int32
	pos      clc.Pos
	argIndex int32 // parameter slot for global buffers; -1 otherwise
	localIdx int32 // __local array index; -1 otherwise
	privIdx  int32 // private array index; -1 otherwise
}

func (lw *lowerer) memRefOf(ix *clc.Index) bcRef {
	ref := bcRef{site: int32(ix.Site), pos: ix.Pos(), argIndex: -1, localIdx: -1, privIdx: -1}
	if ix.Idx.ResultType().Kind.IsFloat() {
		lw.fail(ix.Idx.Pos(), "interp: non-integer index")
		return ref
	}
	base, ok := ix.Base.(*clc.Ident)
	if !ok || base.Sym == nil {
		lw.fail(ix.Pos(), "interp: unsupported subscript base")
		return ref
	}
	sym := base.Sym
	switch {
	case sym.Class == clc.SymParam && sym.Type.Ptr:
		ref.kind = sym.Type.Kind
		ref.argIndex = int32(sym.Slot)
	case sym.ArrayLen > 0 && sym.IsLocal:
		ref.kind = sym.Type.Kind
		ref.localIdx = int32(lw.lay.localIdx[sym])
	case sym.ArrayLen > 0:
		ref.kind = sym.Type.Kind
		ref.privIdx = int32(lw.lay.privIdx[sym])
	default:
		lw.fail(ix.Pos(), "interp: subscript of non-array %q", sym.Name)
	}
	return ref
}

// globalLoadOp returns the load opcode and norm for a buffer element kind.
func globalLoadOp(kind clc.Kind) (opcode, uint8) {
	switch kind {
	case clc.KindFloat:
		return opLdGF32, 0
	case clc.KindDouble:
		return opLdGF64, 0
	case clc.KindLong, clc.KindULong:
		return opLdGI64, 0
	default: // int, uint: re-widen like normInt(kind, int64(b.I32[i]))
		return opLdGI32, normCodeInt(kind)
	}
}

// globalStoreOp returns the store opcode for a buffer element kind.
func globalStoreOp(kind clc.Kind) opcode {
	switch kind {
	case clc.KindFloat:
		return opStGF32
	case clc.KindDouble:
		return opStGF64
	case clc.KindLong, clc.KindULong:
		return opStGI64
	default:
		return opStGI32
	}
}

// emitLoad emits the load of ref at index register idx.
func (lw *lowerer) emitLoad(ref bcRef, idx breg) breg {
	isF := ref.kind.IsFloat()
	in := instr{a: idx.idx, pos: ref.pos}
	switch {
	case ref.argIndex >= 0:
		in.op, in.norm = globalLoadOp(ref.kind)
		in.slot, in.site = ref.argIndex, ref.site
	case ref.localIdx >= 0:
		in.op, in.slot = opLdLI, ref.localIdx
		if isF {
			in.op = opLdLF
		}
	default:
		in.op, in.slot = opLdPI, ref.privIdx
		if isF {
			in.op = opLdPF
		}
	}
	t := lw.temp(isF)
	in.dst = t.idx
	lw.emit(in)
	return t
}

// emitStore emits the store of value v through ref at index register idx.
func (lw *lowerer) emitStore(ref bcRef, idx, v breg) {
	in := instr{a: idx.idx, b: v.idx, pos: ref.pos}
	switch {
	case ref.argIndex >= 0:
		in.op, in.slot, in.site = globalStoreOp(ref.kind), ref.argIndex, ref.site
	case ref.localIdx >= 0:
		in.op, in.slot = opStLI, ref.localIdx
		if v.f {
			in.op = opStLF
		}
	default:
		in.op, in.slot = opStPI, ref.privIdx
		if v.f {
			in.op = opStPF
		}
	}
	lw.emit(in)
}

func (lw *lowerer) lowerIndexLoad(ix *clc.Index) breg {
	ref := lw.memRefOf(ix)
	if _, ok := lw.f32Load(ix); ok {
		t := lw.tempF()
		lw.emitRebasedLoad(opLdGF32K, 0, t.idx, 0, ix, 0)
		return t
	}
	idx := lw.lowerExpr(ix.Idx)
	return lw.emitLoad(ref, idx)
}

// ---------------------------------------------------------------------------
// Calls

func (lw *lowerer) lowerCall(call *clc.Call) breg {
	b := call.Builtin
	if b == nil {
		lw.fail(call.Pos(), "interp: unresolved call %q", call.Name)
		return breg{}
	}
	switch b.Kind {
	case clc.BuiltinWorkItem:
		return lw.lowerWorkItem(call)
	case clc.BuiltinMath:
		return lw.lowerMath(call, 1)
	case clc.BuiltinMath2:
		return lw.lowerMath(call, 2)
	case clc.BuiltinIntMinMax:
		return lw.lowerMinMax(call)
	case clc.BuiltinAbs:
		c := lw.countAt(canTrap(call.Args[0]), false)
		v := lw.lowerExpr(call.Args[0])
		if v.f {
			lw.fail(call.Pos(), "interp: abs over float operand")
			return breg{}
		}
		t := lw.tempI()
		lw.emit(instr{op: opAbsI, dst: t.idx, a: v.idx, c: c})
		return t
	case clc.BuiltinAtomic, clc.BuiltinAtomic2:
		return lw.lowerAtomic(call)
	}
	lw.fail(call.Pos(), "interp: unhandled builtin %q", b.Name)
	return breg{}
}

func (lw *lowerer) lowerWorkItem(call *clc.Call) breg {
	code, ok := wiCodes[call.Name]
	if !ok {
		lw.fail(call.Pos(), "interp: unhandled work-item fn %q", call.Name)
		return breg{}
	}
	t := lw.tempI()
	if call.Name == "get_work_dim" {
		lw.emit(instr{op: opWISta, norm: code, dst: t.idx})
		return t
	}
	// Constant dimension: resolve the index at lowering time, like the
	// closure engine's const-dim fast path.
	if lit, ok := call.Args[0].(*clc.IntLit); ok {
		if uint64(lit.Value) >= 3 {
			lw.emit(instr{op: opConstI, dst: t.idx, imm: wiOutOfRange(code)})
		} else {
			lw.emit(instr{op: opWISta, norm: code, dst: t.idx, imm: lit.Value})
		}
		return t
	}
	d := lw.lowerExpr(call.Args[0])
	if d.f {
		lw.fail(call.Pos(), "interp: non-integer work-item dimension")
		return breg{}
	}
	lw.emit(instr{op: opWIDyn, norm: code, dst: t.idx, a: d.idx})
	return t
}

// lowerMath lowers a 1- or 2-argument math builtin. The closure engine
// counts AluFloat before evaluating the (float-converted) arguments, so
// the count is pre-paid whenever an argument can trap.
func (lw *lowerer) lowerMath(call *clc.Call, nargs int) breg {
	c := lw.countAt(canTrap(call.Args[0]) || (nargs == 2 && canTrap(call.Args[1])), true)
	a0 := lw.lowerConverted(call.Args[0], clc.KindFloat, call.Args[0].Pos())
	if nargs == 1 {
		t := lw.tempF()
		lw.emit(instr{op: opMath1, dst: t.idx, a: a0.idx, c: c, imm: int64(lw.mathIdx1(call.Name))})
		return t
	}
	if writesVars(call.Args[1]) {
		a0 = lw.snapshot(a0)
	}
	a1 := lw.lowerConverted(call.Args[1], clc.KindFloat, call.Args[1].Pos())
	t := lw.tempF()
	lw.emit(instr{op: opMath2, dst: t.idx, a: a0.idx, b: a1.idx, c: c, imm: int64(lw.mathIdx2(call.Name))})
	return t
}

// mathIdx1/mathIdx2 intern a math builtin into the program's function
// tables, so dispatch is an index instead of a per-call name switch.
func (lw *lowerer) mathIdx1(name string) int {
	if i, ok := lw.math1Idx[name]; ok {
		return i
	}
	i := len(lw.math1)
	lw.math1 = append(lw.math1, mathFn1(name))
	lw.math1Idx[name] = i
	return i
}

func (lw *lowerer) mathIdx2(name string) int {
	if i, ok := lw.math2Idx[name]; ok {
		return i
	}
	i := len(lw.math2)
	lw.math2 = append(lw.math2, mathFn2(name))
	lw.math2Idx[name] = i
	return i
}

func (lw *lowerer) lowerMinMax(call *clc.Call) breg {
	rk := call.ResultType().Kind
	sel := uint8(0)
	if call.Name == "min" {
		sel = 1
	}
	c := lw.countAt(canTrap(call.Args[0]) || canTrap(call.Args[1]), rk.IsFloat())
	a0 := lw.lowerConverted(call.Args[0], rk, call.Pos())
	if writesVars(call.Args[1]) {
		a0 = lw.snapshot(a0)
	}
	a1 := lw.lowerConverted(call.Args[1], rk, call.Pos())
	// The closure engine does not re-normalize the selected value.
	op := opMinMaxI
	if rk.IsFloat() {
		op = opMinMaxF
	}
	t := lw.temp(rk.IsFloat())
	lw.emit(instr{op: op, norm: sel, dst: t.idx, a: a0.idx, b: a1.idx, c: c})
	return t
}

// lowerAtomic lowers an atomic builtin in the closure engine's order:
// count the operation, load the old value (a global target traps on an
// empty buffer first), evaluate the operand, then apply and store,
// yielding the old value. When the operand is absent or pureNoEffects,
// nothing it does is observable, so the whole atomic runs after the
// operand's code as one opAtomicL/opAtomicG. Any other operand runs
// between opAtomicLd and opAtomicSt; it may write the target itself, and
// the store is still of the value applied to the old one. The two phases
// are apart only within one work-item's code: a group's work-items run
// one after another, and a launch with global atomics runs its groups on
// one goroutine.
func (lw *lowerer) lowerAtomic(call *clc.Call) breg {
	target, ok := call.Args[0].(*clc.Ident)
	if !ok || target.Sym == nil {
		lw.fail(call.Args[0].Pos(), "interp: unsupported atomic target")
		return breg{}
	}
	sym := target.Sym
	var fused opcode
	var slot int32
	var space uint8
	switch {
	case sym.IsLocal && sym.ArrayLen > 0:
		li, ok := lw.lay.localIdx[sym]
		if !ok {
			lw.fail(call.Pos(), "interp: unknown __local symbol %q", sym.Name)
			return breg{}
		}
		fused, slot = opAtomicL, int32(li)
	case sym.Class == clc.SymParam && sym.Type.Ptr:
		fused, slot, space = opAtomicG, int32(sym.Slot), atomGlobal
	default:
		lw.fail(call.Args[0].Pos(), "interp: atomic target must be a __local array or global int pointer")
		return breg{}
	}
	op, ok := atomicOps[call.Name]
	if !ok {
		lw.fail(call.Pos(), "interp: unhandled atomic %q", call.Name)
		return breg{}
	}
	if len(call.Args) == 1 || pureNoEffects(call.Args[1]) {
		var operand breg
		if len(call.Args) > 1 {
			operand = lw.lowerExpr(call.Args[1])
		}
		t := lw.tempI()
		lw.emit(instr{op: fused, norm: uint8(op), dst: t.idx, a: operand.idx, c: 1, slot: slot, pos: call.Pos()})
		return t
	}
	t := lw.tempI()
	lw.emit(instr{op: opAtomicLd, norm: space, dst: t.idx, c: 1, slot: slot, pos: call.Pos()})
	operand := lw.lowerExpr(call.Args[1])
	lw.emit(instr{op: opAtomicSt, norm: uint8(op) | space, dst: t.idx, a: operand.idx, slot: slot})
	return t
}

// ---------------------------------------------------------------------------
// Assignment and inc/dec

func (lw *lowerer) lowerAssign(as *clc.Assign, want bool) breg {
	rk := as.LHS.ResultType().Kind
	binOp, _ := as.Op.BinOp()
	switch lhs := as.LHS.(type) {
	case *clc.Ident:
		sym := lhs.Sym
		if sym == nil {
			lw.fail(lhs.Pos(), "interp: unresolved assignment target")
			return breg{}
		}
		if sym.IsLocal {
			// A __local scalar lives in work-group storage: the value is
			// computed in a temporary, then stored.
			var nv breg
			if as.Op == clc.AssignPlain {
				nv = lw.lowerConverted(as.RHS, rk, as.Pos())
			} else {
				nv = lw.lowerCompound(binOp, rk, newTemp, lhs, as.RHS, as.Pos())
			}
			lw.storeLocalScalar(sym, nv, as.Pos())
			return nv
		}
		dst := lw.varReg(sym, lhs.Pos())
		if as.Op == clc.AssignPlain {
			rv := lw.lowerConverted(as.RHS, rk, as.Pos())
			lw.moveTo(dst, rv)
			return dst
		}
		if v, ok := lw.tryFMA(as, dst, rk); ok {
			return v
		}
		return lw.lowerCompound(binOp, rk, dst, lhs, as.RHS, as.Pos())

	case *clc.Index:
		ref := lw.memRefOf(lhs)
		if as.Op == clc.AssignPlain {
			idx := lw.storeIndex(ref, lhs.Idx)
			if writesVars(as.RHS) {
				idx = lw.snapshot(idx)
			}
			rv := lw.lowerConverted(as.RHS, rk, as.Pos())
			lw.emitStore(ref, idx, rv)
			return rv
		}
		// Compound assignment through an element: the closure engine
		// evaluates index, loads the element (recording the access),
		// evaluates the RHS, and only then counts the operation and
		// applies it (applyBin) — so the operation, integer division
		// included, counts and checks as it runs, never ahead.
		idx := lw.lowerExpr(lhs.Idx)
		if writesVars(as.RHS) {
			idx = lw.snapshot(idx)
		}
		old := lw.emitLoad(ref, idx)
		rv := lw.lowerConverted(as.RHS, rk, as.Pos())
		nv := lw.emitBinOp(binOp, rk, newTemp, old, rv, 1, as.Pos())
		lw.emitStore(ref, idx, nv)
		return nv
	}
	lw.fail(as.Pos(), "interp: invalid assignment target %T", as.LHS)
	return breg{}
}

// lowerCompound lowers v op= y for a variable or __local scalar v into
// dst (as emitBinOp) through binOpFn: the promoted kind is v's kind and y
// is converted to it. The closure engine counts, reads v, evaluates y and
// applies, so v is read like the left operand of v op y; an integer
// division takes emitDivision's order, where v is read after y.
func (lw *lowerer) lowerCompound(op clc.BinaryOp, rk clc.Kind, dst breg, v *clc.Ident, y clc.Expr, pos clc.Pos) breg {
	if (op == clc.BinDiv || op == clc.BinRem) && !rk.IsFloat() {
		return lw.emitDivision(op, rk, dst, v, y, pos)
	}
	c := lw.countAt(canTrap(y), rk.IsFloat())
	a := lw.lowerExpr(v)
	if a.varRef && writesVars(y) {
		a = lw.snapshot(a)
	}
	rv := lw.lowerConverted(y, rk, pos)
	return lw.emitBinOp(op, rk, dst, a, rv, c, pos)
}

// storeLocalScalar stores v into the __local scalar sym.
func (lw *lowerer) storeLocalScalar(sym *clc.Symbol, v breg, pos clc.Pos) {
	li, ok := lw.lay.localIdx[sym]
	if !ok {
		lw.fail(pos, "interp: unknown __local symbol %q", sym.Name)
		return
	}
	op := opStLSI
	if v.f {
		op = opStLSF
	}
	lw.emit(instr{op: op, a: v.idx, slot: int32(li)})
}

// tryFMA recognizes the reduction pattern `acc += x*y` over float32 and
// fuses it into opFMAAF32 (two AluFloat counts, both float32 roundings
// preserved). Bails out unless the multiply is float32-promoted and its
// operands neither write variables (the accumulator read is deferred to
// the fused instruction) nor require an intermediate conversion. A loop
// whose body is one or two of these over global loads becomes a fused
// loop (fuseFMALoops).
func (lw *lowerer) tryFMA(as *clc.Assign, dst breg, rk clc.Kind) (breg, bool) {
	if as.Op != clc.AssignAdd || rk != clc.KindFloat || !dst.f {
		return breg{}, false
	}
	mul, ok := as.RHS.(*clc.Binary)
	if !ok || mul.Op != clc.BinMul {
		return breg{}, false
	}
	if mul.ResultType().Kind != clc.KindFloat {
		return breg{}, false
	}
	if promoteKind(mul.L.ResultType().Kind, mul.R.ResultType().Kind) != clc.KindFloat {
		return breg{}, false
	}
	if writesVars(mul.L) || writesVars(mul.R) {
		return breg{}, false
	}
	n := uint8(2)
	if canTrap(mul.L) || canTrap(mul.R) {
		lw.pay(0, 2)
		n = 0
	}
	x := lw.lowerConverted(mul.L, clc.KindFloat, mul.Pos())
	y := lw.lowerConverted(mul.R, clc.KindFloat, mul.Pos())
	lw.emit(instr{op: opFMAAF32, norm: n, dst: dst.idx, a: x.idx, b: y.idx})
	return dst, true
}

func (lw *lowerer) lowerIncDec(id *clc.IncDec, want bool) breg {
	rk := id.X.ResultType().Kind
	step := int64(1)
	if id.Decr {
		step = -1
	}
	// stepped emits old ± 1 into a new temporary, without statistics.
	stepped := func(old breg) breg {
		nv := lw.temp(old.f)
		if old.f {
			lw.emit(instr{op: opStepF, norm: normCodeFloat(rk), dst: nv.idx, a: old.idx, fimm: float64(step)})
		} else {
			lw.emit(instr{op: opStepI, norm: normCodeInt(rk), dst: nv.idx, a: old.idx, imm: step})
		}
		return nv
	}
	var old, nv breg
	switch x := id.X.(type) {
	case *clc.Ident:
		sym := x.Sym
		if sym == nil {
			lw.fail(x.Pos(), "interp: unresolved inc/dec target")
			return breg{}
		}
		if sym.IsLocal {
			// __local scalar: always an integer count, stepped by the
			// element kind.
			lw.pay(1, 0)
			old = lw.lowerIdentLoad(x)
			nv = stepped(old)
			lw.storeLocalScalar(sym, nv, x.Pos())
			break
		}
		dst := lw.varReg(sym, x.Pos())
		if !want || !id.Post {
			old = dst
		} else {
			old = lw.snapshot(dst)
		}
		if dst.f {
			lw.emit(instr{op: opIncDecF, norm: normCodeFloat(rk), dst: dst.idx, fimm: float64(step)})
		} else {
			lw.emit(instr{op: opIncDecI, norm: normCodeInt(rk), dst: dst.idx, imm: step})
		}
		nv = dst
	case *clc.Index:
		// The closure engine counts AluInt before evaluating the index,
		// for float elements too.
		ref := lw.memRefOf(x)
		lw.pay(1, 0)
		idx := lw.lowerExpr(x.Idx)
		old = lw.emitLoad(ref, idx)
		nv = stepped(old)
		lw.emitStore(ref, idx, nv)
	default:
		lw.fail(id.Pos(), "interp: invalid inc/dec target %T", id.X)
		return breg{}
	}
	if id.Post {
		return old
	}
	return nv
}

// tryFusedBackEdge fuses a counted loop's back-edge — post inc/dec of a
// scalar int variable followed by a compare of two scalar int variables
// — into a single opIncJCmpI, preserving the closure engine's exact
// per-iteration statistic order (post count, step, condition count,
// compare). The head condition instruction still runs once on entry, so
// the condition is evaluated iterations+1 times, like the tree walk.
func (lw *lowerer) tryFusedBackEdge(st *clc.ForStmt, bodyStart int) bool {
	id, ok := st.Post.(*clc.IncDec)
	if !ok {
		return false
	}
	tgt, ok := id.X.(*clc.Ident)
	if !ok || tgt.Sym == nil || tgt.Sym.IsLocal {
		return false
	}
	rk := id.X.ResultType().Kind
	if rk.IsFloat() {
		return false
	}
	cond, ok := st.Cond.(*clc.Binary)
	if !ok || !cond.Op.IsComparison() {
		return false
	}
	lk, rkk := cond.L.ResultType().Kind, cond.R.ResultType().Kind
	pk := promoteKind(lk, rkk)
	if pk.IsFloat() || lk != pk || rkk != pk {
		return false
	}
	lv, lok := scalarVarOperand(cond.L)
	rv, rok := scalarVarOperand(cond.R)
	if !lok || !rok {
		return false
	}
	dst := lw.varReg(tgt.Sym, tgt.Pos())
	if dst.f {
		return false
	}
	l, r := lw.varReg(lv, cond.L.Pos()), lw.varReg(rv, cond.R.Pos())
	if l.f || r.f {
		return false
	}
	step := int32(1)
	if id.Decr {
		step = -1
	}
	lw.emit(instr{
		op:   opIncJCmpI,
		norm: normCodeInt(rk)<<4 | cmpCode(cond.Op, pk.IsUnsigned()),
		dst:  dst.idx, c: step, a: l.idx, b: r.idx,
		imm: int64(bodyStart),
	})
	return true
}

// scalarVarOperand reports whether x is a plain scalar (non-__local,
// non-pointer) variable reference, whose register can be re-read on
// every loop iteration without re-emitting code.
func scalarVarOperand(x clc.Expr) (*clc.Symbol, bool) {
	id, ok := x.(*clc.Ident)
	if !ok || id.Sym == nil {
		return nil, false
	}
	sym := id.Sym
	if sym.IsLocal || sym.Type.Ptr || sym.ArrayLen > 0 {
		return nil, false
	}
	return sym, true
}
