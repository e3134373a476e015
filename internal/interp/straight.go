package interp

// This file lowers straight-line code — the 2-D stencils (2DCONV,
// FDTD1–3) spend a whole work-item in one such run — to few, fat
// instructions, without changing one observable:
//
//   - Shared subscript bases. A subscript built only from int32 + − ×,
//     integer literals and declaration-only variables (rebase) is split
//     into its non-constant polynomial part and a constant, with the
//     variables as opaque atoms of analysis.Poly. The first access of a
//     part after the last jump target computes it once, uncounted; later
//     accesses reuse its register and index n32(base + imm). Truncation to
//     int32 is a ring homomorphism, so that is exactly the value — and the
//     trap value — the unfused chain computes; each access pays its own
//     subscript's AluInt count before its bounds check.
//   - Load-operand float ops. A float32 load at base + imm that is the
//     last-evaluated operand of a float32 + − × fuses into the op
//     (opLdOpF32), and a stencil tap acc ± k·A[base + imm] into one
//     opTapF32.
//   - Constants. Literal expressions, and declaration-only locals
//     initialised from one, live in registers preloaded once per register
//     row (bcProgram.initI/initF); what evaluating them counts is paid
//     where they are evaluated.
//   - Guards compare against a register plus a constant (opJCmpIK).
//   - Runs of statistics pre-payments merge into one opStat, or into the
//     counts of the next instruction that pays before it can trap
//     (mergeStats).

import (
	"math"

	"dopia/internal/analysis"
	"dopia/internal/clc"
)

// subBase is a subscript base computed since the last jump target: the
// non-constant part of a canonical subscript and the register holding its
// int32 value.
type subBase struct {
	p   analysis.Poly
	reg int32
}

// kernelScan collects what the lowerer needs to know about the whole
// kernel before it emits anything.
type kernelScan struct {
	written map[*clc.Symbol]bool
	decls   []*clc.VarDecl
	lits    []clc.Expr // maximal literal expressions (foldConst)
}

func (s *kernelScan) stmt(st clc.Stmt) {
	switch x := st.(type) {
	case *clc.Block:
		for _, inner := range x.Stmts {
			s.stmt(inner)
		}
	case *clc.DeclStmt:
		for _, d := range x.Decls {
			s.decls = append(s.decls, d)
			if d.Init != nil {
				s.expr(d.Init)
			}
		}
	case *clc.ExprStmt:
		s.expr(x.X)
	case *clc.IfStmt:
		s.expr(x.Cond)
		s.stmt(x.Then)
		if x.Else != nil {
			s.stmt(x.Else)
		}
	case *clc.ForStmt:
		if x.Init != nil {
			s.stmt(x.Init)
		}
		if x.Cond != nil {
			s.expr(x.Cond)
		}
		if x.Post != nil {
			s.expr(x.Post)
		}
		s.stmt(x.Body)
	case *clc.WhileStmt:
		s.expr(x.Cond)
		s.stmt(x.Body)
	case *clc.DoWhileStmt:
		s.stmt(x.Body)
		s.expr(x.Cond)
	}
}

func (s *kernelScan) expr(x clc.Expr) {
	if _, _, _, ok := foldConst(x); ok {
		s.lits = append(s.lits, x)
		return
	}
	switch e := x.(type) {
	case *clc.Unary:
		s.expr(e.X)
	case *clc.Binary:
		s.expr(e.L)
		s.expr(e.R)
	case *clc.Cond:
		s.expr(e.C)
		s.expr(e.Then)
		s.expr(e.Else)
	case *clc.Index:
		s.expr(e.Idx)
	case *clc.Call:
		for _, a := range e.Args {
			s.expr(a)
		}
	case *clc.Cast:
		s.expr(e.X)
	case *clc.Assign:
		s.target(e.LHS)
		s.expr(e.RHS)
	case *clc.IncDec:
		s.target(e.X)
	}
}

func (s *kernelScan) target(x clc.Expr) {
	if id, ok := x.(*clc.Ident); ok {
		s.written[id.Sym] = true
		return
	}
	s.expr(x)
}

// scanKernel marks the declaration-only scalar slots (lw.declOnly): a
// parameter never written, or a local initialised at its declaration and
// never assigned or inc/dec'd. It returns the declaration-only locals
// initialised from a literal expression, which allocConsts turns into
// constant registers, and interns every literal's value.
func (lw *lowerer) scanKernel() []*clc.VarDecl {
	s := kernelScan{written: map[*clc.Symbol]bool{}}
	if lw.k.Body != nil {
		s.stmt(lw.k.Body)
	}
	scalar := func(sym *clc.Symbol) bool {
		return sym != nil && !sym.Type.Ptr && !sym.IsLocal && sym.ArrayLen == 0 &&
			sym.Slot >= 0 && sym.Slot < len(lw.slotReg) && !s.written[sym]
	}
	lw.declOnly = make([]bool, lw.k.NumSlots)
	for _, prm := range lw.k.Params {
		if scalar(prm.Sym) {
			lw.declOnly[prm.Sym.Slot] = true
		}
	}
	var folded []*clc.VarDecl
	lw.folded = map[*clc.Symbol]bool{}
	for _, d := range s.decls {
		if d.Init == nil || !scalar(d.Sym) {
			continue
		}
		lw.declOnly[d.Sym.Slot] = true
		if _, _, _, ok := foldConst(d.Init); ok {
			folded = append(folded, d)
			lw.folded[d.Sym] = true
		}
	}
	lw.constI, lw.constF = map[int64]int32{}, map[uint64]int32{}
	lw.lits = s.lits
	return folded
}

// allocConsts gives every literal value, and every folded declaration's
// value, one register after the variables'; a folded local's slot
// becomes that register.
func (lw *lowerer) allocConsts(folded []*clc.VarDecl) {
	var vi []int64
	var vf []float64
	intern := func(v Value, isF bool) int32 {
		if isF {
			bits := math.Float64bits(v.F)
			if r, ok := lw.constF[bits]; ok {
				return r
			}
			r := lw.baseF
			lw.baseF++
			lw.constF[bits] = r
			vf = append(vf, v.F)
			return r
		}
		if r, ok := lw.constI[v.I]; ok {
			return r
		}
		r := lw.baseI
		lw.baseI++
		lw.constI[v.I] = r
		vi = append(vi, v.I)
		return r
	}
	firstI, firstF := lw.baseI, lw.baseF
	for _, x := range lw.lits {
		v, _, _, _ := foldConst(x)
		intern(v, x.ResultType().Kind.IsFloat())
	}
	lw.lits = nil
	for _, d := range folded {
		v, _, _, _ := foldConst(d.Init)
		k := d.Sym.Type.Kind
		lw.slotReg[d.Sym.Slot] = intern(convertValue(v, d.Init.ResultType().Kind, k), k.IsFloat())
		lw.slotIsF[d.Sym.Slot] = k.IsFloat()
	}
	lw.initI = append(make([]int64, firstI), vi...)
	lw.initF = append(make([]float64, firstF), vf...)
}

// foldConst evaluates a literal expression — a literal under unary plus
// or minus and casts — at lowering time exactly as both engines evaluate
// it, with the ALU statistics its evaluation counts.
func foldConst(x clc.Expr) (v Value, aluI, aluF int64, ok bool) {
	switch e := x.(type) {
	case *clc.IntLit:
		return Value{I: e.Value}, 0, 0, true
	case *clc.FloatLit:
		return Value{F: normFloat(clc.KindFloat, e.Value)}, 0, 0, true
	case *clc.Unary:
		if e.Op != clc.UnaryPlus && e.Op != clc.UnaryNeg {
			return Value{}, 0, 0, false
		}
		v, aluI, aluF, ok = foldConst(e.X)
		if !ok || e.Op == clc.UnaryPlus {
			return v, aluI, aluF, ok
		}
		rk := e.ResultType().Kind
		if e.X.ResultType().Kind.IsFloat() {
			return Value{F: normFloat(rk, -v.F)}, aluI, aluF + 1, true
		}
		return Value{I: normInt(rk, -v.I)}, aluI + 1, aluF, true
	case *clc.Cast:
		v, aluI, aluF, ok = foldConst(e.X)
		return convertValue(v, e.X.ResultType().Kind, e.To.Kind), aluI, aluF, ok
	}
	return Value{}, 0, 0, false
}

// convertValue is the engines' scalar conversion (convert, emitConvert)
// applied to a known value.
func convertValue(v Value, from, to clc.Kind) Value {
	switch {
	case from == to:
		return v
	case from.IsInteger() && to.IsInteger():
		return Value{I: normInt(to, v.I)}
	case from.IsInteger() && to.IsFloat():
		if from == clc.KindULong {
			return Value{F: normFloat(to, float64(uint64(v.I)))}
		}
		return Value{F: normFloat(to, float64(v.I))}
	case from.IsFloat() && to.IsInteger():
		return Value{I: normInt(to, int64(v.F))}
	}
	return Value{F: normFloat(to, v.F)}
}

// constReg returns the preloaded register of x's value when x is an
// interned literal expression.
func (lw *lowerer) constReg(x clc.Expr) (r breg, aluI, aluF int64, ok bool) {
	v, aluI, aluF, ok := foldConst(x)
	if !ok {
		return breg{}, 0, 0, false
	}
	if x.ResultType().Kind.IsFloat() {
		idx, ok := lw.constF[math.Float64bits(v.F)]
		return breg{idx: idx, f: true}, aluI, aluF, ok
	}
	idx, ok := lw.constI[v.I]
	return breg{idx: idx}, aluI, aluF, ok
}

// lowerConst lowers an interned literal expression to its constant
// register, paying what its evaluation counts.
func (lw *lowerer) lowerConst(x clc.Expr) (breg, bool) {
	r, aluI, aluF, ok := lw.constReg(x)
	if ok {
		lw.pay(aluI, aluF)
	}
	return r, ok
}

// pay emits a statistics pre-payment.
func (lw *lowerer) pay(aluI, aluF int64) {
	if aluI != 0 || aluF != 0 {
		lw.emit(instr{op: opStat, c: int32(aluI), k: int32(aluF)})
	}
}

// here returns the pc of the next instruction as a jump target. A path
// may arrive there without running the code before it, so the subscript
// bases computed so far are forgotten.
func (lw *lowerer) here() int {
	lw.bases, lw.keepI = lw.bases[:0], 0
	lw.label = len(lw.code)
	return lw.label
}

// isTemp reports whether r is an expression temporary (not a variable's
// or a constant's register).
func (lw *lowerer) isTemp(r breg) bool {
	if r.f {
		return !r.varRef && r.idx >= lw.baseF
	}
	return !r.varRef && r.idx >= lw.baseI
}

// retarget makes the instruction that just produced the temporary src
// write dst itself, in place of a move, when no jump target lies between.
func (lw *lowerer) retarget(dst, src breg) bool {
	n := len(lw.code) - 1
	if n < lw.label || dst.f != src.f || !lw.isTemp(src) || lw.code[n].dst != src.idx {
		return false
	}
	switch lw.code[n].op {
	case opWISta, opWIDyn, opConstI, opMovI, opAddI, opSubI, opMulI, opMulAddI,
		opF2I, opLdGI32, opLdGI64:
		if src.f {
			return false
		}
	case opConstF, opMovF, opI2F, opAddF, opSubF, opMulF, opDivF, opNegF,
		opMath1, opMath2, opLdGF32, opLdGF64, opLdGF32K, opLdOpF32:
		if !src.f {
			return false
		}
	default:
		return false
	}
	lw.code[n].dst = dst.idx
	return true
}

// subscriptPoly canonicalises x when it is built only from int32 + − ×,
// int32 literals and declaration-only int32 variables; n counts the
// operations, the AluInt the closure engine counts evaluating x.
func (lw *lowerer) subscriptPoly(x clc.Expr) (p analysis.Poly, n int32, ok bool) {
	if x.ResultType().Kind != clc.KindInt {
		return p, 0, false
	}
	switch e := x.(type) {
	case *clc.IntLit:
		return analysis.ConstPoly(e.Value), 0, true
	case *clc.Ident:
		sym := e.Sym
		if sym == nil || sym.IsLocal || sym.Type.Ptr || sym.ArrayLen > 0 || !lw.declOnly[sym.Slot] {
			return p, 0, false
		}
		if lw.folded[sym] {
			return analysis.ConstPoly(lw.initI[lw.slotReg[sym.Slot]]), 0, true
		}
		return analysis.AtomPoly(sym.Slot), 0, true
	case *clc.Binary:
		if e.Op != clc.BinAdd && e.Op != clc.BinSub && e.Op != clc.BinMul {
			return p, 0, false
		}
		l, nl, ok := lw.subscriptPoly(e.L)
		if !ok {
			return p, 0, false
		}
		r, nr, ok := lw.subscriptPoly(e.R)
		if !ok {
			return p, 0, false
		}
		switch e.Op {
		case clc.BinAdd:
			p = l.Add(r)
		case clc.BinSub:
			p = l.Sub(r)
		default:
			p = l.Mul(r)
		}
		return p, nl + nr + 1, p.Known()
	}
	return p, 0, false
}

// rebasable reports whether rebase accepts subscript x.
func (lw *lowerer) rebasable(x clc.Expr) bool {
	p, n, ok := lw.subscriptPoly(x)
	if !ok || n == 0 {
		return false
	}
	rest, _ := p.SplitConst()
	return len(rest.Monomials()) > 0
}

// rebase lowers subscript x (rebasable) to a shared base register plus a
// constant, computing the base on its first use since the last jump
// target; n is the subscript's own AluInt count.
func (lw *lowerer) rebase(x clc.Expr) (base int32, imm int64, n int32) {
	p, n, _ := lw.subscriptPoly(x)
	rest, imm := p.SplitConst()
	for _, b := range lw.bases {
		if b.p.Equal(rest) {
			return b.reg, imm, n
		}
	}
	base = lw.emitBase(rest)
	lw.bases = append(lw.bases, subBase{p: rest, reg: base})
	return base, imm, n
}

// emitBase computes polynomial p into a register with uncounted int32
// operations: one add or subtract from a base in hand that differs by
// one atom, the atom's own register, or the sum of its monomials (a
// leading a*b + c as one multiply-add).
func (lw *lowerer) emitBase(p analysis.Poly) int32 {
	atom := func(slot int) int32 { return lw.slotReg[slot] }
	for _, b := range lw.bases {
		d := p.Sub(b.p).Monomials()
		if len(d) == 1 && len(d[0].Atoms) == 1 && (d[0].K == 1 || d[0].K == -1) {
			op := opAddI
			if d[0].K < 0 {
				op = opSubI
			}
			t := lw.keepTemp()
			lw.emit(instr{op: op, norm: normI32, dst: t, a: b.reg, b: atom(d[0].Atoms[0])})
			return t
		}
	}
	ms := p.Monomials()
	if len(ms) == 1 && len(ms[0].Atoms) == 1 && ms[0].K == 1 {
		return atom(ms[0].Atoms[0])
	}
	bin := func(op opcode, a, b int32) int32 {
		t := lw.tempI().idx
		lw.emit(instr{op: op, norm: normI32, dst: t, a: a, b: b})
		return t
	}
	acc := int32(-1)
	for i := 0; i < len(ms); i++ {
		m := ms[i]
		if acc < 0 && m.K == 1 && len(m.Atoms) == 2 && i+1 < len(ms) && ms[i+1].K == 1 && len(ms[i+1].Atoms) == 1 {
			acc = lw.tempI().idx
			lw.emit(instr{op: opMulAddI, dst: acc, a: atom(m.Atoms[0]), b: atom(m.Atoms[1]), c: atom(ms[i+1].Atoms[0])})
			i++
			continue
		}
		r := atom(m.Atoms[0])
		for _, a := range m.Atoms[1:] {
			r = bin(opMulI, r, atom(a))
		}
		k := m.K
		if k != 1 && k != -1 && acc >= 0 {
			r, k = bin(opMulI, r, lw.intReg(max(k, -k))), k/max(k, -k)
		}
		switch {
		case acc >= 0 && k > 0:
			acc = bin(opAddI, acc, r)
		case acc >= 0:
			acc = bin(opSubI, acc, r)
		case k == 1:
			acc = r
		case k == -1:
			acc = lw.tempI().idx
			lw.emit(instr{op: opNegI, norm: normI32, dst: acc, a: r})
		default:
			acc = bin(opMulI, r, lw.intReg(k))
		}
	}
	lw.keepI = max(lw.keepI, acc+1)
	return acc
}

// keepTemp allocates an int temporary that survives statement ends until
// the next jump target.
func (lw *lowerer) keepTemp() int32 {
	t := lw.tempI().idx
	lw.keepI = max(lw.keepI, t+1)
	return t
}

// intReg returns a register holding v: its constant register, or a
// temporary loaded with it.
func (lw *lowerer) intReg(v int64) int32 {
	if r, ok := lw.constI[v]; ok {
		return r
	}
	t := lw.tempI().idx
	lw.emit(instr{op: opConstI, dst: t, imm: v})
	return t
}

// dropBases forgets the bases that read sym, whose declaration is about
// to (re)define it.
func (lw *lowerer) dropBases(sym *clc.Symbol) {
	kept := lw.bases[:0]
	for _, b := range lw.bases {
		if !mentions(b.p, sym.Slot) {
			kept = append(kept, b)
		}
	}
	lw.bases = kept
}

func mentions(p analysis.Poly, slot int) bool {
	for _, m := range p.Monomials() {
		for _, a := range m.Atoms {
			if a == slot {
				return true
			}
		}
	}
	return false
}

// f32Load reports whether x is a float32 global load at a rebasable
// subscript.
func (lw *lowerer) f32Load(x clc.Expr) (*clc.Index, bool) {
	ix, ok := x.(*clc.Index)
	if !ok {
		return nil, false
	}
	base, ok := ix.Base.(*clc.Ident)
	if !ok || base.Sym == nil || base.Sym.Class != clc.SymParam || !base.Sym.Type.Ptr ||
		base.Sym.Type.Kind != clc.KindFloat {
		return nil, false
	}
	return ix, lw.rebasable(ix.Idx)
}

// registerOperand reports whether x lowers to a register with no code
// but a pre-payment: a scalar variable or an interned literal.
func (lw *lowerer) registerOperand(x clc.Expr) bool {
	if _, ok := scalarVarOperand(x); ok {
		return true
	}
	_, _, _, ok := lw.constReg(x)
	return ok
}

// emitRebasedLoad emits op for the float32 load ix at its shared base,
// paying aluF and the subscript's AluInt before the bounds check.
func (lw *lowerer) emitRebasedLoad(op opcode, norm uint8, dst, b int32, ix *clc.Index, aluF int32) {
	ref := lw.memRefOf(ix)
	base, imm, n := lw.rebase(ix.Idx)
	lw.emit(instr{op: op, norm: norm, dst: dst, a: base, b: b, imm: imm, c: n, k: aluF,
		slot: ref.argIndex, site: ref.site, pos: ref.pos})
}

// tryLoadOperand fuses float32 `l op R` (op + − ×, l already lowered, c
// the op's own count) when R is a rebasable float32 load (opLdOpF32), or
// when op is + or − and R is k·A[...] with k a register operand
// (opTapF32). The closure engine counts R's multiply, reads k and counts
// the subscript before A's bounds check, which is where the instruction
// pays them.
func (lw *lowerer) tryLoadOperand(b *clc.Binary, pk clc.Kind, l breg, c int32) (breg, bool) {
	if pk != clc.KindFloat || b.R.ResultType().Kind != clc.KindFloat {
		return breg{}, false
	}
	var op uint8
	switch b.Op {
	case clc.BinAdd:
	case clc.BinSub:
		op = 1
	case clc.BinMul:
		op = 2
	default:
		return breg{}, false
	}
	if m, ok := b.R.(*clc.Binary); ok && op < 2 && m.Op == clc.BinMul &&
		m.L.ResultType().Kind == clc.KindFloat && lw.registerOperand(m.L) {
		if ix, ok := lw.f32Load(m.R); ok {
			k := lw.lowerExpr(m.L)
			acc := l
			if !lw.isTemp(l) {
				acc = lw.tempF()
				lw.emit(instr{op: opMovF, dst: acc.idx, a: l.idx})
			}
			lw.emitRebasedLoad(opTapF32, op, acc.idx, k.idx, ix, c+1)
			return acc, true
		}
	}
	if ix, ok := lw.f32Load(b.R); ok {
		t := lw.tempF()
		lw.emitRebasedLoad(opLdOpF32, op, t.idx, l.idx, ix, c)
		return t, true
	}
	return breg{}, false
}

// storeIndex lowers a plain store's subscript. A global store at a
// rebasable subscript counts it where the closure engine evaluates it
// and indexes its shared base, plus the constant when there is one.
func (lw *lowerer) storeIndex(ref bcRef, x clc.Expr) breg {
	if ref.argIndex < 0 || !lw.rebasable(x) {
		return lw.lowerExpr(x)
	}
	base, imm, n := lw.rebase(x)
	lw.pay(int64(n), 0)
	if imm == 0 && base >= lw.baseI {
		// A computed base is int32 already; an atom's register need not
		// be (a work-item id past 2³¹), so it goes through n32 below.
		return breg{idx: base}
	}
	t := lw.tempI()
	lw.emit(instr{op: opStepI, norm: normI32, dst: t.idx, a: base, imm: imm})
	return t
}

// offsetOperand recognises a compare operand v ± lit over int32, which
// opJCmpIK forms itself as n32(ir[v] + k).
func (lw *lowerer) offsetOperand(x clc.Expr, pk clc.Kind) (reg, k int32, ok bool) {
	b, isBin := x.(*clc.Binary)
	if !isBin || pk != clc.KindInt || (b.Op != clc.BinAdd && b.Op != clc.BinSub) ||
		b.L.ResultType().Kind != clc.KindInt || b.R.ResultType().Kind != clc.KindInt {
		return 0, 0, false
	}
	sym, isVar := scalarVarOperand(b.L)
	lit, isLit := b.R.(*clc.IntLit)
	if !isVar || !isLit {
		return 0, 0, false
	}
	v := lit.Value
	if b.Op == clc.BinSub {
		v = -v
	}
	r := lw.varReg(sym, b.L.Pos())
	if r.f || v != int64(int32(v)) {
		return 0, 0, false
	}
	return r.idx, int32(v), true
}

// mergeStats sinks each opStat forward over instructions that can neither
// trap nor jump, into the next opStat or into the counts of the next
// instruction that pays them before it can trap. No jump target may lie
// on the way, so every path and every trap point sees the totals the
// unmerged code counts.
func mergeStats(code []instr) []instr {
	target := make([]bool, len(code)+1)
	for i := range code {
		if isJump(code[i].op) {
			target[code[i].imm] = true
		}
	}
	drop := make([]bool, len(code))
	dropped := 0
	for p := range code {
		s := code[p]
		if s.op != opStat {
			continue
		}
		for q := p + 1; q < len(code) && !target[q]; q++ {
			in := &code[q]
			merged := true
			switch {
			case in.op == opStat || in.op == opLdGF32K || in.op == opLdOpF32 || in.op == opTapF32:
				in.c += s.c
				in.k += s.k
			case (in.op == opJCmpI || in.op == opJCmpIK) && s.k == 0:
				in.c += s.c
			case in.op == opJCmpF && s.c == 0:
				in.c += s.k
			default:
				merged = false
			}
			if merged {
				drop[p] = true
				dropped++
				break
			}
			if !inert(in.op) {
				break
			}
		}
	}
	if dropped == 0 {
		return code
	}
	newPC := make([]int, len(code)+1)
	out := make([]instr, 0, len(code)-dropped)
	for i := range code {
		newPC[i] = len(out)
		if !drop[i] {
			out = append(out, code[i])
		}
	}
	newPC[len(code)] = len(out)
	for i := range out {
		if isJump(out[i].op) {
			out[i].imm = int64(newPC[out[i].imm])
		}
	}
	return out
}

// isJump reports whether op's imm is a jump target.
func isJump(op opcode) bool {
	switch op {
	case opJmp, opJmpZI, opJmpNZI, opJmpZF, opJmpNZF, opJCmpI, opJCmpF, opJCmpIK, opIncJCmpI:
		return true
	}
	return false
}

// inert reports whether op can neither trap nor jump, so a count may move
// across it.
func inert(op opcode) bool {
	switch op {
	case opConstI, opConstF, opMovI, opMovF, opI2F, opF2I,
		opAddI, opSubI, opMulI, opMulAddI, opShlI, opShrI, opShrU, opAndI, opOrI, opXorI,
		opNegI, opBitNotI, opIncDecI, opStepI, opCmpI, opNotI, opNotF, opMinMaxI, opAbsI,
		opAddF, opSubF, opMulF, opDivF, opFMAAF32, opNegF, opIncDecF, opStepF, opCmpF,
		opMinMaxF, opMath1, opMath2, opWISta, opWIDyn:
		return true
	}
	return false
}
