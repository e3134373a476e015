package analysis

import "dopia/internal/clc"

// The profile-input analysis: which buffers' contents can change what a
// sampled profile observes. A profile counts the operations each
// work-item executes and classifies the address deltas of its accesses,
// so a buffer matters exactly when a value loaded from it can reach
//
//   - an index (it moves an address, or traps out of bounds),
//   - an if, loop or ternary condition, or a && / || operand (it decides
//     which operations run),
//   - an integer divisor (it decides whether the work-item traps).
//
// Everything else a loaded value can do — feed arithmetic, be stored,
// reach a float divisor — changes results, never the profile.
//
// The analysis is a flow-insensitive taint fixpoint. Every variable,
// __local or private array and buffer parameter carries the set of buffer
// slots its values may derive from; a buffer starts out holding itself.
// An assignment, an indexed store or an atomic adds the stored value's set
// to its target, an atomic's return value carries its target's set, and
// the walk repeats until no set grows. A buffer the kernel writes and
// reads back therefore carries whatever was stored into it. Implicit flows
// need no tracking: a value that depends on a buffer only through control
// flow depends on a condition, and that condition's buffers are inputs
// already.

// taint is a set of buffer parameter slots, one bit per slot.
type taint uint64

// maxTaintSlots is the widest parameter list taint can represent; a
// kernel with more parameters makes every buffer an input.
const maxTaintSlots = 64

// taintWalk is the state of one fixpoint.
type taintWalk struct {
	sets    map[*clc.Symbol]taint
	inputs  taint // the union of every set that reached a sink
	changed bool
}

// profileInputs computes Result.ProfileInputs for a checked kernel.
func profileInputs(k *clc.Kernel) []int {
	w := &taintWalk{sets: map[*clc.Symbol]taint{}}
	var bufs []int
	for _, p := range k.Params {
		if p.Type.Ptr && p.Sym != nil {
			bufs = append(bufs, p.Sym.Slot)
		}
	}
	if len(k.Params) > maxTaintSlots {
		return bufs
	}
	for _, slot := range bufs {
		w.sets[k.Params[slot].Sym] = 1 << slot
	}
	for changed := k.Body != nil; changed; changed = w.changed {
		w.changed = false
		w.stmt(k.Body)
	}
	var out []int
	for _, slot := range bufs {
		if w.inputs&(1<<slot) != 0 {
			out = append(out, slot)
		}
	}
	return out
}

// flow adds t to the set of sym.
func (w *taintWalk) flow(sym *clc.Symbol, t taint) {
	if sym == nil {
		return
	}
	if old := w.sets[sym]; old|t != old {
		w.sets[sym] = old | t
		w.changed = true
	}
}

// sink records that values carrying t reach the profile.
func (w *taintWalk) sink(t taint) { w.inputs |= t }

func (w *taintWalk) stmt(s clc.Stmt) {
	switch st := s.(type) {
	case *clc.Block:
		for _, s := range st.Stmts {
			w.stmt(s)
		}
	case *clc.DeclStmt:
		for _, d := range st.Decls {
			if d.Init != nil {
				w.flow(d.Sym, w.expr(d.Init))
			}
		}
	case *clc.ExprStmt:
		w.expr(st.X)
	case *clc.IfStmt:
		w.sink(w.expr(st.Cond))
		w.stmt(st.Then)
		if st.Else != nil {
			w.stmt(st.Else)
		}
	case *clc.ForStmt:
		if st.Init != nil {
			w.stmt(st.Init)
		}
		if st.Cond != nil {
			w.sink(w.expr(st.Cond))
		}
		if st.Post != nil {
			w.expr(st.Post)
		}
		w.stmt(st.Body)
	case *clc.WhileStmt:
		w.sink(w.expr(st.Cond))
		w.stmt(st.Body)
	case *clc.DoWhileStmt:
		w.stmt(st.Body)
		w.sink(w.expr(st.Cond))
	}
}

// expr returns the set of x's value, recording the sinks inside x and
// the flows of its assignments.
func (w *taintWalk) expr(x clc.Expr) taint {
	switch e := x.(type) {
	case *clc.Ident:
		return w.sets[e.Sym]
	case *clc.Unary:
		return w.expr(e.X)
	case *clc.Cast:
		return w.expr(e.X)
	case *clc.Binary:
		l, r := w.expr(e.L), w.expr(e.R)
		switch {
		case e.Op.IsLogical():
			w.sink(l | r)
		case e.Op == clc.BinDiv || e.Op == clc.BinRem:
			w.divisor(e.ResultType(), r)
		}
		return l | r
	case *clc.Cond:
		c := w.expr(e.C)
		w.sink(c)
		return c | w.expr(e.Then) | w.expr(e.Else)
	case *clc.Index:
		return w.sets[baseSym(e)] | w.index(e)
	case *clc.Call:
		var t taint
		for _, arg := range e.Args {
			t |= w.expr(arg)
		}
		if b := e.Builtin; b != nil && (b.Kind == clc.BuiltinAtomic || b.Kind == clc.BuiltinAtomic2) {
			// The target (a bare pointer or __local array) reads as its
			// own set; the operand is stored into it.
			if id, ok := e.Args[0].(*clc.Ident); ok {
				w.flow(id.Sym, t)
				t |= w.sets[id.Sym]
			}
		}
		return t
	case *clc.Assign:
		rhs := w.expr(e.RHS)
		if e.Op == clc.AssignDiv || e.Op == clc.AssignRem {
			w.divisor(e.LHS.ResultType(), rhs)
		}
		var sym *clc.Symbol
		switch lhs := e.LHS.(type) {
		case *clc.Ident:
			sym = lhs.Sym
		case *clc.Index:
			sym = baseSym(lhs)
			rhs |= w.index(lhs)
		}
		if e.Op != clc.AssignPlain {
			rhs |= w.sets[sym]
		}
		w.flow(sym, rhs)
		return rhs
	case *clc.IncDec:
		switch t := e.X.(type) {
		case *clc.Ident:
			return w.sets[t.Sym]
		case *clc.Index:
			return w.sets[baseSym(t)] | w.index(t)
		}
	}
	return 0
}

// index walks an Index's subscript, a sink, and returns its set.
func (w *taintWalk) index(ix *clc.Index) taint {
	t := w.expr(ix.Idx)
	w.sink(t)
	return t
}

// divisor sinks the divisor of an integer division or remainder: a zero
// traps. A float divisor cannot.
func (w *taintWalk) divisor(typ clc.Type, t taint) {
	if !typ.Kind.IsFloat() {
		w.sink(t)
	}
}

// baseSym is the pointer, __local or private array an Index addresses.
func baseSym(ix *clc.Index) *clc.Symbol {
	if id, ok := ix.Base.(*clc.Ident); ok {
		return id.Sym
	}
	return nil
}
