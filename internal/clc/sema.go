package clc

import "fmt"

// Check performs name resolution and type checking on a parsed program.
// After a successful Check every expression node carries its result type,
// every Ident its Symbol, every Index a unique memory-site id, and every
// loop a dense LoopID. These annotations are what the analysis,
// transformation, and interpretation stages consume.
func Check(prog *Program) error {
	c := &checker{}
	names := map[string]bool{}
	for _, k := range prog.Kernels {
		if names[k.Name] {
			c.errorf(k.Pos(), "duplicate kernel name %q", k.Name)
		}
		names[k.Name] = true
		c.checkKernel(k)
	}
	return c.errs.Err()
}

type scope struct {
	parent *scope
	syms   map[string]*Symbol
}

func (s *scope) lookup(name string) *Symbol {
	for sc := s; sc != nil; sc = sc.parent {
		if sym, ok := sc.syms[name]; ok {
			return sym
		}
	}
	return nil
}

type checker struct {
	errs     ErrorList
	kernel   *Kernel
	scope    *scope
	nextSlot int
	nextSite int
	nextLoop int
	loopDep  int
}

func (c *checker) errorf(pos Pos, format string, args ...any) {
	c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (c *checker) push() { c.scope = &scope{parent: c.scope, syms: map[string]*Symbol{}} }
func (c *checker) pop()  { c.scope = c.scope.parent }

func (c *checker) declare(name string, pos Pos, sym *Symbol) {
	if _, exists := c.scope.syms[name]; exists {
		c.errorf(pos, "redeclaration of %q in the same scope", name)
		return
	}
	c.scope.syms[name] = sym
}

func (c *checker) checkKernel(k *Kernel) {
	c.kernel = k
	c.scope = nil
	c.nextSlot = 0
	c.nextSite = 0
	c.nextLoop = 0
	c.loopDep = 0
	k.Locals = nil
	c.push()
	for _, prm := range k.Params {
		if prm.Type.Kind == KindVoid {
			c.errorf(prm.Pos(), "parameter %q has void type", prm.Name)
		}
		sym := &Symbol{Name: prm.Name, Type: prm.Type, Class: SymParam, Slot: c.nextSlot}
		c.nextSlot++
		prm.Sym = sym
		c.declare(prm.Name, prm.Pos(), sym)
	}
	if k.Body != nil {
		// Barriers are only legal at the top level of the kernel body.
		c.checkBlockStmts(k.Body, true)
	}
	k.NumSlots = c.nextSlot
	c.pop()
}

func (c *checker) checkBlockStmts(b *Block, topLevel bool) {
	c.push()
	for _, s := range b.Stmts {
		c.checkStmt(s, topLevel)
	}
	c.pop()
}

func (c *checker) checkStmt(s Stmt, topLevel bool) {
	switch st := s.(type) {
	case *Block:
		c.checkBlockStmts(st, false)
	case *DeclStmt:
		c.checkDecl(st)
	case *ExprStmt:
		c.checkExpr(st.X)
	case *IfStmt:
		c.checkCondExpr(st.Cond)
		c.checkStmt(st.Then, false)
		if st.Else != nil {
			c.checkStmt(st.Else, false)
		}
	case *ForStmt:
		c.push()
		if st.Init != nil {
			c.checkStmt(st.Init, false)
		}
		if st.Cond != nil {
			c.checkCondExpr(st.Cond)
		}
		if st.Post != nil {
			c.checkExpr(st.Post)
		}
		st.LoopID = c.nextLoop
		c.nextLoop++
		c.loopDep++
		c.checkStmt(st.Body, false)
		c.loopDep--
		c.pop()
	case *WhileStmt:
		c.checkCondExpr(st.Cond)
		st.LoopID = c.nextLoop
		c.nextLoop++
		c.loopDep++
		c.checkStmt(st.Body, false)
		c.loopDep--
	case *DoWhileStmt:
		st.LoopID = c.nextLoop
		c.nextLoop++
		c.loopDep++
		c.checkStmt(st.Body, false)
		c.loopDep--
		c.checkCondExpr(st.Cond)
	case *ReturnStmt, *BreakStmt, *ContinueStmt:
		if _, isBrk := s.(*BreakStmt); isBrk && c.loopDep == 0 {
			c.errorf(s.Pos(), "break outside loop")
		}
		if _, isCont := s.(*ContinueStmt); isCont && c.loopDep == 0 {
			c.errorf(s.Pos(), "continue outside loop")
		}
	case *BarrierStmt:
		if !topLevel {
			c.errorf(st.Pos(), "barrier() is only supported at the top level of a kernel body")
		}
	default:
		c.errorf(s.Pos(), "unhandled statement type %T", s)
	}
}

func (c *checker) checkDecl(ds *DeclStmt) {
	for _, d := range ds.Decls {
		t := d.Type
		if d.ArrayLen > 0 && t.Ptr {
			c.errorf(d.NamePos, "array of pointers is not supported")
		}
		sym := &Symbol{
			Name:     d.Name,
			Type:     t,
			Class:    SymLocalVar,
			Slot:     c.nextSlot,
			ArrayLen: d.ArrayLen,
			IsLocal:  d.IsLocal,
		}
		c.nextSlot++
		d.Sym = sym
		c.kernel.Locals = append(c.kernel.Locals, sym)
		if d.Init != nil {
			switch {
			case d.ArrayLen > 0:
				c.errorf(d.NamePos, "array initializers are not supported")
			case d.IsLocal:
				// OpenCL C forbids it: the variable is shared by the
				// work-group, and the interpreter zeroes it per group.
				c.errorf(d.NamePos, "__local variables cannot have initializers")
			}
			it := c.checkExpr(d.Init)
			if !assignable(t, it) {
				c.errorf(d.NamePos, "cannot initialize %s %q with %s", t, d.Name, it)
			}
		}
		c.declare(d.Name, d.NamePos, sym)
	}
}

// assignable reports whether a value of type from can be assigned to a
// variable of type to (with implicit scalar conversion).
func assignable(to, from Type) bool {
	if to.Ptr || from.Ptr {
		return to.Ptr && from.Ptr && to.Kind == from.Kind
	}
	return to.IsNumeric() && from.IsNumeric()
}

func (c *checker) checkCondExpr(x Expr) {
	t := c.checkExpr(x)
	if t.Ptr || t.Kind == KindVoid {
		c.errorf(x.Pos(), "condition must be a scalar, got %s", t)
	}
}

// checkExpr type-checks x and returns its result type, annotating nodes.
func (c *checker) checkExpr(x Expr) Type {
	switch e := x.(type) {
	case *IntLit:
		e.T = TypeInt
		return e.T
	case *FloatLit:
		e.T = TypeFloat
		return e.T
	case *Ident:
		sym := c.scope.lookup(e.Name)
		if sym == nil {
			c.errorf(e.Pos(), "undeclared identifier %q", e.Name)
			e.T = TypeInt
			return e.T
		}
		e.Sym = sym
		if sym.ArrayLen > 0 {
			// Array-to-pointer decay.
			space := SpacePrivate
			if sym.IsLocal {
				space = SpaceLocal
			}
			e.T = Type{Kind: sym.Type.Kind, Ptr: true, Space: space}
		} else {
			e.T = sym.Type
		}
		return e.T
	case *Unary:
		xt := c.checkExpr(e.X)
		switch e.Op {
		case UnaryNeg, UnaryPlus:
			if !xt.IsNumeric() {
				c.errorf(e.Pos(), "invalid operand %s to unary %s", xt, e.Op)
			}
			e.T = xt
		case UnaryNot:
			if xt.Ptr {
				c.errorf(e.Pos(), "invalid operand %s to unary !", xt)
			}
			e.T = TypeInt
		case UnaryBitNot:
			if !xt.IsNumeric() || xt.Kind.IsFloat() {
				c.errorf(e.Pos(), "invalid operand %s to unary ~", xt)
			}
			e.T = xt
		}
		return e.T
	case *Binary:
		lt := c.checkExpr(e.L)
		rt := c.checkExpr(e.R)
		if e.Op.IsLogical() {
			e.T = TypeInt
			return e.T
		}
		if lt.Ptr || rt.Ptr {
			if e.Op == BinEq || e.Op == BinNe {
				e.T = TypeInt
				return e.T
			}
			c.errorf(e.Pos(), "invalid pointer operands to %s", e.Op)
			e.T = TypeInt
			return e.T
		}
		pk := promote(lt.Kind, rt.Kind)
		switch e.Op {
		case BinRem, BinShl, BinShr, BinAnd, BinOr, BinXor:
			if pk.IsFloat() {
				c.errorf(e.Pos(), "operator %s requires integer operands", e.Op)
				pk = KindInt
			}
		}
		if e.Op.IsComparison() {
			e.T = TypeInt
		} else {
			e.T = Type{Kind: pk}
		}
		return e.T
	case *Cond:
		c.checkCondExpr(e.C)
		tt := c.checkExpr(e.Then)
		et := c.checkExpr(e.Else)
		if tt.Ptr || et.Ptr {
			if tt != et {
				c.errorf(e.Pos(), "mismatched ternary branches %s and %s", tt, et)
			}
			e.T = tt
		} else {
			e.T = Type{Kind: promote(tt.Kind, et.Kind)}
		}
		return e.T
	case *Index:
		bt := c.checkExpr(e.Base)
		it := c.checkExpr(e.Idx)
		if !bt.Ptr {
			c.errorf(e.Pos(), "subscripted value is not a pointer (got %s)", bt)
			e.T = TypeInt
			return e.T
		}
		if _, ok := e.Base.(*Ident); !ok {
			c.errorf(e.Pos(), "subscript base must be a named pointer or array")
		}
		if it.Ptr || !it.Kind.IsInteger() {
			c.errorf(e.Idx.Pos(), "array index must be an integer, got %s", it)
		}
		e.Space = bt.Space
		e.Site = c.nextSite
		c.nextSite++
		e.T = Type{Kind: bt.Kind}
		return e.T
	case *Call:
		return c.checkCall(e)
	case *Cast:
		c.checkExpr(e.X)
		if e.To.Ptr {
			c.errorf(e.Pos(), "pointer casts are not supported")
		}
		e.T = e.To
		return e.T
	case *Assign:
		lt := c.checkLValue(e.LHS)
		rt := c.checkExpr(e.RHS)
		if !assignable(lt, rt) {
			c.errorf(e.Pos(), "cannot assign %s to %s", rt, lt)
		}
		if op, ok := e.Op.BinOp(); ok {
			switch op {
			case BinRem, BinShl, BinShr, BinAnd, BinOr, BinXor:
				if lt.Kind.IsFloat() || rt.Kind.IsFloat() {
					c.errorf(e.Pos(), "operator %s requires integer operands", e.Op)
				}
			}
		}
		e.T = lt
		return e.T
	case *IncDec:
		lt := c.checkLValue(e.X)
		if !lt.IsNumeric() {
			c.errorf(e.Pos(), "cannot increment value of type %s", lt)
		}
		e.T = lt
		return e.T
	}
	c.errorf(x.Pos(), "unhandled expression type %T", x)
	return TypeInt
}

// checkLValue checks an assignment target and returns its type.
func (c *checker) checkLValue(x Expr) Type {
	switch e := x.(type) {
	case *Ident:
		t := c.checkExpr(e)
		if e.Sym != nil && e.Sym.ArrayLen > 0 {
			c.errorf(e.Pos(), "cannot assign to array %q", e.Name)
		}
		if t.Ptr {
			c.errorf(e.Pos(), "assignment to pointer %q is not supported", e.Name)
		}
		return t
	case *Index:
		return c.checkExpr(e)
	}
	c.errorf(x.Pos(), "expression is not assignable")
	return c.checkExpr(x)
}

func (c *checker) checkCall(e *Call) Type {
	b := LookupBuiltin(e.Name)
	if b == nil {
		c.errorf(e.Pos(), "unknown function %q (user-defined functions are not in the subset)", e.Name)
		e.T = TypeInt
		return e.T
	}
	e.Builtin = b
	argTypes := make([]Type, len(e.Args))
	for i, a := range e.Args {
		argTypes[i] = c.checkExpr(a)
	}
	wantArgs := func(n int) bool {
		if len(e.Args) != n {
			c.errorf(e.Pos(), "%s expects %d argument(s), got %d", e.Name, n, len(e.Args))
			return false
		}
		return true
	}
	switch b.Kind {
	case BuiltinWorkItem:
		if e.Name == "get_work_dim" {
			wantArgs(0)
		} else if wantArgs(1) {
			if argTypes[0].Ptr || !argTypes[0].Kind.IsInteger() {
				c.errorf(e.Args[0].Pos(), "%s dimension must be an integer", e.Name)
			}
		}
		e.T = TypeInt
	case BuiltinMath:
		if wantArgs(1) && argTypes[0].Ptr {
			c.errorf(e.Args[0].Pos(), "%s requires a scalar argument", e.Name)
		}
		e.T = TypeFloat
	case BuiltinMath2:
		if wantArgs(2) {
			for i := range e.Args {
				if argTypes[i].Ptr {
					c.errorf(e.Args[i].Pos(), "%s requires scalar arguments", e.Name)
				}
			}
		}
		e.T = TypeFloat
	case BuiltinIntMinMax:
		if wantArgs(2) {
			for i := range e.Args {
				if argTypes[i].Ptr {
					c.errorf(e.Args[i].Pos(), "%s requires scalar arguments", e.Name)
				}
			}
			e.T = Type{Kind: promote(argTypes[0].Kind, argTypes[1].Kind)}
		} else {
			e.T = TypeInt
		}
	case BuiltinAbs:
		if wantArgs(1) && (argTypes[0].Ptr || argTypes[0].Kind.IsFloat()) {
			c.errorf(e.Pos(), "abs requires an integer argument (use fabs for floats)")
		}
		e.T = TypeInt
	case BuiltinAtomic:
		if wantArgs(1) {
			c.checkAtomicTarget(e, argTypes[0])
		}
		e.T = TypeInt
	case BuiltinAtomic2:
		if wantArgs(2) {
			c.checkAtomicTarget(e, argTypes[0])
			if argTypes[1].Ptr || !argTypes[1].Kind.IsInteger() {
				c.errorf(e.Args[1].Pos(), "%s operand must be an integer", e.Name)
			}
		}
		e.T = TypeInt
	}
	return e.T
}

func (c *checker) checkAtomicTarget(e *Call, t Type) {
	if !t.Ptr || !t.Kind.IsInteger() {
		c.errorf(e.Args[0].Pos(), "%s requires a pointer to an integer, got %s", e.Name, t)
		return
	}
	if _, ok := e.Args[0].(*Ident); !ok {
		c.errorf(e.Args[0].Pos(), "%s target must be a named pointer or __local array (element 0)", e.Name)
	}
}
