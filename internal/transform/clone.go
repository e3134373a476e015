// Package transform implements Dopia's malleable code generation (paper
// §6): it rewrites an OpenCL kernel into a malleable GPU kernel whose
// degree of parallelism is controlled at launch time by two extra
// parameters, dop_gpu_mod and dop_gpu_alloc, using lane throttling and a
// CU-local atomic worklist (Figures 5 and 6). The CPU side (Figure 7)
// needs no generated code: internal/sched runs the original kernel's
// work-groups off the simulated schedule.
//
// The transformation is source-to-source: it clones the AST, substitutes
// work-item index queries, wraps the body in the throttling scaffold,
// prints the result, and re-compiles it through the clc front-end. The
// output is therefore always a valid, type-checked kernel. Check is its
// rules without the rewrite, and all a launch asks.
package transform

import (
	"fmt"

	"dopia/internal/clc"
)

// subst maps a work-item query to a replacement expression generator.
// cloneExpr consults it for every Call node.
type subst func(call *clc.Call) clc.Expr

// cloneExpr deep-copies an expression, producing fresh untyped nodes.
// When sub is non-nil and returns a non-nil replacement for a call, the
// replacement (already fresh) is used instead.
func cloneExpr(x clc.Expr, sub subst) clc.Expr {
	switch e := x.(type) {
	case *clc.Ident:
		return ident(e.Name)
	case *clc.IntLit:
		return &clc.IntLit{Value: e.Value, Text: e.Text}
	case *clc.FloatLit:
		return &clc.FloatLit{Value: e.Value, Text: e.Text}
	case *clc.Unary:
		return &clc.Unary{Op: e.Op, X: cloneExpr(e.X, sub)}
	case *clc.Binary:
		return &clc.Binary{Op: e.Op, L: cloneExpr(e.L, sub), R: cloneExpr(e.R, sub)}
	case *clc.Cond:
		return &clc.Cond{C: cloneExpr(e.C, sub), Then: cloneExpr(e.Then, sub), Else: cloneExpr(e.Else, sub)}
	case *clc.Index:
		return &clc.Index{Base: cloneExpr(e.Base, sub), Idx: cloneExpr(e.Idx, sub)}
	case *clc.Call:
		if sub != nil {
			if repl := sub(e); repl != nil {
				return repl
			}
		}
		c := &clc.Call{Name: e.Name}
		for _, a := range e.Args {
			c.Args = append(c.Args, cloneExpr(a, sub))
		}
		return c
	case *clc.Cast:
		return &clc.Cast{To: e.To, X: cloneExpr(e.X, sub)}
	case *clc.Assign:
		return &clc.Assign{Op: e.Op, LHS: cloneExpr(e.LHS, sub), RHS: cloneExpr(e.RHS, sub)}
	case *clc.IncDec:
		return &clc.IncDec{X: cloneExpr(e.X, sub), Decr: e.Decr, Post: e.Post}
	}
	panic(fmt.Sprintf("transform: cannot clone expression %T", x))
}

// cloneStmt deep-copies a statement tree with call substitution. A return
// becomes a continue of the worklist loop the clone is placed in: in the
// malleable kernel a return would abandon the lane's remaining dynamic
// work, not just the current work-item (Check rejects a return inside a
// user loop, where the continue would bind to that loop).
func cloneStmt(s clc.Stmt, sub subst) clc.Stmt {
	switch st := s.(type) {
	case *clc.Block:
		b := &clc.Block{}
		for _, inner := range st.Stmts {
			b.Stmts = append(b.Stmts, cloneStmt(inner, sub))
		}
		return b
	case *clc.DeclStmt:
		d := &clc.DeclStmt{}
		for _, vd := range st.Decls {
			nd := &clc.VarDecl{
				Name:     vd.Name,
				Type:     vd.Type,
				ArrayLen: vd.ArrayLen,
				IsLocal:  vd.IsLocal,
			}
			if vd.Init != nil {
				nd.Init = cloneExpr(vd.Init, sub)
			}
			d.Decls = append(d.Decls, nd)
		}
		return d
	case *clc.ExprStmt:
		return &clc.ExprStmt{X: cloneExpr(st.X, sub)}
	case *clc.IfStmt:
		n := &clc.IfStmt{Cond: cloneExpr(st.Cond, sub), Then: cloneStmt(st.Then, sub)}
		if st.Else != nil {
			n.Else = cloneStmt(st.Else, sub)
		}
		return n
	case *clc.ForStmt:
		n := &clc.ForStmt{}
		if st.Init != nil {
			n.Init = cloneStmt(st.Init, sub)
		}
		if st.Cond != nil {
			n.Cond = cloneExpr(st.Cond, sub)
		}
		if st.Post != nil {
			n.Post = cloneExpr(st.Post, sub)
		}
		n.Body = cloneStmt(st.Body, sub)
		return n
	case *clc.WhileStmt:
		return &clc.WhileStmt{Cond: cloneExpr(st.Cond, sub), Body: cloneStmt(st.Body, sub)}
	case *clc.DoWhileStmt:
		return &clc.DoWhileStmt{Body: cloneStmt(st.Body, sub), Cond: cloneExpr(st.Cond, sub)}
	case *clc.ReturnStmt:
		return &clc.ContinueStmt{}
	case *clc.BreakStmt:
		return &clc.BreakStmt{}
	case *clc.ContinueStmt:
		return &clc.ContinueStmt{}
	case *clc.BarrierStmt:
		return &clc.BarrierStmt{Flags: st.Flags}
	}
	panic(fmt.Sprintf("transform: cannot clone statement %T", s))
}

// Small AST construction helpers.

func ident(name string) *clc.Ident { return &clc.Ident{Name: name} }

func intLit(v int64) *clc.IntLit { return &clc.IntLit{Value: v} }

func bin(op clc.BinaryOp, l, r clc.Expr) *clc.Binary { return &clc.Binary{Op: op, L: l, R: r} }

func call(name string, args ...clc.Expr) *clc.Call { return &clc.Call{Name: name, Args: args} }

func exprStmt(x clc.Expr) clc.Stmt { return &clc.ExprStmt{X: x} }

func assign(lhs, rhs clc.Expr) clc.Expr {
	return &clc.Assign{Op: clc.AssignPlain, LHS: lhs, RHS: rhs}
}

func declInt(name string, init clc.Expr) clc.Stmt {
	return &clc.DeclStmt{Decls: []*clc.VarDecl{{Name: name, Type: clc.TypeInt, Init: init}}}
}
