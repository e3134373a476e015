package clc

// Inspect traverses the tree rooted at n in pre-order and source order:
// it calls f(n) and, if f returns true, inspects each non-nil child of n
// in turn. A ForStmt's children are Init, Cond, Post and Body, a
// DoWhileStmt's Body then Cond, an Index's Base then Idx, an Assign's LHS
// then RHS, and a DeclStmt's are its declarators' initialisers. Inspect
// is for passes that look for something in a tree; a pass that gives each
// node kind its own meaning switches on the kinds itself.
func Inspect(n Node, f func(Node) bool) {
	if n == nil || !f(n) {
		return
	}
	switch n := n.(type) {
	case *Kernel:
		if n.Body != nil {
			Inspect(n.Body, f)
		}
	case *Block:
		for _, s := range n.Stmts {
			Inspect(s, f)
		}
	case *DeclStmt:
		for _, d := range n.Decls {
			Inspect(d.Init, f)
		}
	case *ExprStmt:
		Inspect(n.X, f)
	case *IfStmt:
		Inspect(n.Cond, f)
		Inspect(n.Then, f)
		Inspect(n.Else, f)
	case *ForStmt:
		Inspect(n.Init, f)
		Inspect(n.Cond, f)
		Inspect(n.Post, f)
		Inspect(n.Body, f)
	case *WhileStmt:
		Inspect(n.Cond, f)
		Inspect(n.Body, f)
	case *DoWhileStmt:
		Inspect(n.Body, f)
		Inspect(n.Cond, f)
	case *Unary:
		Inspect(n.X, f)
	case *Cast:
		Inspect(n.X, f)
	case *Binary:
		Inspect(n.L, f)
		Inspect(n.R, f)
	case *Cond:
		Inspect(n.C, f)
		Inspect(n.Then, f)
		Inspect(n.Else, f)
	case *Index:
		Inspect(n.Base, f)
		Inspect(n.Idx, f)
	case *Call:
		for _, a := range n.Args {
			Inspect(a, f)
		}
	case *Assign:
		Inspect(n.LHS, f)
		Inspect(n.RHS, f)
	case *IncDec:
		Inspect(n.X, f)
	}
}
