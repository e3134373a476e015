package clc

import (
	"fmt"
	"strings"
)

// PrintProgram renders a program back to OpenCL C source. The output is
// valid input to Compile; tests verify the round-trip. Dopia uses the
// printer to materialise the malleable kernels it generates.
func PrintProgram(p *Program) string {
	var b strings.Builder
	for i, k := range p.Kernels {
		if i > 0 {
			b.WriteString("\n")
		}
		printKernel(&b, k)
	}
	return b.String()
}

// PrintKernel renders a single kernel definition.
func PrintKernel(k *Kernel) string {
	var b strings.Builder
	printKernel(&b, k)
	return b.String()
}

func printKernel(b *strings.Builder, k *Kernel) {
	fmt.Fprintf(b, "__kernel void %s(", k.Name)
	for i, prm := range k.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%s %s", prm.Type, prm.Name)
	}
	b.WriteString(")\n")
	printStmt(b, k.Body, 0)
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("    ")
	}
}

func printStmt(b *strings.Builder, s Stmt, depth int) {
	switch st := s.(type) {
	case *Block:
		indent(b, depth)
		b.WriteString("{\n")
		for _, inner := range st.Stmts {
			printStmt(b, inner, depth+1)
		}
		indent(b, depth)
		b.WriteString("}\n")
	case *DeclStmt:
		indent(b, depth)
		printDecls(b, st)
		b.WriteString(";\n")
	case *ExprStmt:
		indent(b, depth)
		b.WriteString(ExprString(st.X))
		b.WriteString(";\n")
	case *IfStmt:
		indent(b, depth)
		fmt.Fprintf(b, "if (%s)\n", ExprString(st.Cond))
		printNested(b, st.Then, depth)
		if st.Else != nil {
			indent(b, depth)
			b.WriteString("else\n")
			printNested(b, st.Else, depth)
		}
	case *ForStmt:
		indent(b, depth)
		b.WriteString("for (")
		switch init := st.Init.(type) {
		case nil:
		case *DeclStmt:
			printDecls(b, init)
		case *ExprStmt:
			b.WriteString(ExprString(init.X))
		}
		b.WriteString("; ")
		if st.Cond != nil {
			b.WriteString(ExprString(st.Cond))
		}
		b.WriteString("; ")
		if st.Post != nil {
			b.WriteString(ExprString(st.Post))
		}
		b.WriteString(")\n")
		printNested(b, st.Body, depth)
	case *WhileStmt:
		indent(b, depth)
		fmt.Fprintf(b, "while (%s)\n", ExprString(st.Cond))
		printNested(b, st.Body, depth)
	case *DoWhileStmt:
		indent(b, depth)
		b.WriteString("do\n")
		printNested(b, st.Body, depth)
		indent(b, depth)
		fmt.Fprintf(b, "while (%s);\n", ExprString(st.Cond))
	case *ReturnStmt:
		indent(b, depth)
		b.WriteString("return;\n")
	case *BreakStmt:
		indent(b, depth)
		b.WriteString("break;\n")
	case *ContinueStmt:
		indent(b, depth)
		b.WriteString("continue;\n")
	case *BarrierStmt:
		indent(b, depth)
		flags := st.Flags
		if flags == "" {
			flags = "CLK_LOCAL_MEM_FENCE"
		}
		fmt.Fprintf(b, "barrier(%s);\n", flags)
	default:
		indent(b, depth)
		fmt.Fprintf(b, "/* unknown stmt %T */;\n", s)
	}
}

// printNested prints a statement as the body of a control structure,
// indenting non-block bodies one extra level.
func printNested(b *strings.Builder, s Stmt, depth int) {
	if _, isBlock := s.(*Block); isBlock {
		printStmt(b, s, depth)
	} else if s == nil {
		indent(b, depth+1)
		b.WriteString(";\n")
	} else {
		printStmt(b, s, depth+1)
	}
}

func printDecls(b *strings.Builder, ds *DeclStmt) {
	for i, d := range ds.Decls {
		if i > 0 {
			b.WriteString(", ")
		} else {
			if d.IsLocal {
				b.WriteString("__local ")
			}
			b.WriteString(d.Type.String())
			b.WriteString(" ")
		}
		b.WriteString(d.Name)
		if d.ArrayLen > 0 {
			fmt.Fprintf(b, "[%d]", d.ArrayLen)
		}
		if d.Init != nil {
			b.WriteString(" = ")
			b.WriteString(ExprString(d.Init))
		}
	}
}

// ExprString renders an expression as source text. Parentheses are emitted
// conservatively around nested operators so the output re-parses with the
// same structure.
func ExprString(x Expr) string {
	var b strings.Builder
	printExpr(&b, x, 0)
	return b.String()
}

// Precedence levels for printing; higher binds tighter.
func exprPrec(x Expr) int {
	switch e := x.(type) {
	case *Assign:
		return 1
	case *Cond:
		return 2
	case *Binary:
		switch e.Op {
		case BinLOr:
			return 3
		case BinLAnd:
			return 4
		case BinOr:
			return 5
		case BinXor:
			return 6
		case BinAnd:
			return 7
		case BinEq, BinNe:
			return 8
		case BinLt, BinGt, BinLe, BinGe:
			return 9
		case BinShl, BinShr:
			return 10
		case BinAdd, BinSub:
			return 11
		default:
			return 12
		}
	case *Unary, *Cast:
		return 13
	case *IncDec:
		if e.Post {
			return 14
		}
		return 13
	default:
		return 15
	}
}

func printExpr(b *strings.Builder, x Expr, minPrec int) {
	prec := exprPrec(x)
	paren := prec < minPrec
	if paren {
		b.WriteString("(")
	}
	switch e := x.(type) {
	case *Ident:
		b.WriteString(e.Name)
	case *IntLit:
		if e.Text != "" {
			b.WriteString(e.Text)
		} else {
			fmt.Fprintf(b, "%d", e.Value)
		}
	case *FloatLit:
		if e.Text != "" {
			b.WriteString(e.Text)
			if !strings.ContainsAny(e.Text, ".eEfF") {
				b.WriteString(".0")
			}
		} else {
			lit := fmt.Sprintf("%g", e.Value)
			b.WriteString(lit)
			if !strings.ContainsAny(lit, ".e") {
				b.WriteString(".0")
			}
		}
	case *Unary:
		op := e.Op.String()
		b.WriteString(op)
		// Render the operand separately: if it starts with the same sign
		// character, the two must not merge into a ++/-- token on
		// re-parse (-(-x) printed as --x would become a pre-decrement —
		// a store — instead of a double negation).
		var operand strings.Builder
		printExpr(&operand, e.X, 13)
		s := operand.String()
		if len(s) > 0 && (op == "-" || op == "+") && s[0] == op[0] {
			b.WriteString(" ")
		}
		b.WriteString(s)
	case *Binary:
		printExpr(b, e.L, prec)
		fmt.Fprintf(b, " %s ", e.Op)
		printExpr(b, e.R, prec+1)
	case *Cond:
		printExpr(b, e.C, 3)
		b.WriteString(" ? ")
		printExpr(b, e.Then, 1)
		b.WriteString(" : ")
		printExpr(b, e.Else, 2)
	case *Index:
		printExpr(b, e.Base, 15)
		b.WriteString("[")
		printExpr(b, e.Idx, 0)
		b.WriteString("]")
	case *Call:
		b.WriteString(e.Name)
		b.WriteString("(")
		for i, a := range e.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			printExpr(b, a, 1)
		}
		b.WriteString(")")
	case *Cast:
		fmt.Fprintf(b, "(%s)", e.To)
		printExpr(b, e.X, 13)
	case *Assign:
		printExpr(b, e.LHS, 2)
		fmt.Fprintf(b, " %s ", e.Op)
		printExpr(b, e.RHS, 1)
	case *IncDec:
		op := "++"
		if e.Decr {
			op = "--"
		}
		if e.Post {
			printExpr(b, e.X, 14)
			b.WriteString(op)
		} else {
			b.WriteString(op)
			printExpr(b, e.X, 13)
		}
	default:
		fmt.Fprintf(b, "/* unknown expr %T */", x)
	}
	if paren {
		b.WriteString(")")
	}
}
