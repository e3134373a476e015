package clc

import "sync"

// This file defines the abstract syntax tree produced by the parser and
// annotated by the type checker. Expression nodes carry their resolved
// type (T) after Check; Ident nodes carry their symbol. Every node carries
// a position for diagnostics.

// Node is the interface implemented by all AST nodes.
type Node interface {
	Pos() Pos
}

// Expr is an expression node. ResultType returns the type assigned by the
// checker (the zero Type before checking).
type Expr interface {
	Node
	ResultType() Type
	exprNode()
}

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// ---------------------------------------------------------------------------
// Program structure

// Program is a translation unit: one or more kernels.
type Program struct {
	Kernels []*Kernel
	Source  string // original source text, retained for reporting
}

// Kernel finds a kernel by name, or nil.
func (p *Program) Kernel(name string) *Kernel {
	for _, k := range p.Kernels {
		if k.Name == name {
			return k
		}
	}
	return nil
}

// Kernel is a __kernel function definition.
type Kernel struct {
	Name    string
	Params  []*Param
	Body    *Block
	NamePos Pos

	// Filled in by the checker:
	Locals   []*Symbol // all local variable symbols, slot-indexed
	NumSlots int       // len(Params) + len(Locals)

	// memo holds the artifacts derived from this kernel (see Memo).
	memo sync.Map // key -> *memoEntry
}

// Pos returns the position of the kernel name.
func (k *Kernel) Pos() Pos { return k.NamePos }

// Param is a kernel parameter (scalar or address-space-qualified pointer).
type Param struct {
	Name    string
	Type    Type
	NamePos Pos
	Sym     *Symbol
}

// Pos returns the position of the parameter name.
func (p *Param) Pos() Pos { return p.NamePos }

// SymbolClass distinguishes what a symbol refers to.
type SymbolClass int

// Symbol classes.
const (
	SymParam SymbolClass = iota
	SymLocalVar
)

// Symbol is a named entity in a kernel: a parameter or a local variable.
// Slot is a dense index used by the interpreter's environment.
type Symbol struct {
	Name     string
	Type     Type
	Class    SymbolClass
	Slot     int
	ArrayLen int  // > 0 for a __local (or private) array declaration
	IsLocal  bool // declared __local (work-group shared)
}

// ---------------------------------------------------------------------------
// Expressions

type exprBase struct {
	P Pos
	T Type
}

func (e *exprBase) Pos() Pos         { return e.P }
func (e *exprBase) ResultType() Type { return e.T }
func (e *exprBase) exprNode()        {}

// Ident is a reference to a parameter or local variable.
type Ident struct {
	exprBase
	Name string
	Sym  *Symbol
}

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	Value int64
	Text  string
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	exprBase
	Value float64
	Text  string
}

// UnaryOp enumerates unary operators.
type UnaryOp int

// Unary operators.
const (
	UnaryNeg    UnaryOp = iota // -x
	UnaryNot                   // !x
	UnaryBitNot                // ~x
	UnaryPlus                  // +x
)

func (op UnaryOp) String() string {
	switch op {
	case UnaryNeg:
		return "-"
	case UnaryNot:
		return "!"
	case UnaryBitNot:
		return "~"
	case UnaryPlus:
		return "+"
	}
	return "?"
}

// Unary is a unary operation.
type Unary struct {
	exprBase
	Op UnaryOp
	X  Expr
}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators.
const (
	BinAdd BinaryOp = iota
	BinSub
	BinMul
	BinDiv
	BinRem
	BinShl
	BinShr
	BinAnd // bitwise &
	BinOr  // bitwise |
	BinXor
	BinEq
	BinNe
	BinLt
	BinGt
	BinLe
	BinGe
	BinLAnd // &&
	BinLOr  // ||
)

func (op BinaryOp) String() string {
	switch op {
	case BinAdd:
		return "+"
	case BinSub:
		return "-"
	case BinMul:
		return "*"
	case BinDiv:
		return "/"
	case BinRem:
		return "%"
	case BinShl:
		return "<<"
	case BinShr:
		return ">>"
	case BinAnd:
		return "&"
	case BinOr:
		return "|"
	case BinXor:
		return "^"
	case BinEq:
		return "=="
	case BinNe:
		return "!="
	case BinLt:
		return "<"
	case BinGt:
		return ">"
	case BinLe:
		return "<="
	case BinGe:
		return ">="
	case BinLAnd:
		return "&&"
	case BinLOr:
		return "||"
	}
	return "?"
}

// IsComparison reports whether the operator yields a boolean result.
func (op BinaryOp) IsComparison() bool {
	switch op {
	case BinEq, BinNe, BinLt, BinGt, BinLe, BinGe:
		return true
	}
	return false
}

// IsLogical reports whether the operator is && or ||.
func (op BinaryOp) IsLogical() bool { return op == BinLAnd || op == BinLOr }

// Binary is a binary operation.
type Binary struct {
	exprBase
	Op   BinaryOp
	L, R Expr
}

// Cond is the ternary conditional operator c ? t : f.
type Cond struct {
	exprBase
	C, Then, Else Expr
}

// Index is an array subscript p[i] where p is a pointer or local array.
type Index struct {
	exprBase
	Base  Expr // Ident of pointer/array symbol
	Idx   Expr
	Site  int // memory-site id assigned by the checker, unique per kernel
	Space AddrSpace
}

// Call is a builtin function call (user-defined functions are not in the
// subset; every workload in the evaluation is a single self-contained
// kernel, as are the paper's).
type Call struct {
	exprBase
	Name    string
	Args    []Expr
	Builtin *Builtin
}

// Cast is an explicit scalar conversion, e.g. (int)x.
type Cast struct {
	exprBase
	To Type
	X  Expr
}

// AssignOp enumerates assignment flavours.
type AssignOp int

// Assignment operators. AssignPlain is "="; the others are compound.
const (
	AssignPlain AssignOp = iota
	AssignAdd
	AssignSub
	AssignMul
	AssignDiv
	AssignRem
	AssignAnd
	AssignOr
	AssignXor
	AssignShl
	AssignShr
)

func (op AssignOp) String() string {
	switch op {
	case AssignPlain:
		return "="
	case AssignAdd:
		return "+="
	case AssignSub:
		return "-="
	case AssignMul:
		return "*="
	case AssignDiv:
		return "/="
	case AssignRem:
		return "%="
	case AssignAnd:
		return "&="
	case AssignOr:
		return "|="
	case AssignXor:
		return "^="
	case AssignShl:
		return "<<="
	case AssignShr:
		return ">>="
	}
	return "?"
}

// BinOp returns the arithmetic operator underlying a compound assignment.
func (op AssignOp) BinOp() (BinaryOp, bool) {
	switch op {
	case AssignAdd:
		return BinAdd, true
	case AssignSub:
		return BinSub, true
	case AssignMul:
		return BinMul, true
	case AssignDiv:
		return BinDiv, true
	case AssignRem:
		return BinRem, true
	case AssignAnd:
		return BinAnd, true
	case AssignOr:
		return BinOr, true
	case AssignXor:
		return BinXor, true
	case AssignShl:
		return BinShl, true
	case AssignShr:
		return BinShr, true
	}
	return 0, false
}

// Assign is an assignment expression; LHS is an Ident or Index.
type Assign struct {
	exprBase
	Op  AssignOp
	LHS Expr
	RHS Expr
}

// IncDec is a pre- or post-increment/decrement of an Ident or Index.
type IncDec struct {
	exprBase
	X    Expr
	Decr bool
	Post bool
}

// ---------------------------------------------------------------------------
// Statements

type stmtBase struct {
	P Pos
}

func (s *stmtBase) Pos() Pos  { return s.P }
func (s *stmtBase) stmtNode() {}

// Block is a brace-delimited statement list.
type Block struct {
	stmtBase
	Stmts []Stmt
}

// DeclStmt declares one or more variables of a common base type.
type DeclStmt struct {
	stmtBase
	Decls []*VarDecl
}

// VarDecl is a single declarator within a DeclStmt.
type VarDecl struct {
	Name     string
	Type     Type
	Init     Expr // may be nil
	ArrayLen int  // > 0 for array declarator
	IsLocal  bool // declared __local
	NamePos  Pos
	Sym      *Symbol
}

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct {
	stmtBase
	X Expr
}

// IfStmt is a conditional with optional else branch.
type IfStmt struct {
	stmtBase
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// ForStmt is a C-style for loop. Init may be a DeclStmt or ExprStmt.
type ForStmt struct {
	stmtBase
	Init Stmt // may be nil
	Cond Expr // may be nil (true)
	Post Expr // may be nil
	Body Stmt
	// LoopID is a dense per-kernel index assigned by the checker, used by
	// the static analysis to reason about loop nests.
	LoopID int
}

// WhileStmt is a while loop.
type WhileStmt struct {
	stmtBase
	Cond   Expr
	Body   Stmt
	LoopID int
}

// DoWhileStmt is a do { } while loop.
type DoWhileStmt struct {
	stmtBase
	Body   Stmt
	Cond   Expr
	LoopID int
}

// ReturnStmt exits the kernel for the current work-item.
type ReturnStmt struct {
	stmtBase
	// Kernels return void; no value.
}

// BreakStmt breaks the innermost loop.
type BreakStmt struct{ stmtBase }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ stmtBase }

// BarrierStmt is a work-group barrier: barrier(CLK_LOCAL_MEM_FENCE) or
// barrier(CLK_GLOBAL_MEM_FENCE). The checker only accepts it at the top
// level of a kernel body, which is the only placement Dopia's malleable
// code generator emits; the interpreter executes barriers by segmenting
// the body.
type BarrierStmt struct {
	stmtBase
	Flags string
}
