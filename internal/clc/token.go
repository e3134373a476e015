// Package clc implements a front-end (lexer, parser, type checker) for the
// subset of OpenCL C 1.2 used by data-parallel compute kernels: scalar
// types, address-space-qualified pointers, control flow, and the OpenCL
// work-item builtin functions. It plays the role the Eigen Compiler Suite
// plays in the Dopia paper: producing a typed abstract syntax tree that the
// analysis and transformation stages traverse.
package clc

import "fmt"

// TokenKind enumerates the lexical token classes.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokIntLit
	TokFloatLit

	// Punctuation and operators.
	TokLParen   // (
	TokRParen   // )
	TokLBrace   // {
	TokRBrace   // }
	TokLBracket // [
	TokRBracket // ]
	TokComma    // ,
	TokSemi     // ;
	TokColon    // :
	TokQuestion // ?

	TokAssign        // =
	TokPlusAssign    // +=
	TokMinusAssign   // -=
	TokStarAssign    // *=
	TokSlashAssign   // /=
	TokPercentAssign // %=
	TokAmpAssign     // &=
	TokPipeAssign    // |=
	TokCaretAssign   // ^=
	TokShlAssign     // <<=
	TokShrAssign     // >>=

	TokPlus    // +
	TokMinus   // -
	TokStar    // *
	TokSlash   // /
	TokPercent // %
	TokInc     // ++
	TokDec     // --

	TokEq // ==
	TokNe // !=
	TokLt // <
	TokGt // >
	TokLe // <=
	TokGe // >=

	TokAndAnd // &&
	TokOrOr   // ||
	TokNot    // !

	TokAmp   // &
	TokPipe  // |
	TokCaret // ^
	TokTilde // ~
	TokShl   // <<
	TokShr   // >>

	TokKeyword // any reserved word; Token.Text distinguishes
)

// Token is a single lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string
	Pos  Pos
}

// Pos is a line/column source position (1-based).
type Pos struct {
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// keywords lists the reserved words recognised by the lexer. Address-space
// qualifiers appear both with and without leading underscores, as OpenCL
// accepts both spellings.
var keywords = map[string]bool{
	"void": true, "bool": true, "char": true, "uchar": true,
	"short": true, "ushort": true, "int": true, "uint": true,
	"long": true, "ulong": true, "float": true, "double": true,
	"size_t": true,
	"if":     true, "else": true, "for": true, "while": true, "do": true,
	"return": true, "break": true, "continue": true,
	"const": true, "restrict": true, "volatile": true,
	"__kernel": true, "kernel": true,
	"__global": true, "global": true,
	"__local": true, "local": true,
	"__constant": true, "constant": true,
	"__private": true, "private": true,
	"struct": true, "typedef": true, "unsigned": true, "signed": true,
}

func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokIdent:
		return "identifier"
	case TokIntLit:
		return "integer literal"
	case TokFloatLit:
		return "float literal"
	case TokKeyword:
		return "keyword"
	default:
		if s, ok := tokenText[k]; ok {
			return "'" + s + "'"
		}
		return fmt.Sprintf("token(%d)", int(k))
	}
}

var tokenText = map[TokenKind]string{
	TokLParen: "(", TokRParen: ")", TokLBrace: "{", TokRBrace: "}",
	TokLBracket: "[", TokRBracket: "]", TokComma: ",", TokSemi: ";",
	TokColon: ":", TokQuestion: "?",
	TokAssign: "=", TokPlusAssign: "+=", TokMinusAssign: "-=",
	TokStarAssign: "*=", TokSlashAssign: "/=", TokPercentAssign: "%=",
	TokAmpAssign: "&=", TokPipeAssign: "|=", TokCaretAssign: "^=",
	TokShlAssign: "<<=", TokShrAssign: ">>=",
	TokPlus: "+", TokMinus: "-", TokStar: "*", TokSlash: "/", TokPercent: "%",
	TokInc: "++", TokDec: "--",
	TokEq: "==", TokNe: "!=", TokLt: "<", TokGt: ">", TokLe: "<=", TokGe: ">=",
	TokAndAnd: "&&", TokOrOr: "||", TokNot: "!",
	TokAmp: "&", TokPipe: "|", TokCaret: "^", TokTilde: "~",
	TokShl: "<<", TokShr: ">>",
}
