package clc

import "fmt"

// Kind enumerates the scalar type kinds of the supported OpenCL C subset.
type Kind int

// Scalar kinds. Integer kinds smaller than int are accepted by the parser
// but widened to Int/UInt during semantic analysis, matching OpenCL's usual
// arithmetic promotions.
const (
	KindVoid Kind = iota
	KindBool
	KindInt
	KindUInt
	KindLong
	KindULong
	KindFloat
	KindDouble
)

func (k Kind) String() string {
	switch k {
	case KindVoid:
		return "void"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindUInt:
		return "uint"
	case KindLong:
		return "long"
	case KindULong:
		return "ulong"
	case KindFloat:
		return "float"
	case KindDouble:
		return "double"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// IsInteger reports whether the kind is an integer kind.
func (k Kind) IsInteger() bool {
	switch k {
	case KindBool, KindInt, KindUInt, KindLong, KindULong:
		return true
	}
	return false
}

// IsFloat reports whether the kind is a floating-point kind.
func (k Kind) IsFloat() bool { return k == KindFloat || k == KindDouble }

// IsUnsigned reports whether the kind is an unsigned integer kind.
func (k Kind) IsUnsigned() bool { return k == KindUInt || k == KindULong }

// AddrSpace is an OpenCL address space qualifier.
type AddrSpace int

// Address spaces. Private is the default for automatic variables.
const (
	SpacePrivate AddrSpace = iota
	SpaceGlobal
	SpaceLocal
	SpaceConstant
)

func (s AddrSpace) String() string {
	switch s {
	case SpacePrivate:
		return "__private"
	case SpaceGlobal:
		return "__global"
	case SpaceLocal:
		return "__local"
	case SpaceConstant:
		return "__constant"
	}
	return fmt.Sprintf("space(%d)", int(s))
}

// Type describes a scalar or a pointer-to-scalar type. The subset has no
// aggregate types: kernels operate on address-space-qualified arrays of
// scalars, which is what every workload in the Dopia evaluation uses.
type Type struct {
	Kind  Kind
	Ptr   bool      // pointer to Kind
	Space AddrSpace // meaningful for pointers and __local arrays
}

// Convenience constructors for common types.
var (
	TypeVoid   = Type{Kind: KindVoid}
	TypeBool   = Type{Kind: KindBool}
	TypeInt    = Type{Kind: KindInt}
	TypeUInt   = Type{Kind: KindUInt}
	TypeLong   = Type{Kind: KindLong}
	TypeULong  = Type{Kind: KindULong}
	TypeFloat  = Type{Kind: KindFloat}
	TypeDouble = Type{Kind: KindDouble}
)

// GlobalPtr returns a __global pointer to k.
func GlobalPtr(k Kind) Type { return Type{Kind: k, Ptr: true, Space: SpaceGlobal} }

func (t Type) String() string {
	if t.Ptr {
		prefix := ""
		if t.Space != SpacePrivate {
			prefix = t.Space.String() + " "
		}
		return prefix + t.Kind.String() + "*"
	}
	return t.Kind.String()
}

// IsNumeric reports whether t is a non-void scalar.
func (t Type) IsNumeric() bool { return !t.Ptr && t.Kind != KindVoid }

// promote computes the usual arithmetic conversion of two scalar kinds.
func promote(a, b Kind) Kind {
	if a == KindDouble || b == KindDouble {
		return KindDouble
	}
	if a == KindFloat || b == KindFloat {
		return KindFloat
	}
	if a == KindULong || b == KindULong {
		return KindULong
	}
	if a == KindLong || b == KindLong {
		return KindLong
	}
	if a == KindUInt || b == KindUInt {
		return KindUInt
	}
	return KindInt
}
