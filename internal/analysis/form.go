// Package analysis implements Dopia's static code analysis (paper §5.1):
// it walks a type-checked kernel AST and classifies every memory operation
// as constant, continuous, strided, or random, and counts integer and
// floating-point arithmetic operations. The classification uses a small
// abstract interpreter over linear index forms: each integer expression is
// tracked as a linear combination of basis variables (loop induction
// variables and work-item indices) with constant or symbolic coefficients.
package analysis

import "dopia/internal/clc"

// basis identifies an independent variable an index expression can depend
// on: a loop induction variable, or a work-item index function dimension.
type basis struct {
	sym *clc.Symbol // loop induction variable; nil for work-item bases
	wik wiKind
	dim int
}

type wiKind int8

const (
	wiNone wiKind = iota
	wiGlobalID
	wiLocalID
	wiGroupID
)

// coef is the abstract coefficient domain: zero, a known integer constant,
// or an unknown-but-launch-constant symbolic value (a product involving
// kernel parameters such as N).
type coef struct {
	kind coefKind
	k    int64
}

type coefKind int8

const (
	coefZero coefKind = iota
	coefConst
	coefSymbolic
)

func constCoef(k int64) coef {
	if k == 0 {
		return coef{}
	}
	return coef{kind: coefConst, k: k}
}

var symbolicCoef = coef{kind: coefSymbolic}

func (a coef) add(b coef) coef {
	switch {
	case a.kind == coefZero:
		return b
	case b.kind == coefZero:
		return a
	case a.kind == coefConst && b.kind == coefConst:
		return constCoef(a.k + b.k)
	default:
		return symbolicCoef
	}
}

func (a coef) mulConst(k int64) coef {
	switch a.kind {
	case coefZero:
		return coef{}
	case coefConst:
		return constCoef(a.k * k)
	default:
		return symbolicCoef
	}
}

func (a coef) mulSymbolic() coef {
	if a.kind == coefZero {
		return coef{}
	}
	return symbolicCoef
}

func (a coef) isZero() bool { return a.kind == coefZero }

func (a coef) equal(b coef) bool { return a.kind == b.kind && a.k == b.k }

// form is the abstract value of an integer expression: an affine
// combination of bases, or nonlinear when the expression cannot be
// analyzed (indirect loads, divisions by loop-varying values, widened
// loop-carried variables).
type form struct {
	coefs map[basis]coef
	// lit holds the value when the expression is a compile-time constant;
	// litOK marks it valid. Used to scale coefficients precisely.
	lit int64
	// p is the exact value of the expression (see poly.go), nil when
	// unknown — always, in an analysis that does not track exact values.
	// It never influences the abstract classification: equal() ignores
	// it, and widening tracks it separately.
	p         poly
	nonlinear bool
	litOK     bool
}

// uniformForm is a launch-constant value (parameter, literal combination).
func uniformForm() form { return form{} }

func litForm(v int64) form { return form{lit: v, litOK: true} }

func nonlinearForm() form { return form{nonlinear: true} }

func basisForm(b basis) form {
	return form{coefs: map[basis]coef{b: constCoef(1)}}
}

// inexact returns f without its exact value.
func (f form) inexact() form {
	f.p = nil
	return f
}

// isUniform reports whether the form has no basis dependence and is
// analyzable: its value is fixed for the whole launch.
func (f form) isUniform() bool { return !f.nonlinear && len(f.coefs) == 0 }

func (f form) clone() form {
	g := f
	if f.coefs != nil {
		g.coefs = make(map[basis]coef, len(f.coefs))
		for k, v := range f.coefs {
			g.coefs[k] = v
		}
	}
	return g
}

func (f form) coefOf(b basis) coef {
	if f.coefs == nil {
		return coef{}
	}
	return f.coefs[b]
}

func (f form) equal(g form) bool {
	if f.nonlinear != g.nonlinear || f.litOK != g.litOK || (f.litOK && f.lit != g.lit) {
		return false
	}
	if len(f.coefs) != len(g.coefs) {
		// Zero coefficients may be stored or absent; normalize by checking
		// both directions.
		for b, c := range f.coefs {
			if !c.equal(g.coefOf(b)) {
				return false
			}
		}
		for b, c := range g.coefs {
			if !c.equal(f.coefOf(b)) {
				return false
			}
		}
		return true
	}
	for b, c := range f.coefs {
		if !c.equal(g.coefOf(b)) {
			return false
		}
	}
	return true
}

func addForms(a, b form, negate bool) form {
	if a.nonlinear || b.nonlinear {
		return nonlinearForm()
	}
	out := form{p: addPoly(a.p, b.p, negate)}
	if a.litOK && b.litOK {
		if negate {
			out.lit = a.lit - b.lit
		} else {
			out.lit = a.lit + b.lit
		}
		out.litOK = true
	}
	if len(a.coefs)+len(b.coefs) > 0 {
		out.coefs = make(map[basis]coef, len(a.coefs)+len(b.coefs))
		for k, v := range a.coefs {
			out.coefs[k] = v
		}
		for k, v := range b.coefs {
			if negate {
				v = v.mulConst(-1)
			}
			out.coefs[k] = out.coefs[k].add(v)
		}
	}
	return out
}

func mulForms(a, b form) form {
	if a.nonlinear || b.nonlinear {
		return nonlinearForm()
	}
	// Multiplication is linear only when at least one side is uniform.
	var out form
	switch {
	case a.isUniform() && b.isUniform():
		if a.litOK && b.litOK {
			out.lit = a.lit * b.lit
			out.litOK = true
		}
	case a.isUniform():
		out = scaleForm(b, a)
	case b.isUniform():
		out = scaleForm(a, b)
	default:
		return nonlinearForm()
	}
	out.p = mulPoly(a.p, b.p)
	return out
}

// scaleForm multiplies a linear form by a uniform factor.
func scaleForm(f form, factor form) form {
	out := form{coefs: make(map[basis]coef, len(f.coefs))}
	for b, c := range f.coefs {
		if factor.litOK {
			out.coefs[b] = c.mulConst(factor.lit)
		} else {
			out.coefs[b] = c.mulSymbolic()
		}
	}
	if f.litOK && factor.litOK {
		out.lit = f.lit * factor.lit
		out.litOK = true
	}
	return out
}

func negForm(a form) form {
	if a.nonlinear {
		return a
	}
	out := form{}
	if a.p != nil {
		out.p = mulPoly(a.p, constPoly(-1))
	}
	if a.litOK {
		out.lit = -a.lit
		out.litOK = true
	}
	if len(a.coefs) > 0 {
		out.coefs = make(map[basis]coef, len(a.coefs))
		for b, c := range a.coefs {
			out.coefs[b] = c.mulConst(-1)
		}
	}
	return out
}

// mergeForms joins two control-flow paths: identical forms survive,
// differing forms widen to nonlinear (unknown).
func mergeForms(a, b form) form {
	if a.equal(b) {
		if !samePoly(a.p, b.p) {
			return a.inexact()
		}
		return a
	}
	return nonlinearForm()
}
