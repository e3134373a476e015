package analysis

// This file implements the exact half of the index analysis. The linear
// forms in form.go deliberately abstract coefficients ("some launch
// constant") and drop constant offsets, which is all the Table-1
// classification needs but cannot tell A[i] from A[i+1]. The execution
// engines need exactly that distinction to decide whether work-groups
// may run concurrently (see independence.go), so every form additionally
// carries the value it denotes as an exact polynomial over work-item
// ids, loop induction variables and integer scalar parameters — or nil
// when the value is not such a polynomial.

// varKind identifies what a polynomial variable stands for.
type varKind uint8

const (
	// varParam is an integer scalar kernel parameter; n is its slot.
	varParam varKind = iota
	// varLocalSize is get_local_size(n).
	varLocalSize
	// varGlobalID and varLocalID are the work-item index functions of
	// dimension n.
	varGlobalID
	varLocalID
	// varLoop is the induction variable of loop n of the kernel.
	varLoop
	// varAtom is an opaque atom of an exported Poly; n is the caller's
	// name for it.
	varAtom
)

// pvar is one variable of an index polynomial.
type pvar struct {
	kind varKind
	n    int
}

func (v pvar) less(w pvar) bool {
	if v.kind != w.kind {
		return v.kind < w.kind
	}
	return v.n < w.n
}

// term is one monomial: k times the product of vars (sorted; a
// variable repeats for higher powers; empty for the constant term).
type term struct {
	k    int64
	vars []pvar
}

// terms is an exact integer polynomial in canonical form: monomials
// sorted by their variable lists, no zero coefficients. Polynomials are
// immutable and handled by pointer (poly) so that a form stays small; the
// nil poly means "unknown" (not "zero": zero is the empty polynomial).
type terms []term

type poly = *terms

// Polynomials that outgrow these bounds become unknown; real index
// expressions are far smaller.
const (
	maxPolyTerms  = 32
	maxPolyDegree = 6
)

func constPoly(v int64) poly {
	switch {
	case v == 0:
		return &terms{}
	case !coefOK(v):
		return nil
	}
	return &terms{{k: v}}
}

func varPoly(v pvar) poly { return &terms{{k: 1, vars: []pvar{v}}} }

func cmpVars(a, b []pvar) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i].less(b[i]) {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

// Equal reports whether two known polynomials denote the same value for
// every assignment of their variables. Unknown polynomials equal nothing.
func (p *terms) equal(q poly) bool {
	if p == nil || q == nil || len(*p) != len(*q) {
		return false
	}
	for i, t := range *p {
		if u := (*q)[i]; t.k != u.k || cmpVars(t.vars, u.vars) != 0 {
			return false
		}
	}
	return true
}

// samePoly is Equal extended to treat two unknowns as the same state.
func samePoly(p, q poly) bool { return (p == nil && q == nil) || p.equal(q) }

// coefOK bounds every coefficient well inside int64 so that sums and
// products of two accepted coefficients cannot overflow; an index that
// needs more is not a real buffer index and becomes unknown.
func coefOK(c int64) bool { return c > -1<<31 && c < 1<<31 }

func addPoly(pp, qp poly, negate bool) poly {
	if pp == nil || qp == nil {
		return nil
	}
	p, q := *pp, *qp
	out := make(terms, 0, len(p)+len(q))
	i, j := 0, 0
	for i < len(p) || j < len(q) {
		var c int
		switch {
		case i == len(p):
			c = 1
		case j == len(q):
			c = -1
		default:
			c = cmpVars(p[i].vars, q[j].vars)
		}
		switch {
		case c < 0:
			out = append(out, p[i])
			i++
		case c > 0:
			t := q[j]
			if negate {
				t.k = -t.k
			}
			out = append(out, t)
			j++
		default:
			k := p[i].k + q[j].k
			if negate {
				k = p[i].k - q[j].k
			}
			if !coefOK(k) {
				return nil
			}
			if k != 0 {
				out = append(out, term{k: k, vars: p[i].vars})
			}
			i++
			j++
		}
	}
	if len(out) > maxPolyTerms {
		return nil
	}
	return &out
}

func mulPoly(p, q poly) poly {
	if p == nil || q == nil || len(*p)*len(*q) > maxPolyTerms {
		return nil
	}
	prod := make(terms, 0, len(*p)*len(*q))
	for _, a := range *p {
		for _, b := range *q {
			if len(a.vars)+len(b.vars) > maxPolyDegree || !coefOK(a.k*b.k) {
				return nil
			}
			prod = append(prod, term{k: a.k * b.k, vars: mergeVars(a.vars, b.vars)})
		}
	}
	// Canonicalize: sort the monomials (insertion sort — a handful of
	// terms) and combine equal ones.
	for i := 1; i < len(prod); i++ {
		for j := i; j > 0 && cmpVars(prod[j].vars, prod[j-1].vars) < 0; j-- {
			prod[j], prod[j-1] = prod[j-1], prod[j]
		}
	}
	out := prod[:0]
	for _, t := range prod {
		if n := len(out); n > 0 && cmpVars(out[n-1].vars, t.vars) == 0 {
			out[n-1].k += t.k
			continue
		}
		out = append(out, t)
	}
	// Drop cancelled monomials and refuse oversized coefficients.
	kept := out[:0]
	for _, t := range out {
		if !coefOK(t.k) {
			return nil
		}
		if t.k != 0 {
			kept = append(kept, t)
		}
	}
	return &kept
}

// mergeVars merges two sorted variable lists into one.
func mergeVars(a, b []pvar) []pvar {
	switch {
	case len(a) == 0:
		return b
	case len(b) == 0:
		return a
	}
	out := make([]pvar, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j].less(a[i]) {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	return append(append(out, a[i:]...), b[j:]...)
}

// Poly is the exact polynomial arithmetic above over opaque integer
// atoms, for clients outside the analysis: the bytecode lowerer splits an
// int32 subscript into a part shared between accesses and a constant
// offset. A Poly is immutable. The zero Poly is unknown (built from an
// unknown, or too large), and arithmetic on an unknown stays unknown.
type Poly struct{ p poly }

// Monomial is one term of a Poly: K times the product of Atoms (sorted;
// an atom repeats for higher powers; empty for the constant term).
type Monomial struct {
	K     int64
	Atoms []int
}

// AtomPoly is the polynomial of the single atom n.
func AtomPoly(n int) Poly { return Poly{varPoly(pvar{kind: varAtom, n: n})} }

// ConstPoly is the constant polynomial v (unknown outside ±2³¹).
func ConstPoly(v int64) Poly { return Poly{constPoly(v)} }

// Known reports whether p is a polynomial rather than unknown.
func (p Poly) Known() bool { return p.p != nil }

// Add returns p + q.
func (p Poly) Add(q Poly) Poly { return Poly{addPoly(p.p, q.p, false)} }

// Sub returns p - q.
func (p Poly) Sub(q Poly) Poly { return Poly{addPoly(p.p, q.p, true)} }

// Mul returns p * q.
func (p Poly) Mul(q Poly) Poly { return Poly{mulPoly(p.p, q.p)} }

// Equal reports whether p and q are the same known polynomial.
func (p Poly) Equal(q Poly) bool { return p.p.equal(q.p) }

// SplitConst returns p's non-constant part and its constant term.
func (p Poly) SplitConst() (Poly, int64) {
	if p.p == nil || len(*p.p) == 0 || len((*p.p)[0].vars) != 0 {
		return p, 0
	}
	rest := (*p.p)[1:]
	return Poly{&rest}, (*p.p)[0].k
}

// Monomials lists p's terms in canonical order (nil for unknown or zero).
func (p Poly) Monomials() []Monomial {
	if p.p == nil {
		return nil
	}
	out := make([]Monomial, len(*p.p))
	for i, t := range *p.p {
		out[i].K = t.k
		for _, v := range t.vars {
			out[i].Atoms = append(out[i].Atoms, v.n)
		}
	}
	return out
}
