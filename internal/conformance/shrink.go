package conformance

// Automatic test-case shrinking. The shrinker operates on the
// generator's structured progSpec (never on source text), so every
// candidate re-renders through the same pipeline the original case used:
// dropping statements, replacing expression subtrees with literals,
// removing unused kernel parameters, and reducing the launch geometry
// and buffer lengths. A candidate survives only if it still compiles and
// the caller's failure predicate still fails on it.

import (
	"dopia/internal/clc"
)

// ShrinkOptions bounds the shrink search.
type ShrinkOptions struct {
	// MaxRuns bounds predicate evaluations (default 300). Each
	// evaluation typically re-runs the full oracle lattice.
	MaxRuns int
}

// Shrink minimizes a case while failing(candidate) keeps returning true.
// It returns the smallest failing case found (the original case when it
// is not shrinkable or no reduction survives). The returned case retains
// the original seed for provenance, but its source is authoritative.
func Shrink(c *Case, failing func(*Case) bool, opts ShrinkOptions) *Case {
	if c.spec == nil {
		return c
	}
	maxRuns := opts.MaxRuns
	if maxRuns <= 0 {
		maxRuns = 300
	}
	best := c.spec.clone()
	runs := 0
	// try re-renders a candidate; it becomes the new best iff it still
	// compiles and still fails.
	try := func(cand *progSpec) bool {
		if runs >= maxRuns {
			return false
		}
		cand.fixOutputs()
		cc := cand.Case()
		if _, err := clc.Compile(cc.Source); err != nil {
			return false
		}
		runs++
		if failing(cc) {
			best = cand
			return true
		}
		return false
	}

	for pass := 0; pass < 8; pass++ {
		progress := false

		// Pass 1: drop droppable statements, last first (later statements
		// depend on earlier declarations, never the reverse).
		drop := droppable(refCounts(best))
		for i := countStmts(best, drop) - 1; i >= 0; i-- {
			cand := best.clone()
			removeNthStmt(cand, i, drop)
			if try(cand) {
				progress = true
			}
		}

		// Pass 2: replace non-literal expression subtrees with literals.
		for i := countExprs(best) - 1; i >= 0; i-- {
			cand := best.clone()
			if literalizeNthExpr(cand, i) && try(cand) {
				progress = true
			}
		}

		// Pass 3: flatten compound conditions (if/ternary) to one leg.
		for i := countConds(best) - 1; i >= 0; i-- {
			cand := best.clone()
			if simplifyNthCond(cand, i) && try(cand) {
				progress = true
			}
		}

		// Pass 4: drop the local-memory/barrier pattern wholesale.
		if best.hasLocal {
			cand := best.clone()
			cand.dropLocal()
			if try(cand) {
				progress = true
			}
		}

		// Pass 5: remove unreferenced parameters (outF always stays).
		for _, name := range unusedParams(best) {
			cand := best.clone()
			cand.removeParam(name)
			if try(cand) {
				progress = true
			}
		}

		// Pass 6: reduce launch geometry (fewer groups, 2D -> 1D).
		for _, cand := range geometryCandidates(best) {
			if try(cand) {
				progress = true
				break
			}
		}

		// Pass 7: halve input buffer lengths (masks are re-derived).
		for bi := range best.bufs {
			b := &best.bufs[bi]
			if b.out || b.acc || b.ln <= 16 {
				continue
			}
			cand := best.clone()
			cand.shrinkBuffer(b.name, b.ln/2)
			if try(cand) {
				progress = true
			}
		}

		if !progress || runs >= maxRuns {
			break
		}
	}
	out := best.Case()
	out.Seed = c.Seed
	return out
}

// ---------------------------------------------------------------------------
// Deep cloning

func (e *expr) clone() *expr {
	if e == nil {
		return nil
	}
	c := *e
	c.a, c.b = e.a.clone(), e.b.clone()
	c.cnd = e.cnd.clone()
	if e.args != nil {
		c.args = make([]*expr, len(e.args))
		for i, a := range e.args {
			c.args[i] = a.clone()
		}
	}
	return &c
}

func (c *cnd) clone() *cnd {
	if c == nil {
		return nil
	}
	n := *c
	n.a, n.b = c.a.clone(), c.b.clone()
	n.l, n.r = c.l.clone(), c.r.clone()
	return &n
}

func cloneStmts(ss []*stmt) []*stmt {
	if ss == nil {
		return nil
	}
	out := make([]*stmt, len(ss))
	for i, s := range ss {
		out[i] = s.clone()
	}
	return out
}

func (s *stmt) clone() *stmt {
	if s == nil {
		return nil
	}
	n := *s
	n.rhs = s.rhs.clone()
	n.bound = s.bound.clone()
	n.cnd = s.cnd.clone()
	n.then = cloneStmts(s.then)
	n.els = cloneStmts(s.els)
	n.body = cloneStmts(s.body)
	return &n
}

func (p *progSpec) clone() *progSpec {
	n := *p
	n.bufs = append([]bufSpec(nil), p.bufs...)
	n.scalars = append([]scalarSpec(nil), p.scalars...)
	n.body = cloneStmts(p.body)
	return &n
}

// ---------------------------------------------------------------------------
// Statement dropping

// droppable reports, given the spec's reference counts, whether the
// shrinker may remove a statement wholesale. A declaration goes only when
// no expression reads it (a candidate that still assigns it does not
// compile and is rejected), the outF store stays (every case keeps one
// output write), and the local-memory pair is removed only by the
// dedicated dropLocal pass.
func droppable(refs map[string]int) func(s *stmt) bool {
	return func(s *stmt) bool {
		switch s.kind {
		case "decl", "colwalk":
			return refs[s.name] == 0
		case "barrier", "localwr":
			return false
		case "store":
			return s.bufName != "outF"
		}
		return true
	}
}

// walkStmtSlices visits every statement slice of the spec (the body plus
// every nested for/if slice), giving the visitor a chance to mutate it
// in place via the returned slice.
func walkStmtSlices(p *progSpec, visit func(ss []*stmt) []*stmt) {
	var rec func(ss []*stmt) []*stmt
	rec = func(ss []*stmt) []*stmt {
		ss = visit(ss)
		for _, s := range ss {
			s.body = rec(s.body)
			s.then = rec(s.then)
			s.els = rec(s.els)
		}
		return ss
	}
	p.body = rec(p.body)
}

func countStmts(p *progSpec, pred func(*stmt) bool) int {
	n := 0
	walkStmtSlices(p, func(ss []*stmt) []*stmt {
		for _, s := range ss {
			if pred(s) {
				n++
			}
		}
		return ss
	})
	return n
}

// removeNthStmt removes the nth (preorder) statement matching pred.
func removeNthStmt(p *progSpec, n int, pred func(*stmt) bool) {
	i := 0
	walkStmtSlices(p, func(ss []*stmt) []*stmt {
		for j, s := range ss {
			if !pred(s) {
				continue
			}
			if i == n {
				i++
				return append(append([]*stmt(nil), ss[:j]...), ss[j+1:]...)
			}
			i++
		}
		return ss
	})
}

// ---------------------------------------------------------------------------
// Expression literalization

// walkExprs visits every expression slot of the spec in a stable
// preorder. The visitor may replace the expression by returning a
// different one.
func walkExprs(p *progSpec, visit func(e *expr) *expr) {
	var recE func(e *expr) *expr
	var recC func(c *cnd)
	recE = func(e *expr) *expr {
		if e == nil {
			return nil
		}
		e = visit(e)
		e.a = recE(e.a)
		e.b = recE(e.b)
		if e.cnd != nil {
			recC(e.cnd)
		}
		for i, a := range e.args {
			e.args[i] = recE(a)
		}
		return e
	}
	recC = func(c *cnd) {
		if c == nil {
			return
		}
		c.a = recE(c.a)
		c.b = recE(c.b)
		recC(c.l)
		recC(c.r)
	}
	var recS func(ss []*stmt)
	recS = func(ss []*stmt) {
		for _, s := range ss {
			s.rhs = recE(s.rhs)
			s.bound = recE(s.bound)
			recC(s.cnd)
			recS(s.body)
			recS(s.then)
			recS(s.els)
		}
	}
	recS(p.body)
}

func countExprs(p *progSpec) int {
	n := 0
	walkExprs(p, func(e *expr) *expr {
		if e.op != "lit" {
			n++
		}
		return e
	})
	return n
}

// literalizeNthExpr replaces the nth non-literal expression with a small
// literal of its kind. Returns false when n was out of range.
func literalizeNthExpr(p *progSpec, n int) bool {
	i, done := 0, false
	walkExprs(p, func(e *expr) *expr {
		if e.op == "lit" || done {
			return e
		}
		if i == n {
			done = true
			if e.kind == vFloat {
				return &expr{kind: vFloat, op: "lit", lit: "1.0f"}
			}
			return intLitE(1)
		}
		i++
		return e
	})
	return done
}

// ---------------------------------------------------------------------------
// Condition simplification

// walkConds visits every condition node. The visitor may replace it.
func walkConds(p *progSpec, visit func(c *cnd) *cnd) {
	var recC func(c *cnd) *cnd
	recC = func(c *cnd) *cnd {
		if c == nil {
			return nil
		}
		c = visit(c)
		c.l = recC(c.l)
		c.r = recC(c.r)
		return c
	}
	var recE func(e *expr)
	recE = func(e *expr) {
		if e == nil {
			return
		}
		if e.cnd != nil {
			e.cnd = recC(e.cnd)
		}
		recE(e.a)
		recE(e.b)
		for _, a := range e.args {
			recE(a)
		}
	}
	var recS func(ss []*stmt)
	recS = func(ss []*stmt) {
		for _, s := range ss {
			if s.cnd != nil {
				s.cnd = recC(s.cnd)
			}
			recE(s.rhs)
			recE(s.bound)
			recS(s.body)
			recS(s.then)
			recS(s.els)
		}
	}
	recS(p.body)
}

func countConds(p *progSpec) int {
	n := 0
	walkConds(p, func(c *cnd) *cnd {
		if c.op != "cmp" {
			n++
		}
		return c
	})
	return n
}

// simplifyNthCond replaces the nth compound (and/or/not) condition with
// its left child.
func simplifyNthCond(p *progSpec, n int) bool {
	i, done := 0, false
	walkConds(p, func(c *cnd) *cnd {
		if c.op == "cmp" || done {
			return c
		}
		if i == n {
			done = true
			return c.l
		}
		i++
		return c
	})
	return done
}

// ---------------------------------------------------------------------------
// Structural passes

// dropLocal removes the local-array/barrier pattern: the localwr and
// barrier statements go, and every lbuf read is literalized.
func (p *progSpec) dropLocal() {
	p.hasLocal = false
	p.localLen = 0
	walkStmtSlices(p, func(ss []*stmt) []*stmt {
		out := ss[:0]
		for _, s := range ss {
			if s.kind == "localwr" || s.kind == "barrier" {
				continue
			}
			out = append(out, s)
		}
		return out
	})
	walkExprs(p, func(e *expr) *expr {
		if e.op == "idx" && e.name == "lbuf" {
			return &expr{kind: vFloat, op: "lit", lit: "1.0f"}
		}
		return e
	})
}

// refCounts returns how often each parameter name is referenced in the
// body (as a variable, an indexed buffer, a store target, or an atomic
// target).
func refCounts(p *progSpec) map[string]int {
	refs := map[string]int{}
	walkExprs(p, func(e *expr) *expr {
		if e.op == "var" || e.op == "idx" {
			refs[e.name]++
		}
		return e
	})
	walkStmtSlices(p, func(ss []*stmt) []*stmt {
		for _, s := range ss {
			switch s.kind {
			case "store", "atomic":
				refs[s.bufName]++
			case "colwalk":
				refs[s.bufName]++
				refs[s.xBuf]++
			}
		}
		return ss
	})
	return refs
}

// unusedParams lists removable parameters: never referenced, and not the
// mandatory outF output.
func unusedParams(p *progSpec) []string {
	refs := refCounts(p)
	var out []string
	for _, b := range p.bufs {
		if b.name != "outF" && refs[b.name] == 0 {
			out = append(out, b.name)
		}
	}
	for _, s := range p.scalars {
		if refs[s.name] == 0 {
			out = append(out, s.name)
		}
	}
	return out
}

// removeParam deletes a buffer or scalar parameter by name.
func (p *progSpec) removeParam(name string) {
	for i, b := range p.bufs {
		if b.name == name {
			p.bufs = append(append([]bufSpec(nil), p.bufs[:i]...), p.bufs[i+1:]...)
			if b.acc {
				p.atomicFam = 0
			}
			return
		}
	}
	for i, s := range p.scalars {
		if s.name == name {
			p.scalars = append(append([]scalarSpec(nil), p.scalars[:i]...), p.scalars[i+1:]...)
			return
		}
	}
}

// geometryCandidates proposes smaller launch geometries: halved group
// counts per dimension and a 2D -> 1D collapse.
func geometryCandidates(p *progSpec) []*progSpec {
	var out []*progSpec
	for d := 0; d < p.dims; d++ {
		groups := p.global[d] / p.local[d]
		if groups > 2 {
			cand := p.clone()
			cand.global[d] = cand.local[d] * (groups / 2)
			out = append(out, cand)
		}
	}
	if p.dims == 2 {
		cand := p.clone()
		cand.dims = 1
		cand.local = [2]int{4, 0}
		cand.global = [2]int{8, 0}
		out = append(out, cand)
	}
	return out
}

// shrinkBuffer halves one input buffer and re-derives every mask bound
// to it (masks equal len-1; unmasked trappy reads stay unmasked).
func (p *progSpec) shrinkBuffer(name string, newLen int) {
	for i := range p.bufs {
		if p.bufs[i].name == name {
			p.bufs[i].ln = newLen
		}
	}
	walkExprs(p, func(e *expr) *expr {
		if e.op == "idx" && e.name == name && e.mask > 0 {
			e.mask = newLen - 1
		}
		return e
	})
	walkStmtSlices(p, func(ss []*stmt) []*stmt {
		for _, s := range ss {
			if s.kind != "colwalk" {
				continue
			}
			if s.bufName == name {
				s.aLen = newLen
			}
			if s.xBuf == name {
				s.xLen = newLen
			}
		}
		return ss
	})
}

// fixOutputs re-derives the derived fields after structural mutation:
// output buffer lengths track the launch geometry, and the local array
// tracks the group size.
func (p *progSpec) fixOutputs() {
	items := p.totalItems()
	for i := range p.bufs {
		if p.bufs[i].out && !p.bufs[i].acc {
			p.bufs[i].ln = items
		}
	}
	if p.hasLocal {
		p.localLen = p.local[0]
		// Re-derive lbuf masks against the (possibly changed) group size.
		walkExprs(p, func(e *expr) *expr {
			if e.op == "idx" && e.name == "lbuf" && e.mask > 0 {
				e.mask = p.localLen - 1
			}
			return e
		})
	}
}
