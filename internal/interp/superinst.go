package interp

// The fused FMA loop. Every float32 accumulation `acc += [s *] A[i] * X[j]`
// whose multiplicands are global loads lowers to one opFMATermF32, whose
// operands sit in the program's term table (fmaTerm). A lowering peephole
// (fuseFMALoops) rewrites the head of a loop whose whole body is one or
// two terms into opFMALoopF32, and runFMALoop then runs the loop's
// zero-trip guard and, when the trip and every address are computable up
// front and the closed form has a loop for the shape, the whole loop in
// closed form outside the dispatch switch. The head is the guard — the
// compare-and-branch in front of the body that skips a loop whose
// condition fails on entry — and keeps its compare, count and exit
// target. Only the head instruction's opcode and norm are rewritten; the
// body and the back edge stay in place, so a loop the closed form
// declines continues into its unfused body, and the back edge's jump into
// the window executes the exact unfused semantics.
//
// The closed form carries each accumulator as a float32 for the whole
// trip. The closure engine widens the sum to float64 after every add, but
// float32(float64(v)) == v for every float32 v, so that widening is an
// identity and the sequence of float32 roundings is the same; what it
// costs is a convert-add-convert chain of about 14 cycles per iteration,
// against 4 for the float32 add alone. Dropping it took a traced relaunch
// of ATAX1 from 3.24 to 0.91 ms and GESUMMV from 3.52 to 1.10 ms, and
// fusing SYR2K's loop took it from 17.6 to 1.29 ms (2-core Xeon; DESIGN.md
// § The fused FMA loop).

import (
	"slices"

	"dopia/internal/clc"
)

// fmaRef is one global float32 load of a fused term: the buffer's
// parameter slot and memory site, and the element index — the register
// r0, or, when ma, the absorbed multiply-add
// n32(n32(ir[r0]*ir[r1]) + ir[r2]) with its AluInt += 2.
type fmaRef struct {
	slot, site int32
	ma         bool
	r0, r1, r2 int32
}

// index evaluates the reference's element index.
func (r *fmaRef) index(ir []int64) int64 {
	if r.ma {
		return int64(int32(int64(int32(ir[r.r0]*ir[r.r1])) + ir[r.r2]))
	}
	return ir[r.r0]
}

// aluI is the integer statistics evaluating the index counts.
func (r *fmaRef) aluI() int64 {
	if r.ma {
		return 2
	}
	return 0
}

// fmaTerm is the operand record of one opFMATermF32 (bcProgram.terms):
// fr[acc] += f32(A*X), or f32(f32(s*A)*X) when scaled, where s is the
// float register sReg or, when sReg < 0, the float32-rounded literal sLit.
type fmaTerm struct {
	acc    int32
	scaled bool
	sReg   int32
	sLit   float64
	a, x   fmaRef
}

// aluF is the float statistics the term counts: the add and one
// multiply per factor after the first.
func (t *fmaTerm) aluF() int64 {
	if t.scaled {
		return 3
	}
	return 2
}

// scale reads the term's scale factor.
func (t *fmaTerm) scale(fr []float64) float64 {
	if t.sReg < 0 {
		return t.sLit
	}
	return fr[t.sReg]
}

// fmaProduct is a term's product rounded exactly as the closure engine
// rounds it: f32(f64(a)*f64(x)), and f32(f32(s*f64(a))*f64(x)) when
// scaled. The float64 product of two float32 values is exact (48 <= 53
// mantissa bits), so rounding it equals the float32 multiply; only s*a,
// whose s is a float64, is formed wide. The explicit float32 conversions
// are fusion barriers: the Go spec lets x*y+z become a hardware FMA only
// when no explicit rounding intervenes.
func fmaProduct(scaled bool, s float64, a, x float32) float32 {
	if scaled {
		return float32(float32(s*float64(a)) * x)
	}
	return float32(a * x)
}

// fuseFMALoops fuses every loop of a lowered program whose body is one
// or two opFMATermF32 instructions closed by an opIncJCmpI whose back
// edge targets the body's first instruction, and which is entered through
// its zero-trip guard. The guard becomes the head; its norm keeps the
// compare code in the low four bits and takes the body length above them.
func fuseFMALoops(p *bcProgram) {
	for _, code := range p.segments {
		for pc := range code {
			inc := &code[pc]
			if inc.op != opIncJCmpI {
				continue
			}
			first := int(inc.imm)
			n := pc - first
			if first < 1 || n < 1 || n > 2 {
				continue
			}
			g := &code[first-1]
			body := code[first:pc]
			if !loopGuard(g, inc, pc+1) || slices.ContainsFunc(body, func(in instr) bool {
				return in.op != opFMATermF32
			}) || !fmaLoopFusible(p.terms, body) {
				continue
			}
			g.op = opFMALoopF32
			g.norm |= uint8(n) << 4
		}
	}
}

// loopGuard reports whether g is the zero-trip guard of the loop closed by
// the back edge inc: an opJCmpI that leaves for exit when the back edge's
// compare fails on entry.
func loopGuard(g, inc *instr, exit int) bool {
	return g.op == opJCmpI && g.a == inc.a && g.b == inc.b && g.norm == inc.norm&0xf && g.imm == int64(exit)
}

// fmaHead is a fused loop head decoded: its body length, and the pcs of
// the first term and of the back edge.
func fmaHead(code []instr, head int) (n, first, back int) {
	n = int(code[head].norm >> 4)
	return n, head + 1, head + 1 + n
}

// colWalkHead reports whether the fused head at code[head] is a column
// walk: one unscaled term whose A index has the induction as a
// multiplicand (A[j*N + i]) and whose X index is the induction itself,
// advancing by 1. ATAX2, BICG1 and MVT2 are column walks.
func colWalkHead(code []instr, head int, terms []fmaTerm) bool {
	n, first, back := fmaHead(code, head)
	if n != 1 {
		return false
	}
	t, inc := &terms[code[first].imm], &code[back]
	j := inc.dst
	return !t.scaled && t.a.ma && (t.a.r0 == j) != (t.a.r1 == j) && t.a.r2 != j &&
		!t.x.ma && t.x.r0 == j && inc.c == 1
}

// fmaLoopFusible checks the safety conditions the fused-loop executor
// relies on beyond the opcode shape: all touched sites distinct (the
// executor tracks classifier runs per site occurrence, which is only
// per-access-identical when no two occurrences alias one site), and no
// scale read from an accumulator (the executor reads each scale once per
// loop, so it must be loop-invariant). The two terms may share their
// accumulator (SYR2K) or keep one each (GESUMMV).
func fmaLoopFusible(terms []fmaTerm, body []instr) bool {
	var sites []int32
	for i := range body {
		t := &terms[body[i].imm]
		sites = append(sites, t.a.site, t.x.site)
	}
	for i := range sites {
		for j := i + 1; j < len(sites); j++ {
			if sites[i] == sites[j] {
				return false
			}
		}
	}
	for i := range body {
		t := &terms[body[i].imm]
		for j := range body {
			if t.scaled && t.sReg >= 0 && t.sReg == terms[body[j].imm].acc {
				return false
			}
		}
	}
	return true
}

// fmaLoopTrap describes a bounds trap raised inside a fused FMA term.
type fmaLoopTrap struct {
	pos    clc.Pos
	idx, n int64
}

// fmaLoopCounters are the statistic deltas of one fused-term or
// fused-loop execution, merged into the caller's batched counter locals.
type fmaLoopCounters struct {
	aluI, aluF, loads, loadB int64
}

// fmaOperand is one term of a fused execution with its buffers, scale,
// trap positions and site states hoisted out of the iteration.
type fmaOperand struct {
	*fmaTerm
	s            float64 // the scale's value; loop-invariant by fmaLoopFusible
	fA, fX       []float32
	baseA, baseX int64
	posA, posX   clc.Pos
	stA, stX     *siteState
	pa, px       affIdx // the closed form's address progressions
}

// decodeTerm hoists the operands of in: an opFMATermF32, or the fused
// loop head that replaced one.
func decodeTerm(in *instr, terms []fmaTerm, fr []float64, bufs []*Buffer, sites []siteState) fmaOperand {
	t := &terms[in.imm]
	bA, bX := bufs[t.a.slot], bufs[t.x.slot]
	return fmaOperand{
		fmaTerm: t,
		s:       t.scale(fr),
		fA:      bA.F32, fX: bX.F32,
		baseA: bA.Base, baseX: bX.Base,
		posA: in.pos, posX: in.pos2,
		stA: &sites[t.a.site], stX: &sites[t.x.site],
	}
}

// step runs one iteration of the term in the closure engine's order —
// count the add and the multiplies; evaluate A's index, bounds-check and
// record the load; then the same for X — adding its statistics to c. It
// returns the product, or the trap of the failing bounds check.
func (f *fmaOperand) step(ir []int64, classify bool, wi int64, c *fmaLoopCounters) (float32, *fmaLoopTrap) {
	c.aluF += f.aluF()
	c.aluI += f.a.aluI()
	ia := f.a.index(ir)
	if uint64(ia) >= uint64(len(f.fA)) {
		return 0, &fmaLoopTrap{pos: f.posA, idx: ia, n: int64(len(f.fA))}
	}
	c.loads++
	c.loadB += 4
	if classify {
		f.stA.recordAccess(f.baseA+ia*4, 4, wi)
	}
	c.aluI += f.x.aluI()
	ix := f.x.index(ir)
	if uint64(ix) >= uint64(len(f.fX)) {
		return 0, &fmaLoopTrap{pos: f.posX, idx: ix, n: int64(len(f.fX))}
	}
	c.loads++
	c.loadB += 4
	if classify {
		f.stX.recordAccess(f.baseX+ix*4, 4, wi)
	}
	return fmaProduct(f.scaled, f.s, f.fA[ia], f.fX[ix]), nil
}

// runFMATerm executes the opFMATermF32 at pc `at`: a term outside a
// fused loop, or the body of a fused loop the closed form declined. Like
// runFMALoop it takes the code and a pc, not the instruction or the term
// table: every extra value live across these calls costs the dispatch
// loop in execBC spills on every instruction it dispatches.
func (rs *runState) runFMATerm(code []instr, at int, ir []int64, fr []float64, bufs []*Buffer,
	sites []siteState, classify bool, wi int64,
) (c fmaLoopCounters, trap *fmaLoopTrap) {
	f := decodeTerm(&code[at], rs.ex.prog.terms, fr, bufs, sites)
	p, trap := f.step(ir, classify, wi, &c)
	if trap == nil {
		fr[f.acc] = float64(float32(fr[f.acc]) + p)
	}
	return c, trap
}

// fits32 reports whether v survives an int32 round trip.
func fits32(v int64) bool { return int64(int32(v)) == v }

// affIdx is the address progression of one fused-loop operand: the
// element indexes of the first and last iteration plus the per-iteration
// delta (0 for loop-invariant indexes).
type affIdx struct {
	first, last, delta int64
}

// affRef maps one term operand's index onto an address progression over
// the induction values j0, j0+step, ..., jLast, or reports ok=false when
// the index is not affine in the induction (the induction times itself)
// or its progression cannot be formed exactly (a multiplicand or addend
// beyond int32). Every register but the induction is loop-invariant: the
// body writes no other int register.
func affRef(r *fmaRef, ir []int64, incDst int32, j0, jLast, step int64) (ai affIdx, ok bool) {
	if !r.ma {
		if r.r0 == incDst {
			return affIdx{first: j0, last: jLast, delta: step}, true
		}
		return affIdx{first: ir[r.r0], last: ir[r.r0]}, true
	}
	// ia = n32(n32(ir[r0]*ir[r1]) + ir[r2]).
	switch {
	case r.r0 == incDst && r.r1 == incDst:
		return ai, false
	case r.r0 == incDst || r.r1 == incDst:
		// The induction feeds the multiply — the column walk A[j*N + i],
		// or A[j*N + j] when it is the addend too. The progression is
		// formed in exact int64 arithmetic (every factor fits int32). The
		// per-iteration index is that exact value reduced mod 2^32 — n32
		// is a ring homomorphism — so wherever the exact value fits int32
		// the two truncations were identities.
		m := ir[r.r0]
		if r.r0 == incDst {
			m = ir[r.r1]
		}
		if !fits32(m) {
			return ai, false
		}
		ai = affIdx{first: j0 * m, last: jLast * m, delta: step * m}
		if r.r2 == incDst {
			ai = affIdx{first: ai.first + j0, last: ai.last + jLast, delta: ai.delta + step}
		} else if c := ir[r.r2]; fits32(c) {
			ai.first, ai.last = ai.first+c, ai.last+c
		} else {
			return ai, false
		}
	case r.r2 == incDst:
		prod := int64(int32(ir[r.r0] * ir[r.r1]))
		ai = affIdx{first: prod + j0, last: prod + jLast, delta: step}
	default:
		ia := r.index(ir)
		ai = affIdx{first: ia, last: ia}
	}
	// Both ends inside int32 put every index between them there, which
	// is what makes the analytic index the truncated one.
	return ai, fits32(ai.first) && fits32(ai.last)
}

// inRange reports whether every address of the progression lies inside
// [0, n) — endpoints suffice, the progression is arithmetic.
func (ai affIdx) inRange(n int64) bool {
	lo, hi := ai.first, ai.last
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo >= 0 && hi < n
}

// resolve fills the operand's address progressions, reporting whether
// both are affine and in bounds for the whole trip.
func (f *fmaOperand) resolve(ir []int64, incDst int32, j0, jLast, step int64) bool {
	var okA, okX bool
	f.pa, okA = affRef(&f.a, ir, incDst, j0, jLast, step)
	f.px, okX = affRef(&f.x, ir, incDst, j0, jLast, step)
	return okA && okX && f.pa.inRange(int64(len(f.fA))) && f.px.inRange(int64(len(f.fX)))
}

// affFlush replays trips accesses of one site analytically: seed the
// chain through recordAccess exactly like the first access, then batch
// the remaining constant-delta run. Bit-identical to recording every
// access because the delta stream is uniform by construction.
func affFlush(st *siteState, base int64, ai affIdx, trips, wi int64) {
	st.recordAccess(base+ai.first*4, 4, wi)
	if trips > 1 {
		st.iter.ObserveRun(ai.delta, trips-1)
		st.count += trips - 1
		st.bytes += 4 * (trips - 1)
		st.prevAddr = base + ai.last*4
	}
}

// runFMALoopAffine is the analytic fast path of the fused-loop
// executor: when the trip count is computable up front (signed
// compare against a loop-invariant bound, non-truncating induction),
// every address progression is affine in the induction and provably in
// bounds for the whole trip, and the closed form has a loop for the
// shape, the loop body reduces to pure loads and FMAs — counters and
// classifier state are closed-form functions of the trip count,
// bit-identical to the per-iteration bookkeeping. The shapes are the
// unscaled one-term row and column walks, the unscaled row-walk pair on
// two accumulators (GESUMMV) and the scaled row-walk pair on one
// (SYR2K). Returns ok=false (with no state touched) whenever any
// precondition fails; the loop then runs its unfused body.
func (rs *runState) runFMALoopAffine(f1, f2 *fmaOperand, two bool, inc *instr,
	ir []int64, fr []float64, classify bool, wi int64,
) (cnt fmaLoopCounters, ok bool) {
	lt, ok := tripCount(inc, ir)
	if !ok {
		return cnt, false
	}
	incDst, step, trips := inc.dst, int64(inc.c), lt.trips
	if !f1.resolve(ir, incDst, lt.j0, lt.jLast, step) || two && !f2.resolve(ir, incDst, lt.j0, lt.jLast, step) {
		return cnt, false
	}

	acc := float32(fr[f1.acc])
	switch {
	case !two && !f1.scaled && f1.px.delta == 1:
		x := f1.fX[f1.px.first : f1.px.first+trips]
		if f1.pa.delta == 1 {
			acc = dotRow(acc, f1.fA[f1.pa.first:f1.pa.first+trips], x)
		} else {
			acc = dotCol(acc, f1.fA, f1.pa.first, f1.pa.delta, x)
		}
	case !two || !f1.unitRows() || !f2.unitRows() || f1.scaled != f2.scaled:
		return cnt, false
	case f1.acc != f2.acc && !f1.scaled:
		a1, x1 := f1.rows(trips)
		a2, x2 := f2.rows(trips)
		var acc2 float32
		acc, acc2 = dotRowPair(acc, float32(fr[f2.acc]), a1, x1, a2, x2)
		fr[f2.acc] = float64(acc2)
	case f1.acc == f2.acc && f1.scaled:
		a1, x1 := f1.rows(trips)
		a2, x2 := f2.rows(trips)
		acc = dotRowShared(acc, f1.s, f2.s, a1, x1, a2, x2)
	default:
		return cnt, false
	}
	fr[f1.acc] = float64(acc)
	ir[incDst] = lt.jEnd

	cnt = f1.tripCounters(trips, true)
	if classify {
		affFlush(f1.stA, f1.baseA, f1.pa, trips, wi)
		affFlush(f1.stX, f1.baseX, f1.px, trips, wi)
	}
	if two {
		c2 := f2.tripCounters(trips, false)
		cnt.aluI += c2.aluI
		cnt.aluF += c2.aluF
		cnt.loads += c2.loads
		cnt.loadB += c2.loadB
		if classify {
			affFlush(f2.stA, f2.baseA, f2.pa, trips, wi)
			affFlush(f2.stX, f2.baseX, f2.px, trips, wi)
		}
	}
	return cnt, true
}

// unitRows reports whether both of the operand's progressions advance by
// one element per iteration.
func (f *fmaOperand) unitRows() bool { return f.pa.delta == 1 && f.px.delta == 1 }

// rows returns the stretches of A and X a unit-row operand reads in
// trips iterations.
func (f *fmaOperand) rows(trips int64) (a, x []float32) {
	return f.fA[f.pa.first : f.pa.first+trips], f.fX[f.px.first : f.px.first+trips]
}

// tripCounters are the statistics of trips iterations of one term, with
// the back edge's two integer operations per iteration when backEdge.
func (t *fmaTerm) tripCounters(trips int64, backEdge bool) fmaLoopCounters {
	aluI := t.a.aluI() + t.x.aluI()
	if backEdge {
		aluI += 2
	}
	return fmaLoopCounters{aluI: aluI * trips, aluF: t.aluF() * trips, loads: 2 * trips, loadB: 8 * trips}
}

// loopTrip is a fused loop's trip in closed form: the induction's value
// on entry, in the last iteration and at the exit, and the iteration
// count.
type loopTrip struct {
	j0, jLast, jEnd, trips int64
}

// tripCount computes the trip of the fused loop closed by the back edge
// inc, entered (its guard holding) with the registers ir: the compare is
// signed against a loop-invariant bound and the induction does not
// truncate. ok is false when the trip cannot be computed up front.
func tripCount(inc *instr, ir []int64) (lt loopTrip, ok bool) {
	incDst := inc.dst
	incNorm := inc.norm >> 4
	code := inc.norm & 0xf
	step := int64(inc.c)
	if step == 0 || code&cmpU != 0 || (incNorm != normNone && incNorm != normI32) {
		return lt, false
	}

	// Exactly one compare operand must be the induction register; the
	// other is loop-invariant (the body writes no other int register).
	var bound int64
	switch {
	case inc.a == incDst && inc.b != incDst:
		bound = ir[inc.b]
	case inc.b == incDst && inc.a != incDst:
		bound = ir[inc.a]
		// Mirror the compare so the induction reads as the left side.
		switch code {
		case cmpLt:
			code = cmpGt
		case cmpGt:
			code = cmpLt
		case cmpLe:
			code = cmpGe
		case cmpGe:
			code = cmpLe
		}
	default:
		return lt, false
	}
	j0 := ir[incDst]
	if !fits32(j0) || !fits32(bound) || !fits32(step) {
		return lt, false
	}

	// Closed-form do-while trip count: the body runs once, then once
	// more per post-increment value satisfying the compare.
	var num int64
	switch {
	case step > 0 && code == cmpLt:
		num = bound - 1 - j0
	case step > 0 && code == cmpLe:
		num = bound - j0
	case step < 0 && code == cmpGt:
		num = j0 - bound - 1
	case step < 0 && code == cmpGe:
		num = j0 - bound
	default:
		return lt, false
	}
	trips := int64(1)
	if num >= 0 {
		abs := step
		if abs < 0 {
			abs = -abs
		}
		trips = 1 + num/abs
	}
	// The last induction value the body sees lies between j0 and bound,
	// so it fits int32 like they do; the exit value may be one step past.
	jLast := j0 + (trips-1)*step
	jEnd := jLast + step
	if incNorm == normI32 && !fits32(jEnd) {
		return lt, false // the unfused loop's truncation would wrap
	}
	return loopTrip{j0: j0, jLast: jLast, jEnd: jEnd, trips: trips}, true
}

// The closed form's loops. Each keeps its accumulators in float32
// registers and sits in a small function of its own, so the register
// allocator does not spill them; unit-stride operands are resliced to the
// trip so the compiler drops their bounds checks.

func dotRow(acc float32, a, x []float32) float32 {
	a = a[:len(x)]
	for i, xv := range x {
		acc += float32(a[i] * xv)
	}
	return acc
}

func dotCol(acc float32, a []float32, ia, da int64, x []float32) float32 {
	for _, xv := range x {
		acc += float32(a[ia] * xv)
		ia += da
	}
	return acc
}

// blockW is the number of adjacent column walks a blocked pass runs
// together (park.go): eight float32 accumulators fit the registers, and
// eight columns span 32 bytes of one row.
const blockW = 8

// dotCol8 runs blockW column walks over the adjacent columns ia, ia+1,
// ..., ia+blockW-1 of a against one vector x, row by row, so each step
// reads one stretch of a row instead of blockW rows far apart. Every
// accumulator takes its products in dotCol's order, so each result is
// bit-identical to that column's own walk.
func dotCol8(acc *[blockW]float32, a []float32, ia, da int64, x []float32) {
	a0, a1, a2, a3, a4, a5, a6, a7 := acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7]
	for _, xv := range x {
		r := (*[blockW]float32)(a[ia : ia+blockW])
		a0 += float32(r[0] * xv)
		a1 += float32(r[1] * xv)
		a2 += float32(r[2] * xv)
		a3 += float32(r[3] * xv)
		a4 += float32(r[4] * xv)
		a5 += float32(r[5] * xv)
		a6 += float32(r[6] * xv)
		a7 += float32(r[7] * xv)
		ia += da
	}
	*acc = [blockW]float32{a0, a1, a2, a3, a4, a5, a6, a7}
}

func dotRowPair(acc1, acc2 float32, a1, x1, a2, x2 []float32) (float32, float32) {
	a1, a2, x2 = a1[:len(x1)], a2[:len(x1)], x2[:len(x1)]
	for i, xv := range x1 {
		acc1 += float32(a1[i] * xv)
		acc2 += float32(a2[i] * x2[i])
	}
	return acc1, acc2
}

func dotRowShared(acc float32, s1, s2 float64, a1, x1, a2, x2 []float32) float32 {
	a1, a2, x2 = a1[:len(x1)], a2[:len(x1)], x2[:len(x1)]
	for i, xv := range x1 {
		acc += float32(float32(s1*float64(a1[i])) * xv)
		acc += float32(float32(s2*float64(a2[i])) * x2[i])
	}
	return acc
}

// runFMALoop executes a fused FMA loop head (opFMALoopF32 at pc `head`)
// for one work-item: the zero-trip guard, then the whole loop in closed
// form. It returns the pc to continue at — the loop's exit, or the first
// term of the body when the closed form declines, so that dispatch runs
// the unfused body and its back edge — and the statistic deltas to merge
// into the caller's batched counters.
func (rs *runState) runFMALoop(code []instr, head int, ir []int64, fr []float64,
	bufs []*Buffer, sites []siteState, classify bool, wi int64,
) (next int, cnt fmaLoopCounters) {
	g := &code[head]
	cnt.aluI = int64(g.c)
	if !cmpIRegs(g.norm&0xf, ir[g.a], ir[g.b]) {
		return int(g.imm), cnt
	}
	n, first, back := fmaHead(code, head)
	terms := rs.ex.prog.terms
	f1 := decodeTerm(&code[first], terms, fr, bufs, sites)
	var f2 fmaOperand
	if n == 2 {
		f2 = decodeTerm(&code[first+1], terms, fr, bufs, sites)
	}
	if c, ok := rs.runFMALoopAffine(&f1, &f2, n == 2, &code[back], ir, fr, classify, wi); ok {
		rs.affineLoops++
		c.aluI += cnt.aluI
		return int(g.imm), c
	}
	rs.unfusedLoops++
	return first, cnt
}
