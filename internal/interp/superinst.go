package interp

// The fused FMA loop. Lowering emits every float32 accumulation
// `acc += [s *] A[i] * X[j]` as generic code (tryFMA): the statistics
// pre-payment, each global load with the multiply-add of its index, the
// scale's multiply and one opFMAAF32. A peephole (fuseFMALoops)
// recognises a loop whose whole body is one or two such accumulations,
// records their operands in the program's term table (fmaTerm) and
// rewrites the loop's head into opFMALoopF32; runFMALoop then runs the
// loop's zero-trip guard and, when the trip and every address are
// computable up front and the closed form has a loop for the shape, the
// whole loop in closed form outside the dispatch switch. The head is the
// guard — the compare-and-branch in front of the body that skips a loop
// whose condition fails on entry — and keeps its compare, count and exit
// target. Only the head instruction's opcode, norm and k are rewritten;
// the body and the back edge stay in place, so a loop the closed form
// declines continues into its generic body, which executes the exact
// unfused semantics.
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

import "slices"

// fmaRef is one global float32 load of a fused term: the buffer's
// parameter slot and memory site, and the element index — the register
// r0, or, when ma, the multiply-add n32(n32(ir[r0]*ir[r1]) + ir[r2]) that
// computed it.
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

// fmaTerm is one accumulation of a fused loop's body (bcProgram.terms):
// fr[acc] += f32(A*X), or f32(f32(s*A)*X) when scaled, where s is the
// float register sReg (a literal scale's is a constant register). aluI and
// aluF are what one iteration of the term's code counts.
type fmaTerm struct {
	acc        int32
	scaled     bool
	sReg       int32
	a, x       fmaRef
	aluI, aluF int64
}

// fuseFMALoops fuses every loop of a lowered program whose body is one or
// two accumulations in the generic code matchTerm reads, closed by an
// opIncJCmpI whose back edge targets the body's first instruction, and
// which is entered through its zero-trip guard. The guard becomes the
// head: its norm keeps the compare code in the low four bits and takes
// the term count above them, and k is the first term's index in p.terms.
// Registers below baseI and baseF are variables and constants; those from
// them up are statement temporaries, dead once the loop is left, so the
// closed form need not write them.
func fuseFMALoops(p *bcProgram, baseI, baseF int32) {
	for _, code := range p.segments {
		for pc := range code {
			inc := &code[pc]
			if inc.op != opIncJCmpI {
				continue
			}
			first := int(inc.imm)
			if first < 1 || first >= pc || !loopGuard(&code[first-1], inc, pc+1) {
				continue
			}
			var terms []fmaTerm
			for body := code[first:pc]; len(body) > 0; {
				t, n, ok := matchTerm(body, baseI, baseF)
				if !ok {
					terms = nil
					break
				}
				terms, body = append(terms, t), body[n:]
			}
			if len(terms) == 0 || len(terms) > 2 || !fmaLoopFusible(terms) {
				continue
			}
			g := &code[first-1]
			g.op = opFMALoopF32
			g.norm |= uint8(len(terms)) << 4
			g.k = int32(len(p.terms))
			p.terms = append(p.terms, terms...)
		}
	}
}

// matchTerm reads one accumulation from the front of body, in the code
// tryFMA emits for `acc += [s *] A[ia] * X[ix]`:
//
//	[opStat] [opMulAddI] opLdGF32 [opMulF] [opMulAddI] opLdGF32 opFMAAF32
//
// Each multiply-add computes its load's index into a temporary from
// non-temporaries, a load without one is indexed by a non-temporary, the
// multiply scales A's load by a float non-temporary, and the accumulator
// is a float non-temporary. It returns the term and the number of
// instructions it spans. Every instruction matched writes a temporary or
// the accumulator, so the body's other registers are loop-invariant but
// for the induction.
func matchTerm(body []instr, baseI, baseF int32) (t fmaTerm, n int, ok bool) {
	next := func(op opcode) *instr {
		if n < len(body) && body[n].op == op {
			n++
			return &body[n-1]
		}
		return nil
	}
	load := func(r *fmaRef) (int32, bool) {
		idx := int32(-1)
		if ma := next(opMulAddI); ma != nil {
			if ma.a >= baseI || ma.b >= baseI || ma.c >= baseI || ma.dst < baseI {
				return 0, false
			}
			t.aluI += int64(ma.norm)
			r.ma, r.r0, r.r1, r.r2, idx = true, ma.a, ma.b, ma.c, ma.dst
		}
		ld := next(opLdGF32)
		if ld == nil || ld.dst < baseF || r.ma && ld.a != idx || !r.ma && ld.a >= baseI {
			return 0, false
		}
		r.slot, r.site = ld.slot, ld.site
		if !r.ma {
			r.r0 = ld.a
		}
		return ld.dst, true
	}
	if s := next(opStat); s != nil {
		t.aluI, t.aluF = int64(s.c), int64(s.k)
	}
	a, ok := load(&t.a)
	if !ok {
		return t, 0, false
	}
	if mul := next(opMulF); mul != nil {
		if mul.norm != normF32 || mul.a >= baseF || mul.b != a || mul.dst < baseF {
			return t, 0, false
		}
		t.aluF += int64(mul.c)
		t.scaled, t.sReg, a = true, mul.a, mul.dst
	}
	x, ok := load(&t.x)
	fma := next(opFMAAF32)
	if !ok || fma == nil || fma.a != a || fma.b != x || a == x || fma.dst >= baseF {
		return t, 0, false
	}
	t.aluF += int64(fma.norm)
	t.acc = fma.dst
	return t, n, true
}

// loopGuard reports whether g is the zero-trip guard of the loop closed by
// the back edge inc: an opJCmpI that leaves for exit when the back edge's
// compare fails on entry.
func loopGuard(g, inc *instr, exit int) bool {
	return g.op == opJCmpI && g.a == inc.a && g.b == inc.b && g.norm == inc.norm&0xf && g.imm == int64(exit)
}

// fmaHead decodes the fused loop head at code[head]: its terms, and its
// back edge, the instruction before its exit.
func (p *bcProgram) fmaHead(code []instr, head int) (terms []fmaTerm, back *instr) {
	g := &code[head]
	return p.terms[g.k : g.k+int32(g.norm>>4)], &code[g.imm-1]
}

// colWalkHead reports whether the fused head at code[head] is a column
// walk: one unscaled term whose A index has the induction as a
// multiplicand (A[j*N + i]) and whose X index is the induction itself,
// advancing by 1. ATAX2, BICG1 and MVT2 are column walks.
func (p *bcProgram) colWalkHead(code []instr, head int) bool {
	terms, inc := p.fmaHead(code, head)
	if len(terms) != 1 {
		return false
	}
	t, j := &terms[0], inc.dst
	return !t.scaled && t.a.ma && (t.a.r0 == j) != (t.a.r1 == j) && t.a.r2 != j &&
		!t.x.ma && t.x.r0 == j && inc.c == 1
}

// fmaLoopFusible checks the safety conditions the fused-loop executor
// relies on beyond the code's shape: all touched sites distinct (the
// executor tracks classifier runs per site occurrence, which is only
// per-access-identical when no two occurrences alias one site), and no
// scale read from an accumulator (the executor reads each scale once per
// loop, so it must be loop-invariant). The two terms may share their
// accumulator (SYR2K) or keep one each (GESUMMV).
func fmaLoopFusible(terms []fmaTerm) bool {
	var sites []int32
	for i := range terms {
		sites = append(sites, terms[i].a.site, terms[i].x.site)
	}
	for i := range sites {
		if slices.Contains(sites[i+1:], sites[i]) {
			return false
		}
	}
	for i := range terms {
		for j := range terms {
			if terms[i].scaled && terms[i].sReg == terms[j].acc {
				return false
			}
		}
	}
	return true
}

// fmaLoopCounters are the statistic deltas of one fused-loop execution,
// merged into the caller's batched counter locals.
type fmaLoopCounters struct {
	aluI, aluF, loads, loadB int64
}

// loopCounters are the statistics of trips iterations of a fused loop:
// each term's code, its two loads, and the back edge's increment and
// compare.
func loopCounters(terms []fmaTerm, trips int64) (c fmaLoopCounters) {
	c.aluI = 2
	for i := range terms {
		c.aluI += terms[i].aluI
		c.aluF += terms[i].aluF
	}
	n := int64(len(terms))
	return fmaLoopCounters{aluI: c.aluI * trips, aluF: c.aluF * trips, loads: 2 * n * trips, loadB: 8 * n * trips}
}

// fmaOperand is one term of a fused execution with its buffers, scale and
// site states hoisted out of the iteration.
type fmaOperand struct {
	*fmaTerm
	s            float64 // the scale's value; loop-invariant by fmaLoopFusible
	fA, fX       []float32
	baseA, baseX int64
	stA, stX     *siteState
	pa, px       affIdx // the closed form's address progressions
}

// decodeTerm hoists the operands of t.
func decodeTerm(t *fmaTerm, fr []float64, bufs []*Buffer, sites []siteState) fmaOperand {
	bA, bX := bufs[t.a.slot], bufs[t.x.slot]
	f := fmaOperand{
		fmaTerm: t,
		fA:      bA.F32, fX: bX.F32,
		baseA: bA.Base, baseX: bX.Base,
		stA: &sites[t.a.site], stX: &sites[t.x.site],
	}
	if t.scaled {
		f.s = fr[t.sReg]
	}
	return f
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
// the induction values j0, j0+1, ..., jLast, or reports ok=false when the
// index is not affine in the induction (the induction times itself) or
// its progression cannot be formed exactly (a multiplicand or addend
// beyond int32). Every register but the induction is loop-invariant: the
// body writes no other int register but temporaries, and no index reads
// one.
func affRef(r *fmaRef, ir []int64, incDst int32, j0, jLast int64) (ai affIdx, ok bool) {
	if !r.ma {
		if r.r0 == incDst {
			return affIdx{first: j0, last: jLast, delta: 1}, true
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
		ai = affIdx{first: j0 * m, last: jLast * m, delta: m}
		if r.r2 == incDst {
			ai = affIdx{first: ai.first + j0, last: ai.last + jLast, delta: ai.delta + 1}
		} else if c := ir[r.r2]; fits32(c) {
			ai.first, ai.last = ai.first+c, ai.last+c
		} else {
			return ai, false
		}
	case r.r2 == incDst:
		prod := int64(int32(ir[r.r0] * ir[r.r1]))
		ai = affIdx{first: prod + j0, last: prod + jLast, delta: 1}
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
func (f *fmaOperand) resolve(ir []int64, incDst int32, lt loopTrip) bool {
	var okA, okX bool
	f.pa, okA = affRef(&f.a, ir, incDst, lt.j0, lt.jLast)
	f.px, okX = affRef(&f.x, ir, incDst, lt.j0, lt.jLast)
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

// runFMALoopAffine is the closed form of a fused loop: when the trip
// count is computable up front (tripCount), every address progression is
// affine in the induction and provably in bounds for the whole trip, and
// the closed form has a loop for the shape, the loop body reduces to pure
// loads and FMAs — counters and classifier state are closed-form
// functions of the trip count, bit-identical to the per-iteration
// bookkeeping. The shapes are the unscaled one-term row and column walks,
// the unscaled row-walk pair on two accumulators (GESUMMV) and the scaled
// row-walk pair on one (SYR2K). Returns ok=false (with no state touched)
// whenever any precondition fails; the loop then runs its generic body.
func (rs *runState) runFMALoopAffine(f1, f2 *fmaOperand, terms []fmaTerm, inc *instr,
	ir []int64, fr []float64, classify bool, wi int64,
) (cnt fmaLoopCounters, ok bool) {
	lt, ok := tripCount(inc, ir)
	if !ok {
		return cnt, false
	}
	two, trips := len(terms) == 2, lt.trips
	if !f1.resolve(ir, inc.dst, lt) || two && !f2.resolve(ir, inc.dst, lt) {
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
	ir[inc.dst] = lt.jEnd

	if classify {
		affFlush(f1.stA, f1.baseA, f1.pa, trips, wi)
		affFlush(f1.stX, f1.baseX, f1.px, trips, wi)
		if two {
			affFlush(f2.stA, f2.baseA, f2.pa, trips, wi)
			affFlush(f2.stX, f2.baseX, f2.px, trips, wi)
		}
	}
	return loopCounters(terms, trips), true
}

// unitRows reports whether both of the operand's progressions advance by
// one element per iteration.
func (f *fmaOperand) unitRows() bool { return f.pa.delta == 1 && f.px.delta == 1 }

// rows returns the stretches of A and X a unit-row operand reads in
// trips iterations.
func (f *fmaOperand) rows(trips int64) (a, x []float32) {
	return f.fA[f.pa.first : f.pa.first+trips], f.fX[f.px.first : f.px.first+trips]
}

// loopTrip is a fused loop's trip in closed form: the induction's value
// on entry, in the last iteration and at the exit, and the iteration
// count.
type loopTrip struct {
	j0, jLast, jEnd, trips int64
}

// tripCount computes the trip of the fused loop closed by the back edge
// inc, entered (its guard holding) with the registers ir: the induction
// steps by +1 and does not truncate, and the compare is signed against a
// loop-invariant bound. ok is false when the trip cannot be computed up
// front; a downward loop is one.
func tripCount(inc *instr, ir []int64) (lt loopTrip, ok bool) {
	incDst := inc.dst
	incNorm := inc.norm >> 4
	code := inc.norm & 0xf
	if inc.c != 1 || code&cmpU != 0 || (incNorm != normNone && incNorm != normI32) {
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
		case cmpGt:
			code = cmpLt
		case cmpGe:
			code = cmpLe
		default:
			return lt, false
		}
	default:
		return lt, false
	}
	j0 := ir[incDst]
	if !fits32(j0) || !fits32(bound) {
		return lt, false
	}

	// Closed-form do-while trip count: the body runs once, then once
	// more per post-increment value satisfying the compare.
	var num int64
	switch code {
	case cmpLt:
		num = bound - 1 - j0
	case cmpLe:
		num = bound - j0
	default:
		return lt, false
	}
	trips := 1 + max(num, 0)
	// The last induction value the body sees lies between j0 and bound,
	// so it fits int32 like they do; the exit value may be one past.
	jLast := j0 + trips - 1
	if incNorm == normI32 && !fits32(jLast+1) {
		return lt, false // the unfused loop's truncation would wrap
	}
	return loopTrip{j0: j0, jLast: jLast, jEnd: jLast + 1, trips: trips}, true
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
// form. It returns the pc to continue at — the loop's exit, or the body's
// first instruction when the closed form declines, so that dispatch runs
// the generic body and its back edge — and the statistic deltas to merge
// into the caller's batched counters.
func (rs *runState) runFMALoop(code []instr, head int, ir []int64, fr []float64,
	bufs []*Buffer, sites []siteState, classify bool, wi int64,
) (next int, cnt fmaLoopCounters) {
	g := &code[head]
	cnt.aluI = int64(g.c)
	if !cmpIRegs(g.norm&0xf, ir[g.a], ir[g.b]) {
		return int(g.imm), cnt
	}
	terms, back := rs.ex.prog.fmaHead(code, head)
	f1 := decodeTerm(&terms[0], fr, bufs, sites)
	var f2 fmaOperand
	if len(terms) == 2 {
		f2 = decodeTerm(&terms[1], fr, bufs, sites)
	}
	if c, ok := rs.runFMALoopAffine(&f1, &f2, terms, back, ir, fr, classify, wi); ok {
		rs.affineLoops++
		c.aluI += cnt.aluI
		return int(g.imm), c
	}
	rs.unfusedLoops++
	return head + 1, cnt
}
