package interp

// The fused FMA loop. A lowering peephole (fuseFMALoops) rewrites the
// head of a loop whose whole body is one or two float32 FMA
// accumulations into opFMALoopF32, and runFMALoop then executes the
// loop outside the dispatch switch. Only the head instruction's opcode
// is rewritten; the interior of the window stays in place, so a jump
// into the middle of a fused window executes the exact unfused
// semantics and the fused executor can decode the body from the
// unchanged instructions. Without the fusion a traced relaunch run is
// 2.0x slower (op_geomean_ms 9.99 -> 20.12; GESUMMV 3.85 -> 28.5 ms).

import (
	"slices"

	"dopia/internal/clc"
)

// fmaLoop norm encoding: low bits hold the body length (number of FMA
// instructions, 1 or 2); fmaLoopMA1 marks the head FMA as the
// multiply-add-absorbing variant (the second FMA's variant is read from
// its untouched instruction).
const (
	fmaLoopNMask uint8 = 0x3
	fmaLoopMA1   uint8 = 0x4
)

// fmaSitesOf returns the buffer sites an FMA instruction touches
// (A site, X site).
func fmaSitesOf(in *instr) (int32, int32) {
	return in.site, int32(uint32(in.imm))
}

// fuseFMALoops fuses every loop of a lowered program whose body is one
// or two opFMALd2F32/opFMALd2MAF32 instructions closed by an opIncJCmpI
// whose back edge targets the head.
func fuseFMALoops(p *bcProgram) {
	for _, code := range p.segments {
		for pc := range code {
			if code[pc].op != opIncJCmpI {
				continue
			}
			head := int(code[pc].imm)
			nFMA := pc - head
			if head < 0 || nFMA < 1 || nFMA > 2 {
				continue
			}
			body := code[head:pc]
			if slices.ContainsFunc(body, func(in instr) bool {
				return in.op != opFMALd2F32 && in.op != opFMALd2MAF32
			}) || !fmaLoopFusible(body) {
				continue
			}
			norm := uint8(nFMA)
			if code[head].op == opFMALd2MAF32 {
				norm |= fmaLoopMA1
			}
			code[head].op = opFMALoopF32
			code[head].norm = norm
		}
	}
}

// fmaLoopFusible checks the safety conditions the fused-loop executor
// relies on beyond the opcode shape: all touched sites distinct (the
// executor tracks classifier runs per site occurrence, which is only
// per-access-identical when no two occurrences alias one site) and
// distinct accumulator registers (the executor keeps them in locals).
func fmaLoopFusible(body []instr) bool {
	var sites []int32
	for i := range body {
		a, x := fmaSitesOf(&body[i])
		sites = append(sites, a, x)
	}
	for i := range sites {
		for j := i + 1; j < len(sites); j++ {
			if sites[i] == sites[j] {
				return false
			}
		}
	}
	if len(body) == 2 && body[0].dst == body[1].dst {
		return false
	}
	return true
}

// fmaLoopTrap describes a bounds trap raised inside a fused FMA loop.
type fmaLoopTrap struct {
	pos    clc.Pos
	idx, n int64
}

// fmaLoopCounters are the statistic deltas of one fused-loop execution,
// merged into the caller's batched counter locals.
type fmaLoopCounters struct {
	aluI, aluF, loads, loadB int64
}

// fmaSiteTrack batches the classifier fast path of one site inside a
// fused loop: the first access seeds the chain through the normal
// recordAccess (first-touch / work-item-change handling), after which
// every access is fast-path-eligible by construction, so only the
// iteration deltas matter — tracked as constant-delta runs and flushed
// through access.Classifier.ObserveRun. Flushing restores state
// bit-identical to per-access recording.
type fmaSiteTrack struct {
	st     *siteState
	base   int64
	prevIa int64
	runD   int64
	runLen int64
	bulk   int64
	seeded bool
}

func (t *fmaSiteTrack) note(ia, wi int64) {
	if !t.seeded {
		t.st.recordAccess(t.base+ia*4, 4, wi)
		t.seeded = true
		t.prevIa = ia
		return
	}
	d := ia - t.prevIa
	t.prevIa = ia
	t.bulk++
	if t.runLen != 0 && d == t.runD {
		t.runLen++
		return
	}
	if t.runLen != 0 {
		t.st.iter.ObserveRun(t.runD, t.runLen)
	}
	t.runD, t.runLen = d, 1
}

func (t *fmaSiteTrack) flush() {
	if !t.seeded {
		return
	}
	if t.runLen != 0 {
		t.st.iter.ObserveRun(t.runD, t.runLen)
		t.runLen = 0
	}
	t.st.count += t.bulk
	t.st.bytes += t.bulk * 4
	t.st.prevAddr = t.base + t.prevIa*4
	t.bulk = 0
}

// fmaOperand decodes one FMA instruction of a fused loop into hoisted
// execution state.
type fmaOperand struct {
	ma         bool // multiply-add-absorbing variant
	a, b, c    int32
	dst        int32
	xReg       int32
	fA, fX     []float32
	trkA, trkX fmaSiteTrack
	baseA      int64
	baseX      int64
	pos, pos2  clc.Pos
}

func decodeFMA(in *instr, ma bool, bufs []*Buffer, sites []siteState) fmaOperand {
	op := fmaOperand{ma: ma, a: in.a, b: in.b, c: in.c, dst: in.dst, pos: in.pos, pos2: in.pos2}
	bA := bufs[in.slot]
	var bX *Buffer
	if ma {
		op.xReg = int32(in.imm >> 48)
		bX = bufs[int32(in.imm>>32)&0xFFFF]
	} else {
		op.xReg = in.b
		bX = bufs[int32(in.imm>>32)]
	}
	op.fA, op.fX = bA.F32, bX.F32
	op.baseA, op.baseX = bA.Base, bX.Base
	op.trkA = fmaSiteTrack{st: &sites[in.site], base: bA.Base}
	op.trkX = fmaSiteTrack{st: &sites[int32(uint32(in.imm))], base: bX.Base}
	return op
}

// fits32 reports whether v survives an int32 round trip.
func fits32(v int64) bool { return int64(int32(v)) == v }

// affIdx is the address progression of one fused-loop operand: the
// element indexes of the first and last iteration plus the per-iteration
// delta (0 for loop-invariant indexes).
type affIdx struct {
	first, last, delta int64
}

// affResolve maps one FMA operand pair onto address progressions over the
// induction values j0, j0+step, ..., jLast, or reports ok=false when an
// index is not affine in the induction (the induction times itself) or
// its progression cannot be formed exactly (a multiplicand or addend
// beyond int32). Every register but the induction is loop-invariant: the
// body writes no other int register.
func affResolve(f *fmaOperand, ir []int64, incDst int32, j0, jLast, step int64) (a, x affIdx, ok bool) {
	affJ := affIdx{first: j0, last: jLast, delta: step}
	if f.ma {
		// ia = n32(n32(ir[a]*ir[b]) + ir[c]).
		switch {
		case f.a == incDst && f.b == incDst:
			return a, x, false
		case f.a == incDst || f.b == incDst:
			// The induction feeds the multiply — the column walk
			// A[j*N + i], or A[j*N + j] when it is the addend too. The
			// progression is formed in exact int64 arithmetic (every
			// factor fits int32). The per-iteration index is that exact
			// value reduced mod 2^32 — n32 is a ring homomorphism — so
			// wherever the exact value fits int32 the two truncations
			// were identities.
			m := ir[f.a]
			if f.a == incDst {
				m = ir[f.b]
			}
			if !fits32(m) {
				return a, x, false
			}
			a = affIdx{first: j0 * m, last: jLast * m, delta: step * m}
			if f.c == incDst {
				a = affIdx{first: a.first + j0, last: a.last + jLast, delta: a.delta + step}
			} else if c := ir[f.c]; fits32(c) {
				a.first, a.last = a.first+c, a.last+c
			} else {
				return a, x, false
			}
		case f.c == incDst:
			prod := int64(int32(ir[f.a] * ir[f.b]))
			a = affIdx{first: prod + j0, last: prod + jLast, delta: step}
		default:
			ia := int64(int32(int64(int32(ir[f.a]*ir[f.b])) + ir[f.c]))
			a = affIdx{first: ia, last: ia}
		}
		// Both ends inside int32 put every index between them there, which
		// is what makes the analytic index the truncated one.
		if !fits32(a.first) || !fits32(a.last) {
			return a, x, false
		}
	} else if f.a == incDst {
		a = affJ
	} else {
		a = affIdx{first: ir[f.a], last: ir[f.a]}
	}
	if f.xReg == incDst {
		x = affJ
	} else {
		x = affIdx{first: ir[f.xReg], last: ir[f.xReg]}
	}
	return a, x, true
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

// affFlush replays trips accesses of one site analytically: seed the
// chain through recordAccess exactly like the first per-access note,
// then batch the remaining constant-delta run. Bit-identical to the
// fmaSiteTrack per-access sequence because the delta stream is uniform
// by construction.
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
// compare against a loop-invariant bound, non-truncating induction)
// and every address progression is affine in the induction and
// provably in bounds for the whole trip, the loop body reduces to
// pure loads and FMAs — counters and classifier state are closed-form
// functions of the trip count, bit-identical to the per-iteration
// bookkeeping. Returns ok=false (with no state touched) whenever any
// precondition fails; the caller then runs the general loop.
func (rs *runState) runFMALoopAffine(f1, f2 *fmaOperand, nFMA int, inc *instr,
	ir []int64, fr []float64, sites []siteState, classify bool, wi int64,
) (cnt fmaLoopCounters, ok bool) {
	incDst := inc.dst
	incNorm := inc.norm >> 4
	code := inc.norm & 0xf
	step := int64(inc.c)
	if step == 0 || code&cmpU != 0 || (incNorm != normNone && incNorm != normI32) {
		return cnt, false
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
		return cnt, false
	}
	j0 := ir[incDst]
	if !fits32(j0) || !fits32(bound) || !fits32(step) {
		return cnt, false
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
		return cnt, false
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
		return cnt, false // the general loop's truncation would wrap
	}

	a1, x1, ok1 := affResolve(f1, ir, incDst, j0, jLast, step)
	if !ok1 || !a1.inRange(int64(len(f1.fA))) || !x1.inRange(int64(len(f1.fX))) {
		return cnt, false
	}
	var a2, x2 affIdx
	if nFMA == 2 {
		var ok2 bool
		a2, x2, ok2 = affResolve(f2, ir, incDst, j0, jLast, step)
		if !ok2 || !a2.inRange(int64(len(f2.fA))) || !x2.inRange(int64(len(f2.fX))) {
			return cnt, false
		}
	}

	acc1 := fr[f1.dst]
	fA1, fX1 := f1.fA, f1.fX
	ia1, ix1 := a1.first, x1.first
	if nFMA == 2 {
		acc2 := fr[f2.dst]
		fA2, fX2 := f2.fA, f2.fX
		ia2, ix2 := a2.first, x2.first
		for t := int64(0); t < trips; t++ {
			acc1 = float64(float32(acc1) + float32(fA1[ia1]*fX1[ix1]))
			acc2 = float64(float32(acc2) + float32(fA2[ia2]*fX2[ix2]))
			ia1 += a1.delta
			ix1 += x1.delta
			ia2 += a2.delta
			ix2 += x2.delta
		}
		fr[f2.dst] = acc2
	} else {
		for t := int64(0); t < trips; t++ {
			acc1 = float64(float32(acc1) + float32(fA1[ia1]*fX1[ix1]))
			ia1 += a1.delta
			ix1 += x1.delta
		}
	}
	fr[f1.dst] = acc1
	ir[incDst] = jEnd

	cnt.aluF = 2 * int64(nFMA) * trips
	cnt.aluI = 2 * trips // back edge
	if f1.ma {
		cnt.aluI += 2 * trips
	}
	cnt.loads = 2 * int64(nFMA) * trips
	cnt.loadB = 4 * cnt.loads
	if classify {
		affFlush(f1.trkA.st, f1.baseA, a1, trips, wi)
		affFlush(f1.trkX.st, f1.baseX, x1, trips, wi)
	}
	if nFMA == 2 {
		if f2.ma {
			cnt.aluI += 2 * trips
		}
		if classify {
			affFlush(f2.trkA.st, f2.baseA, a2, trips, wi)
			affFlush(f2.trkX.st, f2.baseX, x2, trips, wi)
		}
	}
	return cnt, true
}

// runFMALoop executes a fused FMA loop (opFMALoopF32 head at pc `head`)
// for one work-item. It returns the pc after the loop, the statistic
// deltas to merge into the caller's batched counters, and a non-nil
// trap when a bounds check fails — with all pending classifier runs
// flushed first, so the stats at the trap are exactly the per-access
// sequence's.
func (rs *runState) runFMALoop(code []instr, head int, ir []int64, fr []float64,
	bufs []*Buffer, sites []siteState, classify bool, sink TraceSink, wi int64,
) (exitPC int, cnt fmaLoopCounters, trap *fmaLoopTrap) {
	in1 := &code[head]
	nFMA := int(in1.norm & fmaLoopNMask)
	f1 := decodeFMA(in1, in1.norm&fmaLoopMA1 != 0, bufs, sites)
	var f2 fmaOperand
	if nFMA == 2 {
		in2 := &code[head+1]
		f2 = decodeFMA(in2, in2.op == opFMALd2MAF32, bufs, sites)
	}
	inc := &code[head+nFMA]
	exitPC = head + nFMA + 1

	// Traces need the interleaved per-access event stream, so the
	// analytic path only serves untraced runs.
	if sink == nil {
		if c, ok := rs.runFMALoopAffine(&f1, &f2, nFMA, inc, ir, fr, sites, classify, wi); ok {
			rs.affineLoops++
			return exitPC, c, nil
		}
	}

	incDst := inc.dst
	incNorm := inc.norm >> 4
	incCmp := inc.norm & 0xf
	step := int64(inc.c)

	var aluI, aluF, loads, loadB int64
	acc1 := fr[f1.dst]
	var acc2 float64
	if nFMA == 2 {
		acc2 = fr[f2.dst]
	}
	flushAll := func() {
		if classify {
			f1.trkA.flush()
			f1.trkX.flush()
			if nFMA == 2 {
				f2.trkA.flush()
				f2.trkX.flush()
			}
		}
		fr[f1.dst] = acc1
		if nFMA == 2 {
			fr[f2.dst] = acc2
		}
		cnt = fmaLoopCounters{aluI: aluI, aluF: aluF, loads: loads, loadB: loadB}
	}

	for {
		// FMA 1 — same statistic/record/trap order as the unfused op.
		aluF += 2
		var ia int64
		if f1.ma {
			aluI += 2
			v := int64(int32(ir[f1.a] * ir[f1.b]))
			ia = int64(int32(v + ir[f1.c]))
		} else {
			ia = ir[f1.a]
		}
		if uint64(ia) >= uint64(len(f1.fA)) {
			flushAll()
			return exitPC, cnt, &fmaLoopTrap{pos: f1.pos, idx: ia, n: int64(len(f1.fA))}
		}
		loads++
		loadB += 4
		if classify {
			f1.trkA.note(ia, wi)
		}
		if sink != nil {
			sink.Access(f1.baseA+ia*4, 4, false)
		}
		ix := ir[f1.xReg]
		if uint64(ix) >= uint64(len(f1.fX)) {
			flushAll()
			return exitPC, cnt, &fmaLoopTrap{pos: f1.pos2, idx: ix, n: int64(len(f1.fX))}
		}
		loads++
		loadB += 4
		if classify {
			f1.trkX.note(ix, wi)
		}
		if sink != nil {
			sink.Access(f1.baseX+ix*4, 4, false)
		}
		acc1 = float64(float32(acc1) + float32(f1.fA[ia]*f1.fX[ix]))

		if nFMA == 2 {
			aluF += 2
			if f2.ma {
				aluI += 2
				v := int64(int32(ir[f2.a] * ir[f2.b]))
				ia = int64(int32(v + ir[f2.c]))
			} else {
				ia = ir[f2.a]
			}
			if uint64(ia) >= uint64(len(f2.fA)) {
				flushAll()
				return exitPC, cnt, &fmaLoopTrap{pos: f2.pos, idx: ia, n: int64(len(f2.fA))}
			}
			loads++
			loadB += 4
			if classify {
				f2.trkA.note(ia, wi)
			}
			if sink != nil {
				sink.Access(f2.baseA+ia*4, 4, false)
			}
			ix = ir[f2.xReg]
			if uint64(ix) >= uint64(len(f2.fX)) {
				flushAll()
				return exitPC, cnt, &fmaLoopTrap{pos: f2.pos2, idx: ix, n: int64(len(f2.fX))}
			}
			loads++
			loadB += 4
			if classify {
				f2.trkX.note(ix, wi)
			}
			if sink != nil {
				sink.Access(f2.baseX+ix*4, 4, false)
			}
			acc2 = float64(float32(acc2) + float32(f2.fA[ia]*f2.fX[ix]))
		}

		// Fused back edge: post inc/dec + loop compare (opIncJCmpI).
		aluI += 2
		ir[incDst] = normReg(incNorm, ir[incDst]+step)
		var take bool
		if incCmp&cmpU != 0 {
			take = cmpURegs(incCmp, ir[inc.a], ir[inc.b])
		} else {
			take = cmpSRegs(incCmp, ir[inc.a], ir[inc.b])
		}
		if !take {
			break
		}
	}
	flushAll()
	return exitPC, cnt, nil
}
