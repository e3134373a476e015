package interp

// Blocked column walks. A column walk — acc += A[j*N + i] * X[j], i the
// work-item (ATAX2, BICG1, MVT2) — moves a whole row of A per step, so one
// work-item's walk touches a new cache line every iteration, and the next
// work-item walks the same lines again one column over. Bit-identity fixes
// the order of the adds inside a work-item, but not the order of the
// work-items of a group when they are independent. A parking run
// therefore runs each work-group in three passes:
//
//  1. park: every work-item runs until its first fused loop head, which
//     is a column walk, and parks there; its counters so far are held out
//     of RunStats;
//  2. blocked: the parked walks resolve to their closed form, and runs of
//     blockW adjacent columns walk A together, one row at a time (dotCol8);
//  3. resume: in work-item order, each item gets its counters back and
//     continues after its loop — or at its head, when its walk did not
//     resolve, so the generic body runs and traps in order.
//
// This is exact because nothing observable happens before a work-item
// parks (parkable: no store, atomic or __local access on any path from the
// entry to a head), because the work-items of the launch touch disjoint
// elements of every stored buffer (Exec.parks: analysis.Independence at
// the work-item level), and because every item's counters enter RunStats
// in item order: at a trap the totals are those of the sequential walk. A
// trap in the park pass first drains the items parked before it, whose
// own traps come first in item order. Only unprofiled runs park
// (runState.claim): a profile observes the per-access order.

// parkedItem is one work-item of a parking group between its passes: the
// counters it ran so far, held out of RunStats until it resumes; the pc it
// resumes at (-1: it finished in its park pass); its resolved walk.
type parkedItem struct {
	delta counters
	at    int
	walk  colWalk
}

// colWalk is a parked column walk resolved to its closed form: the term,
// the first A element and A's row stride, the first X element and the
// trip count. ok is false for an item with no resolved walk.
type colWalk struct {
	term              *fmaTerm
	ia, da, ix, trips int64
	ok                bool
}

// continues reports whether w walks the column k to the right of base's.
func (w *colWalk) continues(base *colWalk, k int) bool {
	return w.ok && w.term == base.term && w.da == base.da && w.ix == base.ix &&
		w.trips == base.trips && w.ia == base.ia+int64(k)
}

// counters are the RunStats totals a work-item adds to.
type counters struct {
	aluI, aluF, loads, loadB, stores, storeB, items int64
}

func (s *RunStats) counters() counters {
	return counters{s.AluInt, s.AluFloat, s.Loads, s.LoadBytes, s.Stores, s.StoreBytes, s.ItemsRun}
}

func (c counters) sub(d counters) counters {
	return counters{c.aluI - d.aluI, c.aluF - d.aluF, c.loads - d.loads, c.loadB - d.loadB,
		c.stores - d.stores, c.storeB - d.storeB, c.items - d.items}
}

// add adds sign times c to the totals.
func (s *RunStats) add(c counters, sign int64) {
	s.AluInt += sign * c.aluI
	s.AluFloat += sign * c.aluF
	s.Loads += sign * c.loads
	s.LoadBytes += sign * c.loadB
	s.Stores += sign * c.stores
	s.StoreBytes += sign * c.storeB
	s.ItemsRun += sign * c.items
}

// parkable is the lowering-time half of the eligibility: the program has
// one segment, every fused head is a column walk, and every path from the
// entry to a global store, a __local access or an atomic passes through a
// fused head. A head absorbs its loop's zero-trip guard (fuseFMALoops), so
// a work-item whose loop runs no trip parks too.
func parkable(p *bcProgram) bool {
	if len(p.segments) != 1 {
		return false
	}
	code := p.segments[0]
	heads := 0
	for pc := range code {
		if code[pc].op == opFMALoopF32 {
			if !p.colWalkHead(code, pc) {
				return false
			}
			heads++
		}
	}
	if heads == 0 {
		return false
	}
	seen := make([]bool, len(code))
	for work := []int{0}; len(work) > 0; {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if pc >= len(code) || seen[pc] {
			continue
		}
		seen[pc] = true
		switch op := code[pc].op; {
		case op == opFMALoopF32 || op == opRet:
			continue
		case effectful(op):
			return false
		case op == opJmp:
			work = append(work, int(code[pc].imm))
			continue
		case isJump(op):
			work = append(work, int(code[pc].imm))
		}
		work = append(work, pc+1)
	}
	return true
}

// effectful reports whether op writes memory another work-item can read,
// or reads __local memory another work-item may have written.
func effectful(op opcode) bool {
	switch op {
	case opStGF32, opStGF64, opStGI64, opStGI32,
		opLdLI, opLdLF, opStLI, opStLF, opLdLSI, opLdLSF, opStLSI, opStLSF,
		opAtomicL, opAtomicG:
		return true
	}
	return false
}

// runGroupParked runs the work-group at coords in the three passes of a
// parking run. Its traps panic like execBC's.
func (rs *runState) runGroupParked(coords [3]int, baseWI int64, wgSize int) {
	code := rs.ex.prog.segments[0]
	for lin := 0; lin < wgSize; lin++ {
		rs.enterItem(lin, coords, baseWI)
		rs.startItem(rs.irScratch[lin], rs.frScratch[lin])
		before := rs.stats.counters()
		rs.stats.ItemsRun++
		trap := rs.parkPass(lin)
		it := &rs.items[lin]
		*it = parkedItem{delta: rs.stats.counters().sub(before), at: rs.parkAt}
		rs.stats.add(it.delta, -1)
		if trap != nil {
			// The items parked before this one come first in item order,
			// and so do their traps.
			rs.drain(code, lin, coords, baseWI)
			rs.stats.add(it.delta, 1)
			panic(trap)
		}
		if it.at >= 0 {
			rs.parked++
		}
	}
	rs.drain(code, wgSize, coords, baseWI)
}

// parkPass runs work-item lin from the entry until it parks or finishes,
// returning what it panicked with, if anything.
func (rs *runState) parkPass(lin int) (trap any) {
	defer func() {
		rs.parking = false
		trap = recover()
	}()
	rs.parking, rs.parkAt = true, -1
	rs.execBC(0, 0, lin, lin+1)
	return nil
}

// enterItem points the environment at work-item lin of the group at
// coords: a group's first item in each segment, and every item of a
// parking group. execBC steps to the later items in place.
func (rs *runState) enterItem(lin int, coords [3]int, baseWI int64) {
	e, nd := &rs.env, &rs.nd
	l0, l1 := nd.Local[0], nd.Local[1]
	e.lid = [3]int64{int64(lin % l0), int64(lin / l0 % l1), int64(lin / (l0 * l1))}
	e.grp = [3]int64{int64(coords[0]), int64(coords[1]), int64(coords[2])}
	e.gid = [3]int64{
		int64(nd.Offset[0]) + e.grp[0]*int64(l0) + e.lid[0],
		int64(nd.Offset[1]) + e.grp[1]*int64(l1) + e.lid[1],
		int64(nd.Offset[2]) + e.grp[2]*int64(nd.Local[2]) + e.lid[2],
	}
	e.wi = baseWI + int64(lin)
	if rs.privScratch != nil {
		e.priv = rs.privScratch[lin]
	}
}

// drain finishes the first n work-items of a parked group: the blocked
// pass, then the resume pass in item order.
func (rs *runState) drain(code []instr, n int, coords [3]int, baseWI int64) {
	rs.blockedPass(code, n)
	for lin := 0; lin < n; lin++ {
		it := &rs.items[lin]
		rs.stats.add(it.delta, 1)
		if it.at < 0 {
			continue
		}
		rs.enterItem(lin, coords, baseWI)
		rs.execBC(0, it.at, lin, lin+1)
	}
}

// blockedPass resolves the walks of the first n work-items and runs them:
// blockW adjacent columns at a time where they line up, one by one where
// they do not.
func (rs *runState) blockedPass(code []instr, n int) {
	for lin := 0; lin < n; lin++ {
		if it := &rs.items[lin]; it.at >= 0 {
			rs.resolveWalk(code, it, rs.irScratch[lin])
		}
	}
	bufs := rs.env.bufs
	for lin := 0; lin < n; {
		w := &rs.items[lin].walk
		if !w.ok {
			lin++
			continue
		}
		acc := w.term.acc
		a, x := bufs[w.term.a.slot].F32, bufs[w.term.x.slot].F32[w.ix:w.ix+w.trips]
		k := 1
		for k < blockW && lin+k < n && rs.items[lin+k].walk.continues(w, k) {
			k++
		}
		if k < blockW {
			fr := rs.frScratch[lin]
			fr[acc] = float64(dotCol(float32(fr[acc]), a, w.ia, w.da, x))
			lin++
			continue
		}
		var sums [blockW]float32
		for b := range sums {
			sums[b] = float32(rs.frScratch[lin+b][acc])
		}
		dotCol8(&sums, a, w.ia, w.da, x)
		for b, v := range sums {
			rs.frScratch[lin+b][acc] = float64(v)
		}
		lin += blockW
	}
}

// resolveWalk runs a parked work-item's zero-trip guard and resolves its
// walk to the closed form, adding what both count to the item's deferred
// counters and moving it past its loop. A walk whose trip or addresses
// the closed form cannot take (out of range, beyond int32) stays parked
// at its head, guard and all, so its unfused body runs in the resume pass
// and traps in item order.
func (rs *runState) resolveWalk(code []instr, it *parkedItem, ir []int64) {
	head := it.at
	g := &code[head]
	if !cmpIRegs(g.norm&0xf, ir[g.a], ir[g.b]) {
		it.delta.aluI += int64(g.c)
		it.at = int(g.imm)
		return
	}
	terms, inc := rs.ex.prog.fmaHead(code, head)
	lt, ok := tripCount(inc, ir)
	if !ok {
		return
	}
	t := &terms[0]
	bufs := rs.env.bufs
	f := fmaOperand{fmaTerm: t, fA: bufs[t.a.slot].F32, fX: bufs[t.x.slot].F32}
	if !f.resolve(ir, inc.dst, lt) {
		return
	}
	c := loopCounters(terms, lt.trips)
	it.delta.aluI += int64(g.c) + c.aluI
	it.delta.aluF += c.aluF
	it.delta.loads += c.loads
	it.delta.loadB += c.loadB
	ir[inc.dst] = lt.jEnd
	it.at = int(g.imm)
	it.walk = colWalk{term: t, ia: f.pa.first, da: f.pa.delta, ix: f.px.first, trips: lt.trips, ok: true}
	rs.affineLoops++
}
