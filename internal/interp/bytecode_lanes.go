package interp

// Lane-vectorized bytecode execution: work-items run in lockstep batches
// of Exec.LaneWidth lanes through structure-of-arrays register files, so
// one opcode dispatch is amortized over the whole batch. Divergent
// control flow is handled by per-lane program counters with min-pc
// reconvergence (the classic SIMT scheme); a uniform fast path keeps a
// single shared pc while all live lanes agree.
//
// The engine is bit-identical to the scalar walk in every observable.
// Two mechanisms make that hold:
//
//   - Per-lane effect logs. Statistics and trace events go into per-lane
//     RunStats/traceLogs during the batch and merge into the master
//     stream in lane order at commit. Because min-pc scheduling gives
//     every lane exactly the instruction stream its sequential execution
//     would have had, the per-lane streams are identical to the scalar
//     ones, and lane-order merging (siteState.mergeFrom splices the
//     boundary deltas) reconstructs the exact sequential stream.
//
//   - Bail-and-replay for traps. The vector engine never raises a
//     runtime error itself: any trap condition (bounds, division by
//     zero, atomics, unsupported opcodes) makes it bail out, the undo
//     log rolls every buffer/local/private store of the batch back in
//     reverse, and the batch replays through the scalar execBC — which
//     reproduces the exact sequential partial effects, counters, and
//     error of the trapping work-item.
//
// Register files are gathered AoS->SoA from the per-item scratch rows at
// every batch start and scattered back at commit, so uninitialized-
// variable reads observe exactly the stale per-row values the scalar
// engine would have (and a bailed batch leaves the rows untouched for
// the replay).

import (
	"fmt"
	"math/bits"

	"dopia/internal/faults"
)

// Undo-log entry kinds: global-buffer stores by element type, and
// Value-typed stores (__local and private arrays, __local scalars).
const (
	uGF32 uint8 = iota
	uGF64
	uGI32
	uGI64
	uVal
)

// laneUndo records one store so a bailed batch can be rolled back.
type laneUndo struct {
	kind uint8
	buf  *Buffer
	arr  []Value
	idx  int64
	oldV Value
}

// laneBatch is the reusable state of one lockstep batch: SoA register
// files, per-lane coordinates, per-lane statistics and trace logs, and
// the store-undo log. One laneBatch lives on each runState, so shard
// workers lane-vectorize independently.
type laneBatch struct {
	w        int // lanes in this batch (<= Exec.laneWidth at group tail)
	base     int // linear work-item index of lane 0 within the group
	active   uint64
	retired  uint64
	classify bool
	trace    bool

	// SoA register files: register r of lane l lives at [r*w+l].
	irv []int64
	frv []float64

	gid [3][]int64
	lid [3][]int64
	grp [3]int64
	wiv []int64
	pcs []int32

	stats []*RunStats
	logs  []*traceLog
	undo  []laneUndo

	// Scalar register rows for running the fused FMA loop per lane.
	tmpIR []int64
	tmpFR []float64
}

// prepare sizes the batch state for the executor's current launch.
func (lb *laneBatch) prepare(ex *Exec, hasSink bool) {
	w := ex.laneWidth
	prog := ex.prog
	if cap(lb.irv) < prog.numI*w {
		lb.irv = make([]int64, prog.numI*w)
	} else {
		lb.irv = lb.irv[:prog.numI*w]
	}
	if cap(lb.frv) < prog.numF*w {
		lb.frv = make([]float64, prog.numF*w)
	} else {
		lb.frv = lb.frv[:prog.numF*w]
	}
	if len(lb.wiv) < w {
		lb.wiv = make([]int64, w)
		lb.pcs = make([]int32, w)
		for d := 0; d < 3; d++ {
			lb.gid[d] = make([]int64, w)
			lb.lid[d] = make([]int64, w)
		}
	}
	for len(lb.stats) < w {
		lb.stats = append(lb.stats, &RunStats{})
	}
	if hasSink {
		for len(lb.logs) < w {
			lb.logs = append(lb.logs, &traceLog{})
		}
	}
	lb.trace = hasSink
	if cap(lb.tmpIR) < prog.numI {
		lb.tmpIR = make([]int64, prog.numI)
	} else {
		lb.tmpIR = lb.tmpIR[:prog.numI]
	}
	if cap(lb.tmpFR) < prog.numF {
		lb.tmpFR = make([]float64, prog.numF)
	} else {
		lb.tmpFR = lb.tmpFR[:prog.numF]
	}
}

// begin resets the batch for a new lockstep run.
func (lb *laneBatch) begin(rs *runState, base, w int, active uint64) {
	lb.base, lb.w = base, w
	lb.active, lb.retired = active, 0
	lb.classify = rs.env.classify
	lb.undo = lb.undo[:0]
	for l := 0; l < w; l++ {
		if active>>uint(l)&1 == 0 {
			continue
		}
		lb.stats[l].resetFor(rs.ex.ck)
		if lb.trace {
			lb.logs[l].events = lb.logs[l].events[:0]
		}
	}
}

// record notes one global access of lane l into the lane's private
// statistics and trace log (merged in lane order on commit).
func (lb *laneBatch) record(l int, site int32, addr, es int64, write bool) {
	if lb.classify {
		lb.stats[l].sites[site].recordAccess(addr, es, lb.wiv[l])
	}
	if lb.trace {
		lb.logs[l].Access(addr, es, write)
	}
}

// rollback undoes every store of a bailed batch in reverse order.
func (lb *laneBatch) rollback() {
	for i := len(lb.undo) - 1; i >= 0; i-- {
		u := &lb.undo[i]
		switch u.kind {
		case uGF32:
			u.buf.F32[u.idx] = float32(u.oldV.F)
		case uGF64:
			u.buf.F64[u.idx] = u.oldV.F
		case uGI32:
			u.buf.I32[u.idx] = int32(u.oldV.I)
		case uGI64:
			u.buf.I64[u.idx] = u.oldV.I
		case uVal:
			u.arr[u.idx] = u.oldV
		}
	}
	lb.undo = lb.undo[:0]
}

// wiQueryLane evaluates a work-item builtin for dimension d on lane l.
func (lb *laneBatch) wiQueryLane(nd *NDRange, code uint8, d, l int) int64 {
	switch code {
	case wiGlobalID:
		return lb.gid[d][l]
	case wiLocalID:
		return lb.lid[d][l]
	case wiGroupID:
		return lb.grp[d]
	case wiGlobalSize:
		return int64(nd.Global[d])
	case wiLocalSize:
		return int64(nd.Local[d])
	case wiNumGroups:
		return int64(nd.NumGroups()[d])
	case wiGlobalOffset:
		return int64(nd.Offset[d])
	}
	return int64(nd.Dims) // wiWorkDim
}

// runGroupBCLanes executes one work-group on the lane-vectorized
// bytecode engine. Batches of laneWidth work-items run in lockstep per
// segment; a batch that hits any trap condition is rolled back and
// replayed through the scalar engine, whose panics this boundary
// contains exactly like runGroupBC.
func (rs *runState) runGroupBCLanes(linear int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*runtimeError); ok {
				err = faults.Wrap(faults.StageExec,
					fmt.Errorf("interp: kernel %s: %w", rs.ex.kernel.Name, re))
				return
			}
			err = &faults.PanicError{Stage: faults.StageExec, Value: r}
		}
	}()
	ex := rs.ex
	if ex.Check != nil {
		if cerr := ex.Check(); cerr != nil {
			return faults.Wrap(faults.StageExec, cerr)
		}
	}
	total := rs.nd.TotalGroups()
	if linear < 0 || linear >= total {
		return fmt.Errorf("interp: work-group %d out of range [0,%d)", linear, total)
	}
	prog := ex.prog
	coords := rs.nd.GroupCoords(linear)
	wgSize := rs.nd.GroupSize()

	for _, arr := range rs.wg.locals {
		for j := range arr {
			arr[j] = Value{}
		}
	}
	for i := 0; i < wgSize; i++ {
		rs.doneScratch[i] = false
	}

	e := &rs.env
	e.classify = groupClassified(rs.sampleThresh, rs.sampleSeed, linear)
	nd := &rs.nd
	baseWI := int64(linear) * int64(wgSize)
	W := ex.laneWidth
	lb := &rs.lanes

	rs.stats.GroupsRun++
	for segIdx, seg := range prog.segments {
		for bs := 0; bs < wgSize; bs += W {
			w := W
			if wgSize-bs < w {
				w = wgSize - bs
			}
			var active uint64
			for l := 0; l < w; l++ {
				if !rs.doneScratch[bs+l] {
					active |= 1 << uint(l)
				}
			}
			if active == 0 {
				continue
			}
			lb.begin(rs, bs, w, active)
			for l := 0; l < w; l++ {
				lin := bs + l
				l0v := lin % nd.Local[0]
				rest := lin / nd.Local[0]
				l1v := rest % nd.Local[1]
				l2v := rest / nd.Local[1]
				lb.lid[0][l], lb.lid[1][l], lb.lid[2][l] = int64(l0v), int64(l1v), int64(l2v)
				lb.gid[0][l] = int64(nd.Offset[0]) + int64(coords[0])*int64(nd.Local[0]) + int64(l0v)
				lb.gid[1][l] = int64(nd.Offset[1]) + int64(coords[1])*int64(nd.Local[1]) + int64(l1v)
				lb.gid[2][l] = int64(nd.Offset[2]) + int64(coords[2])*int64(nd.Local[2]) + int64(l2v)
				lb.wiv[l] = baseWI + int64(lin)
			}
			lb.grp = [3]int64{int64(coords[0]), int64(coords[1]), int64(coords[2])}

			// Gather AoS -> SoA (always: stale scratch-row values must be
			// observable exactly as in the scalar walk).
			for l := 0; l < w; l++ {
				if active>>uint(l)&1 == 0 {
					continue
				}
				ir := rs.irScratch[bs+l]
				fr := rs.frScratch[bs+l]
				for r := 0; r < prog.numI; r++ {
					lb.irv[r*w+l] = ir[r]
				}
				for r := 0; r < prog.numF; r++ {
					lb.frv[r*w+l] = fr[r]
				}
			}
			if segIdx == 0 {
				for _, pc := range prog.paramI {
					v := ex.paramVals[pc.slot].I
					row := lb.irv[int(pc.reg)*w : int(pc.reg)*w+w]
					for l := range row {
						row[l] = v
					}
				}
				for _, pc := range prog.paramF {
					v := ex.paramVals[pc.slot].F
					row := lb.frv[int(pc.reg)*w : int(pc.reg)*w+w]
					for l := range row {
						row[l] = v
					}
				}
				if rs.privScratch != nil {
					for l := 0; l < w; l++ {
						for _, arr := range rs.privScratch[bs+l] {
							for j := range arr {
								arr[j] = Value{}
							}
						}
					}
				}
			}

			if !rs.execBCVec(seg, lb, prog, w) {
				lb.rollback()
				rs.replayBatch(prog, seg, segIdx, bs, w, coords, baseWI)
				continue
			}

			// Commit: scatter SoA -> AoS, retire lanes, merge per-lane
			// statistics and trace events in lane order.
			for l := 0; l < w; l++ {
				if active>>uint(l)&1 == 0 {
					continue
				}
				ir := rs.irScratch[bs+l]
				fr := rs.frScratch[bs+l]
				for r := 0; r < prog.numI; r++ {
					ir[r] = lb.irv[r*w+l]
				}
				for r := 0; r < prog.numF; r++ {
					fr[r] = lb.frv[r*w+l]
				}
				if lb.retired>>uint(l)&1 == 1 {
					rs.doneScratch[bs+l] = true
				}
			}
			if segIdx == 0 {
				rs.stats.ItemsRun += int64(bits.OnesCount64(active))
			}
			for l := 0; l < w; l++ {
				if active>>uint(l)&1 == 0 {
					continue
				}
				rs.stats.mergeFrom(lb.stats[l])
				if lb.trace && e.sink != nil {
					for _, ev := range lb.logs[l].events {
						e.sink.Access(ev.addr, ev.size, ev.write)
					}
				}
			}
		}
	}
	return nil
}

// replayBatch re-executes a bailed batch through the scalar engine in
// sequential work-item order. The rollback restored the pre-batch state
// and the register scratch rows were never scattered to, so the replay
// reproduces the exact sequential effects — including the trap, whose
// panic unwinds to the runGroupBCLanes recover.
func (rs *runState) replayBatch(prog *bcProgram, seg []instr, segIdx, bs, w int, coords [3]int, baseWI int64) {
	ex := rs.ex
	nd := &rs.nd
	e := &rs.env
	for l := 0; l < w; l++ {
		lin := bs + l
		if rs.doneScratch[lin] {
			continue
		}
		ir := rs.irScratch[lin]
		fr := rs.frScratch[lin]
		if segIdx == 0 {
			for _, pc := range prog.paramI {
				ir[pc.reg] = ex.paramVals[pc.slot].I
			}
			for _, pc := range prog.paramF {
				fr[pc.reg] = ex.paramVals[pc.slot].F
			}
			if rs.privScratch != nil {
				for _, arr := range rs.privScratch[lin] {
					for j := range arr {
						arr[j] = Value{}
					}
				}
			}
			rs.stats.ItemsRun++
		}
		if rs.privScratch != nil {
			e.priv = rs.privScratch[lin]
		}
		l0v := lin % nd.Local[0]
		rest := lin / nd.Local[0]
		l1v := rest % nd.Local[1]
		l2v := rest / nd.Local[1]
		e.lid = [3]int64{int64(l0v), int64(l1v), int64(l2v)}
		e.grp = [3]int64{int64(coords[0]), int64(coords[1]), int64(coords[2])}
		e.gid = [3]int64{
			int64(nd.Offset[0]) + e.grp[0]*int64(nd.Local[0]) + e.lid[0],
			int64(nd.Offset[1]) + e.grp[1]*int64(nd.Local[1]) + e.lid[1],
			int64(nd.Offset[2]) + e.grp[2]*int64(nd.Local[2]) + e.lid[2],
		}
		e.wi = baseWI + int64(lin)
		if rs.execBC(seg, e, ir, fr, prog) {
			rs.doneScratch[lin] = true
		}
	}
}

// execBCVec runs one bytecode segment for a lockstep batch. It returns
// false when the batch must bail to the scalar replay path: any trap
// condition (bounds, division by zero), atomics, or an opcode the vector
// engine does not implement. On a bail nothing is flushed — the caller
// rolls back the undo log and discards the per-lane logs, so the batch
// leaves no trace. On success the batched aggregate counters flush into
// the master statistics and lb.retired reports the lanes that executed a
// return.
func (rs *runState) execBCVec(code []instr, lb *laneBatch, prog *bcProgram, w int) bool {
	iv, fv := lb.irv, lb.frv
	bufs := rs.env.bufs
	nd := &rs.nd
	live := lb.active
	var retired uint64
	uniform := true
	pc := 0
	pcs := lb.pcs[:w]
	n := len(code)
	var aluI, aluF, loads, loadB, stores, storeB int64

	for live != 0 {
		var in *instr
		var mask uint64
		if uniform {
			if pc >= n {
				break
			}
			in = &code[pc]
			pc++
			mask = live
		} else {
			minPC := int32(1) << 30
			for l := 0; l < w; l++ {
				if live>>uint(l)&1 == 1 && pcs[l] < minPC {
					minPC = pcs[l]
				}
			}
			mask = 0
			for l := 0; l < w; l++ {
				if live>>uint(l)&1 == 1 && pcs[l] == minPC {
					mask |= 1 << uint(l)
				}
			}
			in = &code[minPC]
			pc = int(minPC) + 1
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					pcs[l] = int32(pc)
				}
			}
		}
		cn := int64(bits.OnesCount64(mask))
		var branched bool
		var brMask uint64
		var brTarget int32
		var retMask uint64

		switch in.op {
		case opNop:

		// --- control flow ---
		case opJmp:
			branched, brMask, brTarget = true, mask, int32(in.imm)
		case opJmpZI:
			a := int(in.a) * w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 && iv[a+l] == 0 {
					brMask |= 1 << uint(l)
				}
			}
			branched, brTarget = true, int32(in.imm)
		case opJmpNZI:
			a := int(in.a) * w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 && iv[a+l] != 0 {
					brMask |= 1 << uint(l)
				}
			}
			branched, brTarget = true, int32(in.imm)
		case opJmpZF:
			a := int(in.a) * w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 && fv[a+l] == 0 {
					brMask |= 1 << uint(l)
				}
			}
			branched, brTarget = true, int32(in.imm)
		case opJmpNZF:
			a := int(in.a) * w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 && fv[a+l] != 0 {
					brMask |= 1 << uint(l)
				}
			}
			branched, brTarget = true, int32(in.imm)
		case opJCmpI:
			aluI += int64(in.c) * cn
			a, b := int(in.a)*w, int(in.b)*w
			unsigned := in.norm&cmpU != 0
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				var take bool
				if unsigned {
					take = cmpURegs(in.norm, iv[a+l], iv[b+l])
				} else {
					take = cmpSRegs(in.norm, iv[a+l], iv[b+l])
				}
				if !take {
					brMask |= 1 << uint(l)
				}
			}
			branched, brTarget = true, int32(in.imm)
		case opJCmpF:
			aluF += int64(in.c) * cn
			a, b := int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 && !cmpFRegs(in.norm, fv[a+l], fv[b+l]) {
					brMask |= 1 << uint(l)
				}
			}
			branched, brTarget = true, int32(in.imm)
		case opRet:
			retMask = mask

		case opStatInt:
			aluI += in.imm * cn
		case opStatFloat:
			aluF += in.imm * cn
		case opChkDiv0:
			a := int(in.a) * w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 && iv[a+l] == 0 {
					return false
				}
			}

		// --- constants, moves, conversions ---
		case opConstI:
			d := int(in.dst) * w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = in.imm
				}
			}
		case opConstF:
			d := int(in.dst) * w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					fv[d+l] = in.fimm
				}
			}
		case opMovI:
			d, a := int(in.dst)*w, int(in.a)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = normReg(in.norm, iv[a+l])
				}
			}
		case opMovF:
			d, a := int(in.dst)*w, int(in.a)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					fv[d+l] = normFReg(in.norm, fv[a+l])
				}
			}
		case opI2F:
			d, a := int(in.dst)*w, int(in.a)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				var v float64
				if in.norm&convUnsigned != 0 {
					v = float64(uint64(iv[a+l]))
				} else {
					v = float64(iv[a+l])
				}
				if in.norm&convRound32 != 0 {
					v = float64(float32(v))
				}
				fv[d+l] = v
			}
		case opF2I:
			d, a := int(in.dst)*w, int(in.a)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = normReg(in.norm, int64(fv[a+l]))
				}
			}

		// --- integer ALU ---
		case opAddI:
			aluI += int64(in.c) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = normReg(in.norm, iv[a+l]+iv[b+l])
				}
			}
		case opSubI:
			aluI += int64(in.c) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = normReg(in.norm, iv[a+l]-iv[b+l])
				}
			}
		case opMulI:
			aluI += int64(in.c) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = normReg(in.norm, iv[a+l]*iv[b+l])
				}
			}
		case opMulAddI:
			aluI += 2 * cn
			d, a, b, c := int(in.dst)*w, int(in.a)*w, int(in.b)*w, int(in.c)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					v := int64(int32(iv[a+l] * iv[b+l]))
					iv[d+l] = int64(int32(v + iv[c+l]))
				}
			}
		case opDivI:
			aluI += int64(in.c) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				rv := iv[b+l]
				if rv == 0 {
					return false
				}
				iv[d+l] = normReg(in.norm, iv[a+l]/rv)
			}
		case opDivU:
			aluI += int64(in.c) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				rv := iv[b+l]
				if rv == 0 {
					return false
				}
				iv[d+l] = normReg(in.norm, int64(uint64(iv[a+l])/uint64(rv)))
			}
		case opRemI:
			aluI += int64(in.c) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				rv := iv[b+l]
				if rv == 0 {
					return false
				}
				iv[d+l] = normReg(in.norm, iv[a+l]%rv)
			}
		case opRemU:
			aluI += int64(in.c) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				rv := iv[b+l]
				if rv == 0 {
					return false
				}
				iv[d+l] = normReg(in.norm, int64(uint64(iv[a+l])%uint64(rv)))
			}
		case opShlI:
			aluI += int64(in.c) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = normReg(in.norm, iv[a+l]<<uint64(iv[b+l]&in.imm))
				}
			}
		case opShrI:
			aluI += int64(in.c) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = normReg(in.norm, iv[a+l]>>uint64(iv[b+l]&in.imm))
				}
			}
		case opShrU:
			aluI += int64(in.c) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = normReg(in.norm, int64(uint64(iv[a+l])>>uint64(iv[b+l]&in.imm)))
				}
			}
		case opAndI:
			aluI += int64(in.c) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = normReg(in.norm, iv[a+l]&iv[b+l])
				}
			}
		case opOrI:
			aluI += int64(in.c) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = normReg(in.norm, iv[a+l]|iv[b+l])
				}
			}
		case opXorI:
			aluI += int64(in.c) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = normReg(in.norm, iv[a+l]^iv[b+l])
				}
			}
		case opNegI:
			aluI += int64(in.c) * cn
			d, a := int(in.dst)*w, int(in.a)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = normReg(in.norm, -iv[a+l])
				}
			}
		case opBitNotI:
			aluI += int64(in.c) * cn
			d, a := int(in.dst)*w, int(in.a)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = normReg(in.norm, ^iv[a+l])
				}
			}
		case opIncDecI:
			aluI += cn
			d := int(in.dst) * w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = normReg(in.norm, iv[d+l]+in.imm)
				}
			}
		case opStepI:
			d, a := int(in.dst)*w, int(in.a)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = normReg(in.norm, iv[a+l]+in.imm)
				}
			}
		case opCmpI:
			aluI += int64(in.c) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = b2i(cmpIRegs(in.norm, iv[a+l], iv[b+l]))
				}
			}
		case opNotI:
			aluI += int64(in.c) * cn
			d, a := int(in.dst)*w, int(in.a)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = b2i(iv[a+l] == 0)
				}
			}
		case opNotF:
			aluI += int64(in.c) * cn
			d, a := int(in.dst)*w, int(in.a)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = b2i(fv[a+l] == 0)
				}
			}
		case opMinMaxI:
			aluI += int64(in.c) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				x, y := iv[a+l], iv[b+l]
				if (x < y) == (in.norm != 0) {
					iv[d+l] = x
				} else {
					iv[d+l] = y
				}
			}
		case opAbsI:
			aluI += int64(in.c) * cn
			d, a := int(in.dst)*w, int(in.a)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				v := iv[a+l]
				if v < 0 {
					v = -v
				}
				iv[d+l] = v
			}

		// --- float ALU ---
		case opAddF:
			aluF += int64(in.c) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					fv[d+l] = normFReg(in.norm, fv[a+l]+fv[b+l])
				}
			}
		case opSubF:
			aluF += int64(in.c) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					fv[d+l] = normFReg(in.norm, fv[a+l]-fv[b+l])
				}
			}
		case opMulF:
			aluF += int64(in.c) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					fv[d+l] = normFReg(in.norm, fv[a+l]*fv[b+l])
				}
			}
		case opDivF:
			aluF += int64(in.c) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					fv[d+l] = normFReg(in.norm, fv[a+l]/fv[b+l])
				}
			}
		case opFMAAF32:
			aluF += int64(in.norm) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					fv[d+l] = float64(float32(fv[d+l] + float64(float32(fv[a+l]*fv[b+l]))))
				}
			}
		case opNegF:
			aluF += int64(in.c) * cn
			d, a := int(in.dst)*w, int(in.a)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					fv[d+l] = normFReg(in.norm, -fv[a+l])
				}
			}
		case opIncDecF:
			aluF += cn
			d := int(in.dst) * w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					fv[d+l] = normFReg(in.norm, fv[d+l]+in.fimm)
				}
			}
		case opStepF:
			d, a := int(in.dst)*w, int(in.a)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					fv[d+l] = normFReg(in.norm, fv[a+l]+in.fimm)
				}
			}
		case opCmpF:
			aluF += int64(in.c) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = b2i(cmpFRegs(in.norm, fv[a+l], fv[b+l]))
				}
			}
		case opMinMaxF:
			aluF += int64(in.c) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				x, y := fv[a+l], fv[b+l]
				if (x < y) == (in.norm != 0) {
					fv[d+l] = x
				} else {
					fv[d+l] = y
				}
			}
		case opMath1:
			aluF += int64(in.c) * cn
			d, a := int(in.dst)*w, int(in.a)*w
			fn := prog.math1[in.imm]
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					fv[d+l] = float64(float32(fn(fv[a+l])))
				}
			}
		case opMath2:
			aluF += int64(in.c) * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			fn := prog.math2[in.imm]
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					fv[d+l] = float64(float32(fn(fv[a+l], fv[b+l])))
				}
			}

		// --- fused FMA superinstructions ---
		case opFMALd2F32, opFMALd2MAF32:
			ma := in.op == opFMALd2MAF32
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				if !rs.fmaLd2Lane(in, lb, l, w, ma, bufs) {
					return false
				}
			}
			aluF += 2 * cn
			if ma {
				aluI += 2 * cn
			}
			loads += 2 * cn
			loadB += 8 * cn
		case opIncJCmpI:
			aluI += 2 * cn
			d, a, b := int(in.dst)*w, int(in.a)*w, int(in.b)*w
			nrm := in.norm >> 4
			cc := in.norm & 0xf
			unsigned := cc&cmpU != 0
			step := int64(in.c)
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				iv[d+l] = normReg(nrm, iv[d+l]+step)
				var take bool
				if unsigned {
					take = cmpURegs(cc, iv[a+l], iv[b+l])
				} else {
					take = cmpSRegs(cc, iv[a+l], iv[b+l])
				}
				if take {
					brMask |= 1 << uint(l)
				}
			}
			branched, brTarget = true, int32(in.imm)
		case opFMALoopF32:
			// Run the fused loop per lane against the lane's scalar
			// register rows and private stats/trace; every lane exits at
			// the same pc (the instruction after the back edge).
			exit := pc
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				for r := 0; r < prog.numI; r++ {
					lb.tmpIR[r] = iv[r*w+l]
				}
				for r := 0; r < prog.numF; r++ {
					lb.tmpFR[r] = fv[r*w+l]
				}
				var snk TraceSink
				if lb.trace {
					snk = lb.logs[l]
				}
				exitPC, c, trap := rs.runFMALoop(code, pc-1, lb.tmpIR, lb.tmpFR,
					bufs, lb.stats[l].sites, lb.classify, snk, lb.wiv[l])
				if trap != nil {
					return false
				}
				aluI += c.aluI
				aluF += c.aluF
				loads += c.loads
				loadB += c.loadB
				for r := 0; r < prog.numI; r++ {
					iv[r*w+l] = lb.tmpIR[r]
				}
				for r := 0; r < prog.numF; r++ {
					fv[r*w+l] = lb.tmpFR[r]
				}
				exit = exitPC
			}
			if uniform {
				pc = exit
			} else {
				for l := 0; l < w; l++ {
					if mask>>uint(l)&1 == 1 {
						pcs[l] = int32(exit)
					}
				}
			}

		// --- work-item queries ---
		case opWISta:
			d := int(in.dst) * w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = lb.wiQueryLane(nd, in.norm, int(in.imm), l)
				}
			}
		case opWIDyn:
			d, a := int(in.dst)*w, int(in.a)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = lb.wiQueryLane(nd, in.norm, int(iv[a+l]&3), l)
				}
			}

		// --- global memory ---
		case opLdGF32:
			b := bufs[in.slot]
			d, a := int(in.dst)*w, int(in.a)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				i := iv[a+l]
				if uint64(i) >= uint64(len(b.F32)) {
					return false
				}
				lb.record(l, in.site, b.Base+i*4, 4, false)
				fv[d+l] = float64(b.F32[i])
			}
			loads += cn
			loadB += 4 * cn
		case opLdGF64:
			b := bufs[in.slot]
			d, a := int(in.dst)*w, int(in.a)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				i := iv[a+l]
				if uint64(i) >= uint64(len(b.F64)) {
					return false
				}
				lb.record(l, in.site, b.Base+i*8, 8, false)
				fv[d+l] = b.F64[i]
			}
			loads += cn
			loadB += 8 * cn
		case opLdGI64:
			b := bufs[in.slot]
			d, a := int(in.dst)*w, int(in.a)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				i := iv[a+l]
				if uint64(i) >= uint64(len(b.I64)) {
					return false
				}
				lb.record(l, in.site, b.Base+i*8, 8, false)
				iv[d+l] = b.I64[i]
			}
			loads += cn
			loadB += 8 * cn
		case opLdGI32:
			b := bufs[in.slot]
			d, a := int(in.dst)*w, int(in.a)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				i := iv[a+l]
				if uint64(i) >= uint64(len(b.I32)) {
					return false
				}
				lb.record(l, in.site, b.Base+i*4, 4, false)
				iv[d+l] = normReg(in.norm, int64(b.I32[i]))
			}
			loads += cn
			loadB += 4 * cn
		case opStGF32:
			b := bufs[in.slot]
			a, src := int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				i := iv[a+l]
				if uint64(i) >= uint64(len(b.F32)) {
					return false
				}
				lb.record(l, in.site, b.Base+i*4, 4, true)
				lb.undo = append(lb.undo, laneUndo{kind: uGF32, buf: b, idx: i, oldV: Value{F: float64(b.F32[i])}})
				b.F32[i] = float32(fv[src+l])
			}
			stores += cn
			storeB += 4 * cn
		case opStGF64:
			b := bufs[in.slot]
			a, src := int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				i := iv[a+l]
				if uint64(i) >= uint64(len(b.F64)) {
					return false
				}
				lb.record(l, in.site, b.Base+i*8, 8, true)
				lb.undo = append(lb.undo, laneUndo{kind: uGF64, buf: b, idx: i, oldV: Value{F: b.F64[i]}})
				b.F64[i] = fv[src+l]
			}
			stores += cn
			storeB += 8 * cn
		case opStGI64:
			b := bufs[in.slot]
			a, src := int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				i := iv[a+l]
				if uint64(i) >= uint64(len(b.I64)) {
					return false
				}
				lb.record(l, in.site, b.Base+i*8, 8, true)
				lb.undo = append(lb.undo, laneUndo{kind: uGI64, buf: b, idx: i, oldV: Value{I: b.I64[i]}})
				b.I64[i] = iv[src+l]
			}
			stores += cn
			storeB += 8 * cn
		case opStGI32:
			b := bufs[in.slot]
			a, src := int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				i := iv[a+l]
				if uint64(i) >= uint64(len(b.I32)) {
					return false
				}
				lb.record(l, in.site, b.Base+i*4, 4, true)
				lb.undo = append(lb.undo, laneUndo{kind: uGI32, buf: b, idx: i, oldV: Value{I: int64(b.I32[i])}})
				b.I32[i] = int32(iv[src+l])
			}
			stores += cn
			storeB += 4 * cn

		// --- __local arrays ---
		case opLdLI:
			arr := rs.wg.locals[in.slot]
			d, a := int(in.dst)*w, int(in.a)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				i := iv[a+l]
				if uint64(i) >= uint64(len(arr)) {
					return false
				}
				iv[d+l] = arr[i].I
			}
		case opLdLF:
			arr := rs.wg.locals[in.slot]
			d, a := int(in.dst)*w, int(in.a)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				i := iv[a+l]
				if uint64(i) >= uint64(len(arr)) {
					return false
				}
				fv[d+l] = arr[i].F
			}
		case opStLI:
			arr := rs.wg.locals[in.slot]
			a, src := int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				i := iv[a+l]
				if uint64(i) >= uint64(len(arr)) {
					return false
				}
				lb.undo = append(lb.undo, laneUndo{kind: uVal, arr: arr, idx: i, oldV: arr[i]})
				arr[i] = Value{I: iv[src+l]}
			}
		case opStLF:
			arr := rs.wg.locals[in.slot]
			a, src := int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				i := iv[a+l]
				if uint64(i) >= uint64(len(arr)) {
					return false
				}
				lb.undo = append(lb.undo, laneUndo{kind: uVal, arr: arr, idx: i, oldV: arr[i]})
				arr[i] = Value{F: fv[src+l]}
			}

		// --- private arrays (per-lane rows) ---
		case opLdPI:
			d, a := int(in.dst)*w, int(in.a)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				arr := rs.privScratch[lb.base+l][in.slot]
				i := iv[a+l]
				if uint64(i) >= uint64(len(arr)) {
					return false
				}
				iv[d+l] = arr[i].I
			}
		case opLdPF:
			d, a := int(in.dst)*w, int(in.a)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				arr := rs.privScratch[lb.base+l][in.slot]
				i := iv[a+l]
				if uint64(i) >= uint64(len(arr)) {
					return false
				}
				fv[d+l] = arr[i].F
			}
		case opStPI:
			a, src := int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				arr := rs.privScratch[lb.base+l][in.slot]
				i := iv[a+l]
				if uint64(i) >= uint64(len(arr)) {
					return false
				}
				lb.undo = append(lb.undo, laneUndo{kind: uVal, arr: arr, idx: i, oldV: arr[i]})
				arr[i] = Value{I: iv[src+l]}
			}
		case opStPF:
			a, src := int(in.a)*w, int(in.b)*w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				arr := rs.privScratch[lb.base+l][in.slot]
				i := iv[a+l]
				if uint64(i) >= uint64(len(arr)) {
					return false
				}
				lb.undo = append(lb.undo, laneUndo{kind: uVal, arr: arr, idx: i, oldV: arr[i]})
				arr[i] = Value{F: fv[src+l]}
			}

		// --- __local scalars ---
		case opLdLSI:
			arr := rs.wg.locals[in.slot]
			d := int(in.dst) * w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					iv[d+l] = arr[0].I
				}
			}
		case opLdLSF:
			arr := rs.wg.locals[in.slot]
			d := int(in.dst) * w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 1 {
					fv[d+l] = arr[0].F
				}
			}
		case opStLSI:
			arr := rs.wg.locals[in.slot]
			a := int(in.a) * w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				lb.undo = append(lb.undo, laneUndo{kind: uVal, arr: arr, idx: 0, oldV: arr[0]})
				arr[0] = Value{I: iv[a+l]}
			}
		case opStLSF:
			arr := rs.wg.locals[in.slot]
			a := int(in.a) * w
			for l := 0; l < w; l++ {
				if mask>>uint(l)&1 == 0 {
					continue
				}
				lb.undo = append(lb.undo, laneUndo{kind: uVal, arr: arr, idx: 0, oldV: arr[0]})
				arr[0] = Value{F: fv[a+l]}
			}

		default:
			// Atomics (pinned at lowering, but kept safe here), opChkAtomG,
			// and anything this engine does not implement: bail to the
			// scalar replay, which raises the exact sequential behaviour.
			return false
		}

		// Retire lanes that executed a return.
		if retMask != 0 {
			retired |= retMask
			live &^= retMask
		}
		// Resolve branches: all-taken stays uniform, a partial take
		// materializes per-lane pcs.
		if branched {
			brMask &= live
			if uniform {
				if brMask == live {
					pc = int(brTarget)
				} else if brMask != 0 {
					for l := 0; l < w; l++ {
						bit := uint64(1) << uint(l)
						if live&bit == 0 {
							continue
						}
						if brMask&bit != 0 {
							pcs[l] = brTarget
						} else {
							pcs[l] = int32(pc)
						}
					}
					uniform = false
				}
			} else {
				for l := 0; l < w; l++ {
					if brMask>>uint(l)&1 == 1 {
						pcs[l] = brTarget
					}
				}
			}
		}
		if !uniform {
			// Lanes that ran off the segment end are done; reconverge to
			// the uniform fast path when every live lane agrees on pc.
			for l := 0; l < w; l++ {
				bit := uint64(1) << uint(l)
				if live&bit != 0 && int(pcs[l]) >= n {
					live &^= bit
				}
			}
			if live != 0 {
				first := int32(-1)
				conv := true
				for l := 0; l < w; l++ {
					if live>>uint(l)&1 == 0 {
						continue
					}
					if first < 0 {
						first = pcs[l]
					} else if pcs[l] != first {
						conv = false
						break
					}
				}
				if conv {
					uniform, pc = true, int(first)
				}
			}
		}
	}

	rs.stats.AluInt += aluI
	rs.stats.AluFloat += aluF
	rs.stats.Loads += loads
	rs.stats.LoadBytes += loadB
	rs.stats.Stores += stores
	rs.stats.StoreBytes += storeB
	lb.retired = retired
	return true
}

// fmaLd2Lane executes one opFMALd2F32/opFMALd2MAF32 for lane l,
// recording both loads into the lane's private stats/trace. Returns
// false on a bounds violation (the batch bails).
func (rs *runState) fmaLd2Lane(in *instr, lb *laneBatch, l, w int, ma bool, bufs []*Buffer) bool {
	iv, fv := lb.irv, lb.frv
	ba := bufs[in.slot]
	var ia, ix int64
	var bx *Buffer
	if ma {
		v := int64(int32(iv[int(in.a)*w+l] * iv[int(in.b)*w+l]))
		ia = int64(int32(v + iv[int(in.c)*w+l]))
		bx = bufs[int32(in.imm>>32)&0xFFFF]
		ix = iv[int(int32(in.imm>>48))*w+l]
	} else {
		ia = iv[int(in.a)*w+l]
		bx = bufs[int32(in.imm>>32)]
		ix = iv[int(in.b)*w+l]
	}
	if uint64(ia) >= uint64(len(ba.F32)) {
		return false
	}
	lb.record(l, in.site, ba.Base+ia*4, 4, false)
	if uint64(ix) >= uint64(len(bx.F32)) {
		return false
	}
	lb.record(l, int32(uint32(in.imm)), bx.Base+ix*4, 4, false)
	d := int(in.dst)*w + l
	fv[d] = float64(float32(fv[d]) + float32(ba.F32[ia]*bx.F32[ix]))
	return true
}
