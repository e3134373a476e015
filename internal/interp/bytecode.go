package interp

// This file implements the register-based bytecode execution engine: a
// flat instruction array per barrier-delimited segment, dispatched by one
// tight switch loop over separate int64/float64 register files. It is the
// interpreter's default engine and lowers every kernel the checker
// accepts; the tree-of-closures engine (compile.go) is the reference
// implementation, run only when a caller selects it.
//
// The engine is bit-identical to the closure engine in every observable:
// output buffers, RunStats counters, per-site access patterns, and
// runtime-error behaviour (same messages, same positions,
// same panic containment). The lowering pass (lower.go) guarantees this
// by construction: every instruction reproduces the exact arithmetic
// (including OpenCL 32-bit wrap-around and float32 rounding), the exact
// statistics increments, and the exact memory-access order of the
// closures it replaces. Fused superinstructions bump the statistics
// counters once per fused operation, so totals stay identical:
//
//   - opMulAddI: multiply-add addressing (row*n + col);
//   - opJCmpI, opJCmpIK, opIncJCmpI: compare-and-branch, against a
//     register plus a constant, and a counted loop's whole back edge;
//   - opFMAAF32, opFMALoopF32: float32 accumulation, and a whole
//     reduction loop over one or two of them, recognised from its generic
//     code (superinst.go);
//   - opLdGF32K, opLdOpF32, opTapF32: a float32 load at a shared
//     subscript base plus a constant, alone, as the last operand of a
//     float op, and as a stencil tap acc ± k·A[base+imm] (straight.go);
//   - opStat: the merged statistics pre-payment of a straight-line run.

import (
	"fmt"
	"slices"

	"dopia/internal/clc"
	"dopia/internal/faults"
)

// opcode enumerates the VM instructions. The dispatch switch is dense, so
// the compiler lowers it to a jump table.
type opcode uint8

// Instruction opcodes.
const (
	// Control flow. imm is the absolute target pc within the segment.
	opJmp    opcode = iota
	opJmpZI         // jump if ir[a] == 0
	opJmpNZI        // jump if ir[a] != 0
	opJmpZF         // jump if fr[a] == 0
	opJmpNZF        // jump if fr[a] != 0
	opJCmpI         // AluInt += c; jump if !cmpI(norm, ir[a], ir[b])
	opJCmpF         // AluFloat += c; jump if !cmpF(norm, fr[a], fr[b])
	// opJCmpIK is a guard against a register plus a constant, as in
	// i < N - 1: AluInt += c; jump if !cmpS(norm, ir[a], n32(ir[b] + k)).
	opJCmpIK
	opRet // work-item done for this and all later segments

	// Statistics pre-payment. The closure engine counts an operation
	// before evaluating its operands, so when an operand subtree can trap
	// (bounds, division by zero) the lowerer emits the operation's count
	// up front and zeroes the count field (c) of the operation itself;
	// trap-time counter totals then match the closures exactly. Runs of
	// pre-payments merge (mergeStats), so one opStat may pay both.
	opStat // AluInt += c; AluFloat += k

	// Trap-order check. The closure engine evaluates a divisor before
	// the dividend; this opcode reproduces that trap point in-order when
	// the surrounding operands have observable effects.
	opChkDiv0 // trap if ir[a] == 0; imm 0 = division, 1 = modulo

	// Constants, moves, conversions (no statistics, like closure convert).
	opConstI // ir[dst] = imm
	opConstF // fr[dst] = fimm
	opMovI   // ir[dst] = norm(ir[a])
	opMovF   // fr[dst] = normf(fr[a])
	opI2F    // fr[dst] = normf(float(ir[a])); norm bit convUnsigned: via uint64
	opF2I    // ir[dst] = norm(int64(fr[a]))

	// Integer ALU. Each op adds its count field (c, normally 1; 0 when
	// pre-paid by opStat) to AluInt and normalizes its result to the
	// promoted kind (norm field), exactly like binOpFn.
	opAddI
	opSubI
	opMulI
	opMulAddI // ir[dst] = n32(n32(ir[a]*ir[b]) + ir[c]); AluInt += norm (2, or 0 for a subscript base)
	opDivI    // traps "integer division by zero" at pos
	opDivU
	opRemI // traps "integer modulo by zero" at pos
	opRemU
	opShlI // imm = shift mask (31 or 63)
	opShrI
	opShrU
	opAndI
	opOrI
	opXorI
	opNegI
	opBitNotI
	opIncDecI // ir[dst] = norm(ir[dst] + imm); AluInt++
	opStepI   // ir[dst] = norm(ir[a] + imm); no statistics (inc/dec helper)
	opCmpI    // ir[dst] = cmpI(norm, ir[a], ir[b]); AluInt += c
	opNotI    // ir[dst] = (ir[a] == 0); AluInt += c
	opNotF    // ir[dst] = (fr[a] == 0); AluInt += c (UnaryNot is an int op)
	opMinMaxI // norm != 0 selects min; AluInt += c
	opAbsI    // AluInt += c

	// Float ALU. Each op adds its count field (c) to AluFloat; norm
	// selects float32 rounding.
	opAddF
	opSubF
	opMulF
	opDivF
	opFMAAF32 // fr[dst] = f32(fr[dst] + f32(fr[a]*fr[b])); AluFloat += norm
	opNegF
	opIncDecF // fr[dst] = normf(fr[dst] + fimm); AluFloat++
	opStepF   // fr[dst] = normf(fr[a] + fimm); no statistics
	opCmpF    // ir[dst] = cmpF(norm, fr[a], fr[b]); AluFloat += c
	opMinMaxF // norm != 0 selects min; AluFloat += c
	opMath1   // fr[dst] = f32(math1[imm](fr[a])); AluFloat += c
	opMath2   // fr[dst] = f32(math2[imm](fr[a], fr[b])); AluFloat += c

	// Superinstructions for the reduction inner loops that dominate
	// profiled launches (dot-product style kernels). All preserve the
	// closure engine's exact statistic/record/trap order.
	opIncJCmpI // ir[dst] = norm>>4(ir[dst]+c); AluInt += 2; jump to imm if cmpI(norm&15, ir[a], ir[b])

	// opFMALoopF32 is a fused loop head (see fuseFMALoops): it replaces
	// the zero-trip guard (an opJCmpI) of a loop whose body is the generic
	// code of one or two float32 accumulations acc += [s *] A[ia] * X[ix]
	// over global loads, closed by an opIncJCmpI jumping back to the body.
	// The head keeps the guard's compare (norm&15, a, b), count (c) and
	// exit target (imm), so the back edge sits at imm-1; norm>>4 holds
	// the term count and k the first term's index in bcProgram.terms. The
	// body and back edge stay in place unmodified. The executor
	// (runFMALoop) runs the guard and, when it can compute the trip and
	// addresses up front and the closed form has a loop for the shape,
	// the whole loop in closed form, with constant-stride classifier runs
	// batched through access.Classifier.ObserveRun — observably
	// identical, per access, to the generic body. Otherwise dispatch
	// continues into the body. A parking run stops a work-item here
	// instead (park.go).
	opFMALoopF32

	// Work-item functions. norm is the wi* code; static dim in imm (in
	// [0, 3): lowering resolves any other), dynamic dim in ir[a].
	opWISta
	opWIDyn

	// Global-memory access: a = index register, slot = parameter slot,
	// site = memory site, pos = subscript position for bounds traps.
	// Loads/stores update Loads/Stores counters and the site classifier
	// (unless sampling skips this group) in exactly the closure engine's
	// order: bounds check, record, data move.
	opLdGF32
	opLdGF64
	opLdGI64
	opLdGI32 // norm re-widens like normInt(kind, int64(b.I32[i]))
	opStGF32 // b = source register
	opStGF64
	opStGI64
	opStGI32

	// Straight-line float32 loads (straight.go). Each reads A = the
	// buffer in slot at n32(ir[a] + imm) — a shared subscript base plus a
	// constant — and pays AluInt += c, AluFloat += k before its bounds
	// check, which is when the closure engine has counted the subscript
	// and the operations that enclose the load.
	opLdGF32K // fr[dst] = A
	opLdOpF32 // fr[dst] = f32(fr[b] op A); norm: 0 +, 1 -, 2 ×
	opTapF32  // fr[dst] = f32(fr[dst] ± f32(fr[b]·A)); norm: 0 +, 1 -

	// __local arrays (slot = local index) and private arrays (slot =
	// private index): bounds-checked, unrecorded, Value-typed storage.
	opLdLI
	opLdLF
	opStLI
	opStLF
	opLdPI
	opLdPF
	opStPI
	opStPF

	// __local scalars: wg.locals[slot][0].
	opLdLSI
	opLdLSF
	opStLSI // a = source register
	opStLSF

	// Atomics (norm&7 = atomicOp, a = operand register, dst = old value).
	// opAtomicL and opAtomicG count, load, apply and store at once (slot =
	// local index or parameter slot); lowering uses them when the operand
	// is absent or has no observable effect. Otherwise the atomic runs in
	// two phases around the operand's code: opAtomicLd counts and loads
	// ir[dst], and opAtomicSt applies and stores. Both phases address a
	// global target when norm has atomGlobal. A global target traps "atomic
	// on empty buffer" at pos; global atomics pin the launch to one
	// goroutine.
	opAtomicL
	opAtomicG
	opAtomicLd
	opAtomicSt
)

// norm codes for integer results (opcode-specific interpretation).
const (
	normNone uint8 = iota // keep 64-bit pattern (long/ulong)
	normI32               // int64(int32(v))
	normU32               // int64(uint32(v))
	normBool              // v != 0
	normF32               // float64(float32(v)) — float ops/moves only
)

// atomGlobal, or-ed onto the norm of opAtomicLd and opAtomicSt, selects
// a global target (slot = parameter slot) over a __local one.
const atomGlobal uint8 = 8

// conversion flag bits for opI2F (kept separate from norm codes).
const (
	convRound32  uint8 = 1 << 0 // round result to float32
	convUnsigned uint8 = 1 << 1 // source is ulong: convert via uint64
)

// comparison codes (norm field of opCmpI/opCmpF/opJCmpI/opJCmpF).
const (
	cmpEq uint8 = iota
	cmpNe
	cmpLt
	cmpGt
	cmpLe
	cmpGe
	cmpU uint8 = 8 // unsigned flag, or-ed onto lt/gt/le/ge
)

// work-item function codes (norm field of opWISta/opWIDyn).
const (
	wiGlobalID uint8 = iota
	wiLocalID
	wiGroupID
	wiGlobalSize
	wiLocalSize
	wiNumGroups
	wiGlobalOffset
	wiWorkDim
)

// instr is one VM instruction. dst/a/b/c index the register files; slot
// and site carry static memory metadata; imm/fimm hold immediates, jump
// targets, shift masks, and function-table indices; pos is the source
// position reported by runtime traps.
type instr struct {
	op   opcode
	norm uint8
	dst  int32
	a    int32
	b    int32
	c    int32
	slot int32
	site int32
	k    int32 // AluFloat count of opStat and the straight-line loads; opJCmpIK's constant; opFMALoopF32's first term
	imm  int64
	fimm float64
	pos  clc.Pos
}

// paramCopy moves one scalar kernel argument into its variable register
// (the closure engine's copy(slots, paramVals) at work-item start).
type paramCopy struct {
	slot int32
	reg  int32
}

// bcProgram is a kernel lowered to bytecode: one instruction array per
// barrier-delimited segment plus the register-file sizes and the scalar
// parameter copy plan. Like compiled closure forms, a bcProgram is
// immutable after lowering and holds no execution state, so it is shared
// freely across executors and shard workers.
type bcProgram struct {
	segments [][]instr
	numI     int       // int register file size (variables + temporaries)
	numF     int       // float register file size
	initI    []int64   // a new int register row's contents (constants preloaded)
	initF    []float64 // a new float register row's contents
	// Scalar parameters the kernel writes, copied at each work-item's
	// start, and those it never writes (declOnly), loaded once per run.
	paramI   []paramCopy
	paramF   []paramCopy
	fixedI   []paramCopy
	fixedF   []paramCopy
	math1    []func(float64) float64
	math2    []func(a, b float64) float64
	terms    []fmaTerm // fused loops' terms, from each head's k (fuseFMALoops)
	parkable bool      // an unprofiled run may park its work-items (park.go)
}

// normReg normalizes an integer result (normInt by code).
func normReg(n uint8, v int64) int64 {
	switch n {
	case normI32:
		return int64(int32(v))
	case normU32:
		return int64(uint32(v))
	case normBool:
		if v != 0 {
			return 1
		}
		return 0
	}
	return v
}

// normFReg rounds a float result to float32 when requested (normFloat).
func normFReg(n uint8, v float64) float64 {
	if n == normF32 {
		return float64(float32(v))
	}
	return v
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// cmpIRegs applies an integer comparison code.
func cmpIRegs(code uint8, a, b int64) bool {
	if code&cmpU != 0 {
		return cmpURegs(code, a, b)
	}
	return cmpSRegs(code, a, b)
}

// cmpSRegs applies a signed integer comparison code (code has cmpU
// clear). Separate from cmpIRegs so the dispatch loop's conditional
// jumps — overwhelmingly signed loop compares — can inline it.
func cmpSRegs(code uint8, a, b int64) bool {
	switch code {
	case cmpEq:
		return a == b
	case cmpNe:
		return a != b
	case cmpLt:
		return a < b
	case cmpGt:
		return a > b
	case cmpLe:
		return a <= b
	default: // cmpGe
		return a >= b
	}
}

// cmpURegs applies an unsigned integer comparison code (code has cmpU set).
func cmpURegs(code uint8, a, b int64) bool {
	ua, ub := uint64(a), uint64(b)
	switch code &^ cmpU {
	case cmpLt:
		return ua < ub
	case cmpGt:
		return ua > ub
	case cmpLe:
		return ua <= ub
	default: // cmpGe
		return ua >= ub
	}
}

// cmpFRegs applies a float comparison code (IEEE semantics: every
// comparison with NaN is false, exactly like the closure engine's Go
// comparisons).
func cmpFRegs(code uint8, a, b float64) bool {
	switch code {
	case cmpEq:
		return a == b
	case cmpNe:
		return a != b
	case cmpLt:
		return a < b
	case cmpGt:
		return a > b
	case cmpLe:
		return a <= b
	default: // cmpGe
		return a >= b
	}
}

// recordG updates the sampled classifier for a global-memory access from
// the VM; the aggregate load/store counters are batched in execBC-local
// accumulators and flushed on return (also during trap unwinding, so
// counters at a fault are bit-identical to the closure engine's immediate
// increments).
func recordG(e *env, st *siteState, b *Buffer, idx, es int64) {
	if e.classify {
		st.recordAccess(b.Base+idx*es, es, e.wi)
	}
}

// wiQuery evaluates a work-item builtin for dimension d. A dimension
// outside [0, 3), a huge unsigned one included, reads wiOutOfRange.
func wiQuery(e *env, code uint8, d int64) int64 {
	if uint64(d) >= 3 {
		return wiOutOfRange(code)
	}
	switch code {
	case wiGlobalID:
		return e.gid[d]
	case wiLocalID:
		return e.lid[d]
	case wiGroupID:
		return e.grp[d]
	case wiGlobalSize:
		return int64(e.nd.Global[d])
	case wiLocalSize:
		return int64(e.nd.Local[d])
	case wiNumGroups:
		return int64(e.nd.NumGroups()[d])
	case wiGlobalOffset:
		return int64(e.nd.Offset[d])
	}
	return int64(e.nd.Dims) // wiWorkDim
}

// wiOutOfRange is what a work-item builtin answers for a dimension
// outside [0, 3) in both engines (OpenCL 1.2 §6.12.1): 1 from the size
// and group-count queries, 0 from the id, group and offset queries.
func wiOutOfRange(code uint8) int64 {
	if code == wiGlobalSize || code == wiLocalSize || code == wiNumGroups {
		return 1
	}
	return 0
}

// execBC runs segment seg from pc for work-item lin, as rs.enterItem set
// it up, then steps in place through the later items before end that have
// not returned: lid and gid advance with dimension 0 fastest. A
// one-segment program runs them all on one register row; with barriers,
// each item keeps its own. Runtime errors panic with *runtimeError like
// the closure engine's and are recovered at the runGroup boundary. A
// parking pass (rs.parking) stops at the first fused loop head and leaves
// its pc in rs.parkAt.
func (rs *runState) execBC(seg, pc, lin, end int) {
	prog := rs.ex.prog
	code := prog.segments[seg]
	e := &rs.env
	ir, fr := rs.irScratch[lin], rs.frScratch[lin]
	stats := e.stats
	// Loop-invariant env fields: the classifier gate is fixed for the
	// group, and the linear work-item id changes only where an item ends.
	classify := e.classify
	wi := e.wi
	// Hoisted slice headers: without locals the compiler reloads these
	// on every access.
	sites := stats.sites
	bufs := e.bufs
	// Aggregate counters are batched in locals and flushed on return.
	// The deferred flush also runs while a runtime trap unwinds, so the
	// counters observed at a fault are bit-identical to the closure
	// engine's immediate increments.
	var aluI, aluF, loads, loadB, stores, storeB, items int64
	defer func() {
		stats.AluInt += aluI
		stats.AluFloat += aluF
		stats.Loads += loads
		stats.LoadBytes += loadB
		stats.Stores += stores
		stats.StoreBytes += storeB
		stats.ItemsRun += items
	}()
	for {
		for pc < len(code) {
			in := &code[pc]
			pc++
			switch in.op {
			// --- control flow ---
			case opJmp:
				pc = int(in.imm)
			case opJmpZI:
				if ir[in.a] == 0 {
					pc = int(in.imm)
				}
			case opJmpNZI:
				if ir[in.a] != 0 {
					pc = int(in.imm)
				}
			case opJmpZF:
				if fr[in.a] == 0 {
					pc = int(in.imm)
				}
			case opJmpNZF:
				if fr[in.a] != 0 {
					pc = int(in.imm)
				}
			case opJCmpI:
				aluI += int64(in.c)
				var take bool
				if in.norm&cmpU != 0 {
					take = cmpURegs(in.norm, ir[in.a], ir[in.b])
				} else {
					take = cmpSRegs(in.norm, ir[in.a], ir[in.b])
				}
				if !take {
					pc = int(in.imm)
				}
			case opJCmpF:
				aluF += int64(in.c)
				if !cmpFRegs(in.norm, fr[in.a], fr[in.b]) {
					pc = int(in.imm)
				}
			case opJCmpIK:
				aluI += int64(in.c)
				if !cmpSRegs(in.norm, ir[in.a], int64(int32(ir[in.b]+int64(in.k)))) {
					pc = int(in.imm)
				}
			case opRet:
				rs.doneScratch[lin] = true
				pc = len(code)

			case opStat:
				aluI += int64(in.c)
				aluF += int64(in.k)
			case opChkDiv0:
				if ir[in.a] == 0 {
					if in.imm != 0 {
						rtErr(in.pos, "integer modulo by zero")
					}
					rtErr(in.pos, "integer division by zero")
				}

			// --- constants, moves, conversions ---
			case opConstI:
				ir[in.dst] = in.imm
			case opConstF:
				fr[in.dst] = in.fimm
			case opMovI:
				ir[in.dst] = normReg(in.norm, ir[in.a])
			case opMovF:
				fr[in.dst] = normFReg(in.norm, fr[in.a])
			case opI2F:
				var v float64
				if in.norm&convUnsigned != 0 {
					v = float64(uint64(ir[in.a]))
				} else {
					v = float64(ir[in.a])
				}
				if in.norm&convRound32 != 0 {
					v = float64(float32(v))
				}
				fr[in.dst] = v
			case opF2I:
				ir[in.dst] = normReg(in.norm, int64(fr[in.a]))

			// --- integer ALU ---
			case opAddI:
				aluI += int64(in.c)
				ir[in.dst] = normReg(in.norm, ir[in.a]+ir[in.b])
			case opSubI:
				aluI += int64(in.c)
				ir[in.dst] = normReg(in.norm, ir[in.a]-ir[in.b])
			case opMulI:
				aluI += int64(in.c)
				ir[in.dst] = normReg(in.norm, ir[in.a]*ir[in.b])
			case opMulAddI:
				aluI += int64(in.norm)
				v := int64(int32(ir[in.a] * ir[in.b]))
				ir[in.dst] = int64(int32(v + ir[in.c]))
			case opDivI:
				aluI += int64(in.c)
				rv := ir[in.b]
				if rv == 0 {
					rtErr(in.pos, "integer division by zero")
				}
				ir[in.dst] = normReg(in.norm, ir[in.a]/rv)
			case opDivU:
				aluI += int64(in.c)
				rv := ir[in.b]
				if rv == 0 {
					rtErr(in.pos, "integer division by zero")
				}
				ir[in.dst] = normReg(in.norm, int64(uint64(ir[in.a])/uint64(rv)))
			case opRemI:
				aluI += int64(in.c)
				rv := ir[in.b]
				if rv == 0 {
					rtErr(in.pos, "integer modulo by zero")
				}
				ir[in.dst] = normReg(in.norm, ir[in.a]%rv)
			case opRemU:
				aluI += int64(in.c)
				rv := ir[in.b]
				if rv == 0 {
					rtErr(in.pos, "integer modulo by zero")
				}
				ir[in.dst] = normReg(in.norm, int64(uint64(ir[in.a])%uint64(rv)))
			case opShlI:
				aluI += int64(in.c)
				ir[in.dst] = normReg(in.norm, ir[in.a]<<uint64(ir[in.b]&in.imm))
			case opShrI:
				aluI += int64(in.c)
				ir[in.dst] = normReg(in.norm, ir[in.a]>>uint64(ir[in.b]&in.imm))
			case opShrU:
				aluI += int64(in.c)
				ir[in.dst] = normReg(in.norm, int64(uint64(ir[in.a])>>uint64(ir[in.b]&in.imm)))
			case opAndI:
				aluI += int64(in.c)
				ir[in.dst] = normReg(in.norm, ir[in.a]&ir[in.b])
			case opOrI:
				aluI += int64(in.c)
				ir[in.dst] = normReg(in.norm, ir[in.a]|ir[in.b])
			case opXorI:
				aluI += int64(in.c)
				ir[in.dst] = normReg(in.norm, ir[in.a]^ir[in.b])
			case opNegI:
				aluI += int64(in.c)
				ir[in.dst] = normReg(in.norm, -ir[in.a])
			case opBitNotI:
				aluI += int64(in.c)
				ir[in.dst] = normReg(in.norm, ^ir[in.a])
			case opIncDecI:
				aluI++
				ir[in.dst] = normReg(in.norm, ir[in.dst]+in.imm)
			case opStepI:
				ir[in.dst] = normReg(in.norm, ir[in.a]+in.imm)
			case opCmpI:
				aluI += int64(in.c)
				ir[in.dst] = b2i(cmpIRegs(in.norm, ir[in.a], ir[in.b]))
			case opNotI:
				aluI += int64(in.c)
				ir[in.dst] = b2i(ir[in.a] == 0)
			case opNotF:
				aluI += int64(in.c)
				ir[in.dst] = b2i(fr[in.a] == 0)
			case opMinMaxI:
				aluI += int64(in.c)
				x, y := ir[in.a], ir[in.b]
				if (x < y) == (in.norm != 0) {
					ir[in.dst] = x
				} else {
					ir[in.dst] = y
				}
			case opAbsI:
				aluI += int64(in.c)
				v := ir[in.a]
				if v < 0 {
					v = -v
				}
				ir[in.dst] = v

			// --- float ALU ---
			case opAddF:
				aluF += int64(in.c)
				fr[in.dst] = normFReg(in.norm, fr[in.a]+fr[in.b])
			case opSubF:
				aluF += int64(in.c)
				fr[in.dst] = normFReg(in.norm, fr[in.a]-fr[in.b])
			case opMulF:
				aluF += int64(in.c)
				fr[in.dst] = normFReg(in.norm, fr[in.a]*fr[in.b])
			case opDivF:
				aluF += int64(in.c)
				fr[in.dst] = normFReg(in.norm, fr[in.a]/fr[in.b])
			case opFMAAF32:
				aluF += int64(in.norm)
				fr[in.dst] = float64(float32(fr[in.dst] + float64(float32(fr[in.a]*fr[in.b]))))
			case opNegF:
				aluF += int64(in.c)
				fr[in.dst] = normFReg(in.norm, -fr[in.a])
			case opIncDecF:
				aluF++
				fr[in.dst] = normFReg(in.norm, fr[in.dst]+in.fimm)
			case opStepF:
				fr[in.dst] = normFReg(in.norm, fr[in.a]+in.fimm)
			case opCmpF:
				aluF += int64(in.c)
				ir[in.dst] = b2i(cmpFRegs(in.norm, fr[in.a], fr[in.b]))
			case opMinMaxF:
				aluF += int64(in.c)
				x, y := fr[in.a], fr[in.b]
				if (x < y) == (in.norm != 0) {
					fr[in.dst] = x
				} else {
					fr[in.dst] = y
				}
			case opMath1:
				aluF += int64(in.c)
				fr[in.dst] = float64(float32(prog.math1[in.imm](fr[in.a])))
			case opMath2:
				aluF += int64(in.c)
				fr[in.dst] = float64(float32(prog.math2[in.imm](fr[in.a], fr[in.b])))
			case opIncJCmpI:
				// Fused loop back-edge: post inc/dec of an int variable
				// (AluInt++), then the loop condition compare (AluInt++),
				// then the jump back to the body when it holds.
				aluI += 2
				ir[in.dst] = normReg(in.norm>>4, ir[in.dst]+int64(in.c))
				cc := in.norm & 0xf
				var take bool
				if cc&cmpU != 0 {
					take = cmpURegs(cc, ir[in.a], ir[in.b])
				} else {
					take = cmpSRegs(cc, ir[in.a], ir[in.b])
				}
				if take {
					pc = int(in.imm)
				}

			case opFMALoopF32:
				// Fused loop: runFMALoop runs the guard and, when it can, the
				// whole 1-2 term body and the opIncJCmpI back edge in closed
				// form, outside the dispatch loop; otherwise dispatch goes on
				// into the generic body. Counter deltas merge into the batched
				// locals so the deferred flush keeps trap-time totals exact.
				if rs.parking {
					rs.parkAt = pc - 1
					return
				}
				next, c := rs.runFMALoop(code, pc-1, ir, fr, bufs, sites, classify, wi)
				aluI += c.aluI
				aluF += c.aluF
				loads += c.loads
				loadB += c.loadB
				pc = next

			// --- work-item queries ---
			case opWISta:
				switch in.norm {
				case wiGlobalID:
					ir[in.dst] = e.gid[in.imm]
				case wiLocalID:
					ir[in.dst] = e.lid[in.imm]
				default:
					ir[in.dst] = wiQuery(e, in.norm, in.imm)
				}
			case opWIDyn:
				ir[in.dst] = wiQuery(e, in.norm, ir[in.a])

			// --- global memory ---
			case opLdGF32:
				b := bufs[in.slot]
				i := ir[in.a]
				if uint64(i) >= uint64(len(b.F32)) {
					rtErr(in.pos, "index %d out of range [0,%d)", i, len(b.F32))
				}
				loads++
				loadB += 4
				recordG(e, &sites[in.site], b, i, 4)
				fr[in.dst] = float64(b.F32[i])
			case opLdGF64:
				b := bufs[in.slot]
				i := ir[in.a]
				if uint64(i) >= uint64(len(b.F64)) {
					rtErr(in.pos, "index %d out of range [0,%d)", i, len(b.F64))
				}
				loads++
				loadB += 8
				recordG(e, &sites[in.site], b, i, 8)
				fr[in.dst] = b.F64[i]
			case opLdGI64:
				b := bufs[in.slot]
				i := ir[in.a]
				if uint64(i) >= uint64(len(b.I64)) {
					rtErr(in.pos, "index %d out of range [0,%d)", i, len(b.I64))
				}
				loads++
				loadB += 8
				recordG(e, &sites[in.site], b, i, 8)
				ir[in.dst] = b.I64[i]
			case opLdGI32:
				b := bufs[in.slot]
				i := ir[in.a]
				if uint64(i) >= uint64(len(b.I32)) {
					rtErr(in.pos, "index %d out of range [0,%d)", i, len(b.I32))
				}
				loads++
				loadB += 4
				recordG(e, &sites[in.site], b, i, 4)
				ir[in.dst] = normReg(in.norm, int64(b.I32[i]))
			case opStGF32:
				b := bufs[in.slot]
				i := ir[in.a]
				if uint64(i) >= uint64(len(b.F32)) {
					rtErr(in.pos, "index %d out of range [0,%d)", i, len(b.F32))
				}
				stores++
				storeB += 4
				recordG(e, &sites[in.site], b, i, 4)
				b.F32[i] = float32(fr[in.b])
			case opStGF64:
				b := bufs[in.slot]
				i := ir[in.a]
				if uint64(i) >= uint64(len(b.F64)) {
					rtErr(in.pos, "index %d out of range [0,%d)", i, len(b.F64))
				}
				stores++
				storeB += 8
				recordG(e, &sites[in.site], b, i, 8)
				b.F64[i] = fr[in.b]
			case opStGI64:
				b := bufs[in.slot]
				i := ir[in.a]
				if uint64(i) >= uint64(len(b.I64)) {
					rtErr(in.pos, "index %d out of range [0,%d)", i, len(b.I64))
				}
				stores++
				storeB += 8
				recordG(e, &sites[in.site], b, i, 8)
				b.I64[i] = ir[in.b]
			case opStGI32:
				b := bufs[in.slot]
				i := ir[in.a]
				if uint64(i) >= uint64(len(b.I32)) {
					rtErr(in.pos, "index %d out of range [0,%d)", i, len(b.I32))
				}
				stores++
				storeB += 4
				recordG(e, &sites[in.site], b, i, 4)
				b.I32[i] = int32(ir[in.b])

			case opLdGF32K:
				aluI += int64(in.c)
				aluF += int64(in.k)
				b := bufs[in.slot]
				i := int64(int32(ir[in.a] + in.imm))
				if uint64(i) >= uint64(len(b.F32)) {
					rtErr(in.pos, "index %d out of range [0,%d)", i, len(b.F32))
				}
				loads++
				loadB += 4
				recordG(e, &sites[in.site], b, i, 4)
				fr[in.dst] = float64(b.F32[i])
			case opLdOpF32:
				aluI += int64(in.c)
				aluF += int64(in.k)
				b := bufs[in.slot]
				i := int64(int32(ir[in.a] + in.imm))
				if uint64(i) >= uint64(len(b.F32)) {
					rtErr(in.pos, "index %d out of range [0,%d)", i, len(b.F32))
				}
				loads++
				loadB += 4
				recordG(e, &sites[in.site], b, i, 4)
				x, v := fr[in.b], float64(b.F32[i])
				switch in.norm {
				case 0:
					fr[in.dst] = float64(float32(x + v))
				case 1:
					fr[in.dst] = float64(float32(x - v))
				default:
					fr[in.dst] = float64(float32(x * v))
				}
			case opTapF32:
				aluI += int64(in.c)
				aluF += int64(in.k)
				b := bufs[in.slot]
				i := int64(int32(ir[in.a] + in.imm))
				if uint64(i) >= uint64(len(b.F32)) {
					rtErr(in.pos, "index %d out of range [0,%d)", i, len(b.F32))
				}
				loads++
				loadB += 4
				recordG(e, &sites[in.site], b, i, 4)
				p := float64(float32(fr[in.b] * float64(b.F32[i])))
				if in.norm == 0 {
					fr[in.dst] = float64(float32(fr[in.dst] + p))
				} else {
					fr[in.dst] = float64(float32(fr[in.dst] - p))
				}

			// --- __local arrays ---
			case opLdLI:
				arr := e.wg.locals[in.slot]
				i := ir[in.a]
				if uint64(i) >= uint64(len(arr)) {
					rtErr(in.pos, "local index %d out of range [0,%d)", i, len(arr))
				}
				ir[in.dst] = arr[i].I
			case opLdLF:
				arr := e.wg.locals[in.slot]
				i := ir[in.a]
				if uint64(i) >= uint64(len(arr)) {
					rtErr(in.pos, "local index %d out of range [0,%d)", i, len(arr))
				}
				fr[in.dst] = arr[i].F
			case opStLI:
				arr := e.wg.locals[in.slot]
				i := ir[in.a]
				if uint64(i) >= uint64(len(arr)) {
					rtErr(in.pos, "local index %d out of range [0,%d)", i, len(arr))
				}
				arr[i] = Value{I: ir[in.b]}
			case opStLF:
				arr := e.wg.locals[in.slot]
				i := ir[in.a]
				if uint64(i) >= uint64(len(arr)) {
					rtErr(in.pos, "local index %d out of range [0,%d)", i, len(arr))
				}
				arr[i] = Value{F: fr[in.b]}

			// --- private arrays ---
			case opLdPI:
				arr := e.priv[in.slot]
				i := ir[in.a]
				if uint64(i) >= uint64(len(arr)) {
					rtErr(in.pos, "private index %d out of range [0,%d)", i, len(arr))
				}
				ir[in.dst] = arr[i].I
			case opLdPF:
				arr := e.priv[in.slot]
				i := ir[in.a]
				if uint64(i) >= uint64(len(arr)) {
					rtErr(in.pos, "private index %d out of range [0,%d)", i, len(arr))
				}
				fr[in.dst] = arr[i].F
			case opStPI:
				arr := e.priv[in.slot]
				i := ir[in.a]
				if uint64(i) >= uint64(len(arr)) {
					rtErr(in.pos, "private index %d out of range [0,%d)", i, len(arr))
				}
				arr[i] = Value{I: ir[in.b]}
			case opStPF:
				arr := e.priv[in.slot]
				i := ir[in.a]
				if uint64(i) >= uint64(len(arr)) {
					rtErr(in.pos, "private index %d out of range [0,%d)", i, len(arr))
				}
				arr[i] = Value{F: fr[in.b]}

			// --- __local scalars ---
			case opLdLSI:
				ir[in.dst] = e.wg.locals[in.slot][0].I
			case opLdLSF:
				fr[in.dst] = e.wg.locals[in.slot][0].F
			case opStLSI:
				e.wg.locals[in.slot][0] = Value{I: ir[in.a]}
			case opStLSF:
				e.wg.locals[in.slot][0] = Value{F: fr[in.a]}

			// --- atomics ---
			case opAtomicL:
				aluI += int64(in.c)
				arr := e.wg.locals[in.slot]
				old := arr[0].I
				arr[0] = Value{I: atomicApply(atomicOp(in.norm), old, in, ir)}
				ir[in.dst] = old
			case opAtomicG:
				aluI += int64(in.c)
				ir[in.dst] = atomicLoad(bufs[in.slot], in.pos)
				atomicStore(bufs[in.slot], atomicApply(atomicOp(in.norm), ir[in.dst], in, ir))
			case opAtomicLd:
				aluI += int64(in.c)
				if in.norm&atomGlobal != 0 {
					ir[in.dst] = atomicLoad(bufs[in.slot], in.pos)
				} else {
					ir[in.dst] = e.wg.locals[in.slot][0].I
				}
			case opAtomicSt:
				nv := atomicApply(atomicOp(in.norm&^atomGlobal), ir[in.dst], in, ir)
				if in.norm&atomGlobal != 0 {
					atomicStore(bufs[in.slot], nv)
				} else {
					e.wg.locals[in.slot][0] = Value{I: nv}
				}

			default:
				rtErr(in.pos, "bytecode: invalid opcode %d", in.op)
			}
		}
		// The item is through the segment: step to the next one that has
		// not returned. The step stays outside the dispatch loop: inside
		// it, what the step rewrites (lin, the row slices) is live at the
		// loop head, and the compiler spills it on every dispatch.
		for {
			if lin++; lin == end {
				return
			}
			wi++
			e.lid[0]++
			e.gid[0]++
			if l0 := int64(rs.nd.Local[0]); e.lid[0] == l0 {
				e.lid[0], e.gid[0] = 0, e.gid[0]-l0
				e.lid[1]++
				e.gid[1]++
				if l1 := int64(rs.nd.Local[1]); e.lid[1] == l1 {
					e.lid[1], e.gid[1] = 0, e.gid[1]-l1
					e.lid[2]++
					e.gid[2]++
				}
			}
			if !rs.doneScratch[lin] {
				break
			}
		}
		e.wi, pc = wi, 0
		if len(prog.segments) > 1 {
			ir, fr = rs.irScratch[lin], rs.frScratch[lin]
		}
		if rs.privScratch != nil {
			e.priv = rs.privScratch[lin]
		}
		if seg == 0 {
			items++
			rs.startItem(ir, fr)
		}
	}
}

// atomicLoad reads element 0 of a global atomic's target b, trapping at
// pos when b is empty.
func atomicLoad(b *Buffer, pos clc.Pos) int64 {
	if b.Len() == 0 {
		rtErr(pos, "atomic on empty buffer")
	}
	if b.I32 != nil {
		return int64(b.I32[0])
	}
	return b.I64[0]
}

// atomicStore writes v to element 0 of a global atomic's target b.
func atomicStore(b *Buffer, v int64) {
	if b.I32 != nil {
		b.I32[0] = int32(v)
	} else {
		b.I64[0] = v
	}
}

// atomicApply computes the new value of an atomic read-modify-write,
// mirroring the closure engine's pre-resolved operation table.
func atomicApply(op atomicOp, old int64, in *instr, ir []int64) int64 {
	switch op {
	case atomInc:
		return old + 1
	case atomDec:
		return old - 1
	case atomAdd:
		return old + ir[in.a]
	case atomSub:
		return old - ir[in.a]
	case atomMin:
		if v := ir[in.a]; v < old {
			return v
		}
		return old
	case atomMax:
		if v := ir[in.a]; v > old {
			return v
		}
		return old
	default: // atomXchg
		return ir[in.a]
	}
}

// runGroupBC executes one work-group on the bytecode engine. It mirrors
// the closure engine's runGroup loop exactly: same segment/work-item
// iteration order, same panic containment, same statistics, and the same
// per-group sampling decision. Each segment is one execBC call, which runs
// the group's work-items itself.
func (rs *runState) runGroupBC(linear int) (err error) {
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
	coords := rs.nd.GroupCoords(linear)
	wgSize := rs.nd.GroupSize()

	for _, arr := range rs.wg.locals {
		clear(arr)
	}
	clear(rs.doneScratch[:wgSize])
	rs.env.classify = rs.profiled
	baseWI := int64(linear) * int64(wgSize)

	rs.stats.GroupsRun++
	if rs.parks {
		rs.runGroupParked(coords, baseWI, wgSize)
		return nil
	}
	for seg := range ex.prog.segments {
		lin := slices.Index(rs.doneScratch[:wgSize], false)
		if lin < 0 {
			break
		}
		rs.enterItem(lin, coords, baseWI)
		if seg == 0 {
			rs.stats.ItemsRun++
			rs.startItem(rs.irScratch[lin], rs.frScratch[lin])
		}
		rs.execBC(seg, 0, lin, wgSize)
	}
	return nil
}

// startItem readies the current work-item for its first segment: the
// parameters the kernel writes are copied into its registers again (the
// others stay as prepare loaded them) and its private arrays are cleared.
func (rs *runState) startItem(ir []int64, fr []float64) {
	loadParams(ir, fr, rs.ex.prog.paramI, rs.ex.prog.paramF, rs.ex.paramVals)
	for _, arr := range rs.env.priv {
		clear(arr)
	}
}

// loadParams copies the scalar arguments pi and pf name into a register row.
func loadParams(ir []int64, fr []float64, pi, pf []paramCopy, vals []Value) {
	for _, pc := range pi {
		ir[pc.reg] = vals[pc.slot].I
	}
	for _, pc := range pf {
		fr[pc.reg] = vals[pc.slot].F
	}
}
