package interp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"

	"dopia/internal/clc"
)

// AffineLoops is the number of fused loops the closed form has served on
// ex, summed over its sequential state and its shard workers. Both ways
// of running a fused loop are bit-identical in every result, so this is
// the only place a test can see which one ran.
func AffineLoops(ex *Exec) int64 {
	return sumStates(ex, func(rs *runState) int64 { return rs.affineLoops })
}

// UnfusedLoops is the number of fused loops whose guard held but which
// ran their unfused body on ex, summed like AffineLoops.
func UnfusedLoops(ex *Exec) int64 {
	return sumStates(ex, func(rs *runState) int64 { return rs.unfusedLoops })
}

// ParkedItems is the number of work-items that parked at a column walk
// (park.go) on ex, summed like AffineLoops. Parking changes no result
// either, so this is how a test sees it happen.
func ParkedItems(ex *Exec) int64 { return sumStates(ex, func(rs *runState) int64 { return rs.parked }) }

// sumStates sums a counter over ex's sequential state and shard workers.
func sumStates(ex *Exec, count func(*runState) int64) int64 {
	var n int64
	if ex.seq != nil {
		n += count(ex.seq)
	}
	for _, w := range ex.workers {
		n += count(w)
	}
	return n
}

// PoolQuiet waits up to timeout for every shard pool worker to count
// idle, starting the pool if no run has, and reports whether they do. A
// worker whose shard its caller took back stays counted busy until it has
// dequeued the stale hand-off, which on a loaded host can outlast the run
// that made it.
func PoolQuiet(timeout time.Duration) bool {
	startPool()
	for deadline := time.Now().Add(timeout); poolIdle.Load() != int32(poolWorkers); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// LayoutAndLower derives kernel k's layout and lowers k to bytecode
// afresh, past the kernel's memo: the interpreter's work for a kernel's
// first launch.
func LayoutAndLower(k *clc.Kernel) error {
	_, err := lowerKernel(k, newLayout(k))
	return err
}

// Parks reports whether an unprofiled run of ex's current launch parks
// its work-items at their column walks.
func Parks(ex *Exec) bool { return ex.parks() }

// FusedHeads counts the fused loop heads of ex's lowered program; it is 0
// when ex runs on the closure engine.
func FusedHeads(ex *Exec) int { return opCount(ex, opFMALoopF32) }

// OpHistogram counts the instructions of ex's lowered program by opcode
// value; it is all zero when ex runs on the closure engine.
func OpHistogram(ex *Exec) (h [256]int) {
	if ex.prog != nil {
		for _, code := range ex.prog.segments {
			for i := range code {
				h[code[i].op]++
			}
		}
	}
	return h
}

// straightOps names the opcodes straight.go adds: the shared-base float32
// load, the load-operand op, the stencil tap, the offset guard and the
// merged statistics pre-payment.
var straightOps = map[opcode]string{
	opLdGF32K: "LdGF32K", opLdOpF32: "LdOpF32", opTapF32: "TapF32", opJCmpIK: "JCmpIK", opStat: "Stat",
}

// StraightOpNames lists the names StraightInstrs reports, sorted.
func StraightOpNames() []string {
	var out []string
	for _, name := range straightOps {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// StraightInstr is one straight-line superinstruction of a lowered
// program: its opcode's name, and the access site it records (-1 for the
// guard and the pre-payment, which access nothing).
type StraightInstr struct {
	Op   string
	Site int
}

// StraightInstrs lists ex's straight-line superinstructions in program
// order. After a profiled run, a load's site count says whether it ran.
func StraightInstrs(ex *Exec) []StraightInstr {
	var out []StraightInstr
	if ex.prog != nil {
		for _, code := range ex.prog.segments {
			for i := range code {
				name, ok := straightOps[code[i].op]
				if !ok {
					continue
				}
				site := -1
				if code[i].op != opJCmpIK && code[i].op != opStat {
					site = int(code[i].site)
				}
				out = append(out, StraightInstr{Op: name, Site: site})
			}
		}
	}
	return out
}

// StraightLine reports the size of ex's lowered program: all of its
// instructions, and those that are straight-line superinstructions.
func StraightLine(ex *Exec) (instrs, fused int) {
	if ex.prog != nil {
		for _, code := range ex.prog.segments {
			instrs += len(code)
		}
	}
	return instrs, len(StraightInstrs(ex))
}

// opCount counts the instructions of ex's lowered program whose opcode is
// one of ops.
func opCount(ex *Exec, ops ...opcode) int {
	n := 0
	if ex.prog != nil {
		for _, code := range ex.prog.segments {
			for i := range code {
				for _, op := range ops {
					if code[i].op == op {
						n++
					}
				}
			}
		}
	}
	return n
}

// posReaders are the opcodes whose execution reads an instruction's pos:
// the integer division and its zero check, every bounds-checked global,
// __local and private array access, and the global atomics' empty-buffer
// check. LoweredDigest hashes pos on these only.
var posReaders = map[opcode]bool{
	opChkDiv0: true, opDivI: true, opDivU: true, opRemI: true, opRemU: true,
	opLdGF32: true, opLdGF64: true, opLdGI64: true, opLdGI32: true,
	opStGF32: true, opStGF64: true, opStGI64: true, opStGI32: true,
	opLdGF32K: true, opLdOpF32: true, opTapF32: true,
	opLdLI: true, opLdLF: true, opStLI: true, opStLF: true,
	opLdPI: true, opLdPF: true, opStPI: true, opStPF: true,
	opAtomicG: true, opAtomicLd: true,
}

// LoweredDigest is the SHA-256, in hex, of ex's lowered program: every
// field of every instruction of every segment, the register file sizes,
// the init rows, the parameter copies, the math table sizes, the fused
// loops' terms and whether the program parks. An instruction's pos is
// hashed only when its opcode is one of posReaders: on the ALU, move,
// conversion, compare, jump, statistics, work-item, inc/dec, __local
// scalar and min/max/abs/math opcodes, the fused heads and back edges,
// and opAtomicL and opAtomicSt, execution never reads it. It is "" when
// ex runs on the closure engine.
func LoweredDigest(ex *Exec) string {
	p := ex.prog
	if p == nil {
		return ""
	}
	h := sha256.New()
	for s, code := range p.segments {
		fmt.Fprintf(h, "segment %d %d\n", s, len(code))
		for i := range code {
			in := &code[i]
			fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %d %d %x", in.op, in.norm, in.dst, in.a, in.b, in.c,
				in.slot, in.site, in.k, in.imm, math.Float64bits(in.fimm))
			if posReaders[in.op] {
				fmt.Fprintf(h, " @%d:%d", in.pos.Line, in.pos.Col)
			}
			fmt.Fprintln(h)
		}
	}
	fmt.Fprintf(h, "regs %d %d\ninitI %v\ninitF", p.numI, p.numF, p.initI)
	for _, v := range p.initF {
		fmt.Fprintf(h, " %x", math.Float64bits(v))
	}
	fmt.Fprintf(h, "\nparams %v %v %v %v\nmath %d %d\nterms %+v\nparkable %t\n",
		p.paramI, p.paramF, p.fixedI, p.fixedF, len(p.math1), len(p.math2), p.terms, p.parkable)
	return hex.EncodeToString(h.Sum(nil))
}
