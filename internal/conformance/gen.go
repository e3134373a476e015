package conformance

// The seeded random-program generator. It emits structured program
// specs (progSpec) over the exact clc subset and renders them to
// OpenCL C source plus matching deterministic buffer initializations.
//
// Safety discipline for ClassTotal (trap-free, order-independent)
// kernels — the properties every lattice leg relies on:
//
//   - output buffers are written only at the work-item's own flattened
//     global id (out[gid]), so shards, co-exec spans, and serving
//     replay partition writes disjointly; reads of an output buffer
//     also touch only out[gid] (read-modify-write of the own element);
//   - input buffers are read-only and indexed through a power-of-two
//     mask (expr & (LEN-1)), which is in-bounds for any int value, or
//     read as affine neighbours inX[yinX*8 + xinX ± k] (|k| <= 2) of
//     coordinates the prologue clamps into bounds;
//   - integer divisors are forced positive ((x & 15) | 1) and shift
//     counts clamped (& 7), so no integer trap exists;
//   - atomics target element 0 of a dedicated int accumulator through
//     one commutative family per case ({add,sub,inc,dec}, {min}, or
//     {max}) with the return value discarded, so any execution order
//     yields the same final value;
//   - work-item functions are limited to get_global_id, get_local_id,
//     and get_local_size. The launch-level queries (get_group_id,
//     get_num_groups, get_global_size, get_global_offset) would be just
//     as invariant: every leg runs each work-group inside the case's one
//     launched ND range — shards and co-exec spans, CPU or GPU, are
//     segments of it, never relaunches of a piece — so they answer for
//     the whole launch (internal/sched's work-item query test pins
//     this). They stay unemitted so the generator's RNG stream, and with
//     it every recorded seed and crasher, is unchanged;
//   - barriers appear only at the top level of the kernel body
//     (sema's rule), paired with a __local array written at the own
//     local id before the barrier and read after it — safe under
//     chunking because work-groups never split;
//   - a column walk cw += inA[cwj*W + cwc] * inB[cwj] (the shape of
//     ATAX2, BICG1 and MVT2, whose work-items the bytecode engine parks
//     and walks in blocks) clamps its column into the matrix
//     (cwc = gid & (W-1)) and its rows to both buffers; its accumulator
//     starts from a literal or from a load — of the own output element,
//     or a masked input — and is folded into the outF store.
//
// ClassTrappy drops the masking and divisor guards probabilistically and
// leaves the neighbour coordinates and a column walk's column unclamped
// (yinX = gy, xinX = gx, cwc = gid) and its accumulator's input load
// unmasked; those cases run the engine differential at parallelism 1
// only, where partial trap state is deterministic.
//
// The neighbour reads, the stencil taps over them (acc ± k*inX[...]) and
// the literal-initialised float locals k0, k1 are the shapes the bytecode
// lowering turns into shared subscript bases, load-operand ops and
// constant registers.

import (
	"fmt"
	"strings"

	"dopia/internal/clc"
	"dopia/internal/interp"
)

// ---------------------------------------------------------------------------
// Deterministic RNG (SplitMix64 stream)

type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a uniform int in [lo, hi] inclusive.
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// pct fires with probability p percent.
func (r *rng) pct(p int) bool { return r.intn(100) < p }

func (r *rng) pick(ss []string) string { return ss[r.intn(len(ss))] }

// ---------------------------------------------------------------------------
// Structured program representation

type vKind int

const (
	vInt vKind = iota
	vFloat
)

// expr is a generated expression tree. Keeping the tree (rather than
// text) lets the shrinker replace arbitrary subtrees with literals.
type expr struct {
	kind vKind
	op   string // lit var bin un cond call idx cast
	lit  string // op == lit
	name string // var name / call name / buffer name (idx)
	bop  string // binary or unary operator token
	a, b *expr  // operands; cond: a=then, b=else
	cnd  *cnd   // op == cond
	args []*expr
	mask int // idx: power-of-two mask (len-1); 0 = unmasked (trappy)
	// guarded marks a div/rem whose divisor is wrapped in ((x&15)|1).
	guarded bool
}

// cnd is a boolean condition (used by if statements and ternaries).
type cnd struct {
	op    string // cmp and or not
	cmpOp string
	a, b  *expr // cmp operands
	l, r  *cnd  // and/or children; not uses l
}

type stmt struct {
	kind string // decl assign store for if atomic localwr barrier
	// decl: name, vk, rhs. assign: name, aop, rhs.
	// store: bufName, rmw ("", "+", "*"), rhs (value stored at [gid]).
	// for: loopVar, bound, body. if: cnd, then, els.
	// atomic: fn, bufName, rhs (nil for inc/dec). localwr: rhs.
	// colwalk: bufName (A), xBuf, their lengths aLen/xLen, clamp, and
	// rhs (the accumulator's initial value).
	name, bufName, aop, fn, loopVar, rmw string
	vk                                   vKind
	rhs                                  *expr
	bound                                *expr
	cnd                                  *cnd
	then, els, body                      []*stmt
	xBuf                                 string
	aLen, xLen                           int
	clamp                                bool
}

type bufSpec struct {
	name     string
	float    bool
	ln       int
	out      bool // written at [gid]
	acc      bool // atomic accumulator
	fillSeed uint64
}

type scalarSpec struct {
	name  string
	float bool
	ival  int64
	fval  float64
}

// progSpec is the structured form of one generated program.
type progSpec struct {
	seed      uint64
	class     Class
	dims      int
	global    [2]int
	local     [2]int
	bufs      []bufSpec
	scalars   []scalarSpec
	hasLocal  bool
	localLen  int
	atomicFam int // 0 none, 1 add-family, 2 min, 3 max
	// affine: some expression reads a float input as an affine
	// neighbour, so the prologue declares every float input's
	// coordinates yinX and xinX.
	affine bool
	body   []*stmt
}

// ---------------------------------------------------------------------------
// Generation

// Generate produces the conformance case for a seed: roughly 85%
// ClassTotal, 15% ClassTrappy. The rendered source always compiles; a
// compile failure is a generator bug and is returned as an error.
func Generate(seed uint64) (*Case, error) {
	r := newRNG(seed)
	class := ClassTotal
	if r.pct(15) {
		class = ClassTrappy
	}
	return GenerateClass(seed, class)
}

// GenerateClass generates a case of a forced class from a seed. The
// class consumes its own random stream, so the same seed yields
// structurally related but independently valid programs per class.
func GenerateClass(seed uint64, class Class) (*Case, error) {
	r := newRNG(splitmix64(seed ^ uint64(class)))
	p := genProg(r, seed, class)
	c := p.Case()
	if _, err := clc.Compile(c.Source); err != nil {
		return nil, fmt.Errorf("conformance: generated program does not compile (generator bug): %w\n%s", err, c.Source)
	}
	return c, nil
}

// genEnv tracks the names in scope during generation.
type genEnv struct {
	ints   []string // int variables (gid, lid, temps, loop vars, scalars)
	floats []string
	fIn    []string // read-only float input buffer names
	iIn    []string // read-only int input buffer names
	fMask  map[string]int
	iMask  map[string]int
	class  Class
	r      *rng
	lbuf   bool // __local array lbuf in scope (post-barrier reads)
	lMask  int
	affine bool // an affine neighbour read was generated
}

func genProg(r *rng, seed uint64, class Class) *progSpec {
	p := &progSpec{seed: seed, class: class, dims: 1}
	if r.pct(25) {
		p.dims = 2
	}
	if p.dims == 1 {
		p.local[0] = []int{4, 8, 16}[r.intn(3)]
		p.global[0] = p.local[0] * r.between(2, 6)
	} else {
		p.local = [2]int{4, []int{2, 4}[r.intn(2)]}
		p.global[0] = p.local[0] * r.between(2, 4)
		p.global[1] = p.local[1] * r.between(2, 4)
	}

	// Input buffers (read-only, power-of-two lengths).
	lens := []int{16, 32, 64, 128}
	nIn := r.between(1, 3)
	inNames := []string{"inA", "inB", "inC"}
	for i := 0; i < nIn; i++ {
		p.bufs = append(p.bufs, bufSpec{
			name:     inNames[i],
			float:    r.pct(55),
			ln:       lens[r.intn(len(lens))],
			fillSeed: r.next(),
		})
	}
	// Output buffers: a float output always, an int output sometimes.
	p.bufs = append(p.bufs, bufSpec{name: "outF", float: true, ln: p.totalItems(), out: true, fillSeed: r.next()})
	hasOutI := r.pct(40)
	if hasOutI {
		p.bufs = append(p.bufs, bufSpec{name: "outI", ln: p.totalItems(), out: true, fillSeed: r.next()})
	}
	// Atomic accumulator.
	if r.pct(30) {
		p.atomicFam = r.between(1, 3)
		p.bufs = append(p.bufs, bufSpec{name: "acc", ln: 8, out: true, acc: true})
	}
	// Scalars.
	if r.pct(60) {
		p.scalars = append(p.scalars, scalarSpec{name: "sI", ival: int64(r.between(2, 9))})
	}
	if r.pct(40) {
		p.scalars = append(p.scalars, scalarSpec{
			name: "sF", float: true,
			fval: []float64{0.5, 1.5, 2.0, 0.25, 3.0}[r.intn(5)],
		})
	}
	// Local-array + barrier pattern (1-D only; sema allows barriers only
	// at the top level of the kernel body).
	if p.dims == 1 && r.pct(25) {
		p.hasLocal = true
		p.localLen = p.local[0]
	}

	env := &genEnv{
		ints:  []string{"gid", "lid"},
		class: class, r: r,
		fMask: map[string]int{}, iMask: map[string]int{},
	}
	for _, b := range p.bufs {
		if b.out || b.acc {
			continue
		}
		if b.float {
			env.fIn = append(env.fIn, b.name)
			env.fMask[b.name] = b.ln - 1
		} else {
			env.iIn = append(env.iIn, b.name)
			env.iMask[b.name] = b.ln - 1
		}
	}
	for _, s := range p.scalars {
		if s.float {
			env.floats = append(env.floats, s.name)
		} else {
			env.ints = append(env.ints, s.name)
		}
	}

	// Temporaries.
	for i := 0; i < r.between(1, 2); i++ {
		name := fmt.Sprintf("t%d", i)
		p.body = append(p.body, &stmt{kind: "decl", name: name, vk: vInt, rhs: genExpr(env, vInt, 2)})
		env.ints = append(env.ints, name)
	}
	for i := 0; i < r.between(1, 2); i++ {
		name := fmt.Sprintf("f%d", i)
		p.body = append(p.body, &stmt{kind: "decl", name: name, vk: vFloat, rhs: genExpr(env, vFloat, 2)})
		env.floats = append(env.floats, name)
	}
	// Literal-initialised float locals, never assigned (genAssign writes
	// f* and t* only).
	for i, n := 0, r.intn(3); i < n; i++ {
		name := fmt.Sprintf("k%d", i)
		p.body = append(p.body, &stmt{kind: "decl", name: name, vk: vFloat,
			rhs: &expr{kind: vFloat, op: "lit", lit: r.pick(constLits)}})
		env.floats = append(env.floats, name)
	}

	// Middle statements: loops, branches, assignments, atomics.
	for i, n := 0, r.between(1, 3); i < n; i++ {
		p.body = append(p.body, genStmt(env, p, 0))
	}

	// A column walk in about a third of the cases, drawn from a stream of
	// its own so that the rest of a seed's program stays what it was.
	var walk *stmt
	if wr := newRNG(splitmix64(seed ^ 0xc01a)); len(env.fIn) > 0 && wr.pct(35) {
		walk = genColWalk(env, p, wr)
		p.body = append(p.body, walk)
	}

	// Local-array pattern: write own slot, barrier, then the final
	// stores may read a rotated neighbour slot.
	if p.hasLocal {
		p.body = append(p.body,
			&stmt{kind: "localwr", rhs: genExpr(env, vFloat, 2)},
			&stmt{kind: "barrier"},
		)
		env.lbuf = true
		env.lMask = p.localLen - 1
	}

	// Final stores: exactly one per output buffer, at [gid].
	st := genStore(env, "outF", vFloat)
	if walk != nil {
		st.rhs = &expr{kind: vFloat, op: "bin", bop: "+", a: &expr{kind: vFloat, op: "var", name: walk.name}, b: st.rhs}
	}
	p.body = append(p.body, st)
	if hasOutI {
		p.body = append(p.body, genStore(env, "outI", vInt))
	}
	p.affine = env.affine
	return p
}

// colWalkW is the widest matrix a column walk reads.
const colWalkW = 16

// genColWalk emits a column walk over two float inputs (see the safety
// discipline above).
func genColWalk(env *genEnv, p *progSpec, r *rng) *stmt {
	a, x := env.fIn[r.intn(len(env.fIn))], env.fIn[r.intn(len(env.fIn))]
	s := &stmt{kind: "colwalk", name: "cw", bufName: a, xBuf: x, clamp: p.class == ClassTotal,
		rhs: &expr{kind: vFloat, op: "lit", lit: r.pick(floatLits)}}
	for _, b := range p.bufs {
		if b.name == a {
			s.aLen = b.ln
		}
		if b.name == x {
			s.xLen = b.ln
		}
	}
	gid := &expr{kind: vInt, op: "var", name: "gid"}
	switch r.intn(3) {
	case 0: // the own output element, like MVT2's x2[i]
		s.rhs = &expr{kind: vFloat, op: "idx", name: "outF", args: []*expr{gid}}
	case 1:
		in := env.fIn[r.intn(len(env.fIn))]
		mask := env.fMask[in]
		if !s.clamp {
			mask = 0
		}
		s.rhs = &expr{kind: vFloat, op: "idx", name: in, mask: mask, args: []*expr{gid}}
	}
	return s
}

func genStore(env *genEnv, buf string, k vKind) *stmt {
	s := &stmt{kind: "store", bufName: buf, rhs: genExpr(env, k, 3)}
	if env.r.pct(30) {
		if k == vFloat {
			s.rmw = env.r.pick([]string{"+", "*"})
		} else {
			s.rmw = env.r.pick([]string{"+", "^"})
		}
	}
	if env.lbuf && buf == "outF" {
		// Fold the post-barrier neighbour read into the stored value.
		read := &expr{kind: vFloat, op: "idx", name: "lbuf",
			mask: env.lMask,
			args: []*expr{{kind: vInt, op: "bin", bop: "+",
				a: &expr{kind: vInt, op: "var", name: "lid"},
				b: intLitE(int64(1 + env.r.intn(3)))}}}
		s.rhs = &expr{kind: vFloat, op: "bin", bop: "+", a: read, b: s.rhs}
	}
	return s
}

// genStmt emits one non-store statement. depth bounds nesting.
func genStmt(env *genEnv, p *progSpec, depth int) *stmt {
	r := env.r
	roll := r.intn(100)
	switch {
	case p.atomicFam != 0 && roll < 18:
		return genAtomic(env, p)
	case roll < 50 && depth < 2:
		return genFor(env, p, depth)
	case roll < 75 && depth < 2:
		return genIf(env, p, depth)
	default:
		return genAssign(env)
	}
}

func genAssign(env *genEnv) *stmt {
	r := env.r
	// Assign to a mutable temp (t*/f* only; never gid/lid/scalars).
	var temps []string
	var k vKind
	if r.pct(50) {
		for _, n := range env.ints {
			// Only t* temps: writing loop variables (i*) could make a
			// generated loop non-terminating, and Total-class kernels run
			// legs with no watchdog Check hook.
			if strings.HasPrefix(n, "t") {
				temps = append(temps, n)
			}
		}
		k = vInt
	}
	if len(temps) == 0 {
		for _, n := range env.floats {
			if strings.HasPrefix(n, "f") {
				temps = append(temps, n)
			}
		}
		k = vFloat
	}
	if len(temps) == 0 {
		// No mutable variable of either kind: fall back to an int temp
		// that always exists (t0 is declared first when present) — or a
		// plain declaration-free no-op assignment is impossible, so
		// synthesize a fresh condition-free if. This path is unreachable
		// with the current generator (t0/f0 always exist) but kept total.
		return &stmt{kind: "assign", name: "t0", aop: "=", rhs: intLitE(1)}
	}
	name := temps[r.intn(len(temps))]
	var aop string
	if k == vInt {
		aop = r.pick([]string{"=", "+=", "-=", "^=", "*="})
	} else {
		aop = r.pick([]string{"=", "+=", "*="})
	}
	return &stmt{kind: "assign", name: name, aop: aop, rhs: genExpr(env, k, 2)}
}

func genFor(env *genEnv, p *progSpec, depth int) *stmt {
	r := env.r
	lv := fmt.Sprintf("i%d", depth)
	var bound *expr
	switch r.intn(4) {
	case 0: // literal bound
		bound = intLitE(int64(r.between(2, 6)))
	case 1: // affine in gid
		bound = &expr{kind: vInt, op: "bin", bop: "+",
			a: &expr{kind: vInt, op: "bin", bop: "&",
				a: &expr{kind: vInt, op: "var", name: "gid"}, b: intLitE(7)},
			b: intLitE(2)}
	case 2: // scalar bound when present
		if hasName(env.ints, "sI") {
			bound = &expr{kind: vInt, op: "var", name: "sI"}
		} else {
			bound = intLitE(int64(r.between(2, 5)))
		}
	default: // data-dependent bound from an int input buffer
		if len(env.iIn) > 0 {
			buf := env.iIn[r.intn(len(env.iIn))]
			read := &expr{kind: vInt, op: "idx", name: buf, mask: env.iMask[buf],
				args: []*expr{genExpr(env, vInt, 1)}}
			bound = &expr{kind: vInt, op: "bin", bop: "+",
				a: &expr{kind: vInt, op: "bin", bop: "&", a: read, b: intLitE(7)},
				b: intLitE(1)}
		} else {
			bound = intLitE(int64(r.between(2, 5)))
		}
	}
	env.ints = append(env.ints, lv)
	var body []*stmt
	for i, n := 0, r.between(1, 2); i < n; i++ {
		body = append(body, genStmt(env, p, depth+1))
	}
	env.ints = env.ints[:len(env.ints)-1]
	return &stmt{kind: "for", loopVar: lv, bound: bound, body: body}
}

func genIf(env *genEnv, p *progSpec, depth int) *stmt {
	r := env.r
	s := &stmt{kind: "if", cnd: genCond(env, 1)}
	for i, n := 0, r.between(1, 2); i < n; i++ {
		s.then = append(s.then, genStmt(env, p, depth+1))
	}
	if r.pct(50) {
		s.els = append(s.els, genStmt(env, p, depth+1))
	}
	return s
}

func genAtomic(env *genEnv, p *progSpec) *stmt {
	r := env.r
	var fn string
	switch p.atomicFam {
	case 1:
		fn = r.pick([]string{"atomic_add", "atomic_sub", "atomic_inc", "atomic_dec"})
	case 2:
		fn = "atomic_min"
	default:
		fn = "atomic_max"
	}
	s := &stmt{kind: "atomic", fn: fn, bufName: "acc"}
	if fn != "atomic_inc" && fn != "atomic_dec" {
		s.rhs = genExpr(env, vInt, 2)
	}
	return s
}

func genCond(env *genEnv, depth int) *cnd {
	r := env.r
	if depth > 0 && r.pct(25) {
		op := r.pick([]string{"and", "or", "not"})
		c := &cnd{op: op, l: genCond(env, depth-1)}
		if op != "not" {
			c.r = genCond(env, depth-1)
		}
		return c
	}
	k := vInt
	if r.pct(30) {
		k = vFloat
	}
	return &cnd{op: "cmp",
		cmpOp: r.pick([]string{"<", "<=", ">", ">=", "==", "!="}),
		a:     genExpr(env, k, 1), b: genExpr(env, k, 1)}
}

func intLitE(v int64) *expr { return &expr{kind: vInt, op: "lit", lit: fmt.Sprintf("%d", v)} }

var floatLits = []string{"0.5f", "1.5f", "2.0f", "0.25f", "3.0f", "0.125f", "1.0f"}

// constLits initialise the k* float locals: literals with and without the
// f suffix, negated, and a subnormal.
var constLits = []string{"0.75f", "-0.5f", "0.2", "-(1.5f)", "1e-40f", "-3.0"}

// affineW is the row width of a neighbour read, and affineK bounds its
// offset.
const affineW, affineK = 8, 2

func genLeaf(env *genEnv, k vKind) *expr {
	r := env.r
	if k == vInt {
		switch r.intn(3) {
		case 0:
			return intLitE(int64(r.between(0, 9)))
		case 1:
			if len(env.iIn) > 0 && r.pct(50) {
				return genBufRead(env, vInt)
			}
			return &expr{kind: vInt, op: "var", name: env.ints[r.intn(len(env.ints))]}
		default:
			return &expr{kind: vInt, op: "var", name: env.ints[r.intn(len(env.ints))]}
		}
	}
	switch r.intn(3) {
	case 0:
		return &expr{kind: vFloat, op: "lit", lit: r.pick(floatLits)}
	case 1:
		if len(env.fIn) > 0 {
			return genBufRead(env, vFloat)
		}
		fallthrough
	default:
		if len(env.floats) > 0 {
			return &expr{kind: vFloat, op: "var", name: env.floats[r.intn(len(env.floats))]}
		}
		return &expr{kind: vFloat, op: "lit", lit: r.pick(floatLits)}
	}
}

// genBufRead emits an input-buffer read. ClassTotal always masks the
// index into bounds; ClassTrappy drops the mask a quarter of the time. A
// float read is an affine neighbour read a third of the time.
func genBufRead(env *genEnv, k vKind) *expr {
	r := env.r
	var buf string
	var mask int
	if k == vFloat && r.pct(33) {
		return genNeighbourRead(env)
	}
	if k == vFloat {
		buf = env.fIn[r.intn(len(env.fIn))]
		mask = env.fMask[buf]
	} else {
		buf = env.iIn[r.intn(len(env.iIn))]
		mask = env.iMask[buf]
	}
	if env.class == ClassTrappy && r.pct(25) {
		mask = 0 // unmasked: may trap out of bounds
	}
	return &expr{kind: k, op: "idx", name: buf, mask: mask,
		args: []*expr{genExpr(env, vInt, 1)}}
}

// genNeighbourRead emits inX[yinX*8 + xinX ± k] for a float input inX:
// every read of one buffer shares the subscript base yinX*8 + xinX, which
// the prologue declares (renderCoords).
func genNeighbourRead(env *genEnv) *expr {
	r := env.r
	buf := env.fIn[r.intn(len(env.fIn))]
	env.affine = true
	v := func(name string) *expr { return &expr{kind: vInt, op: "var", name: name} }
	idx := &expr{kind: vInt, op: "bin", bop: "+",
		a: &expr{kind: vInt, op: "bin", bop: "*", a: v("y" + buf), b: intLitE(affineW)},
		b: v("x" + buf)}
	if k := r.between(-affineK, affineK); k != 0 {
		op := "+"
		if k < 0 {
			op, k = "-", -k
		}
		idx = &expr{kind: vInt, op: "bin", bop: op, a: idx, b: intLitE(int64(k))}
	}
	return &expr{kind: vFloat, op: "idx", name: buf, args: []*expr{idx}}
}

func hasName(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

func genExpr(env *genEnv, k vKind, depth int) *expr {
	r := env.r
	if depth <= 0 {
		return genLeaf(env, k)
	}
	roll := r.intn(100)
	switch {
	case roll < 40: // binary
		var bop string
		guarded := true
		if k == vInt {
			bop = r.pick([]string{"+", "-", "*", "&", "|", "^", "/", "%", "<<", ">>"})
			if (bop == "/" || bop == "%") && env.class == ClassTrappy && r.pct(40) {
				guarded = false
			}
		} else {
			bop = r.pick([]string{"+", "-", "*", "/"})
			if (bop == "+" || bop == "-") && len(env.fIn) > 0 && r.pct(35) {
				// A stencil tap: acc ± coef * neighbour.
				coef := &expr{kind: vFloat, op: "lit", lit: r.pick(floatLits)}
				if len(env.floats) > 0 && r.pct(50) {
					coef = &expr{kind: vFloat, op: "var", name: env.floats[r.intn(len(env.floats))]}
				}
				return &expr{kind: k, op: "bin", bop: bop, a: genExpr(env, k, depth-1),
					b: &expr{kind: vFloat, op: "bin", bop: "*", a: coef, b: genNeighbourRead(env)}}
			}
		}
		return &expr{kind: k, op: "bin", bop: bop, guarded: guarded,
			a: genExpr(env, k, depth-1), b: genExpr(env, k, depth-1)}
	case roll < 55: // call
		if k == vInt {
			name := r.pick([]string{"min", "max", "abs"})
			e := &expr{kind: vInt, op: "call", name: name}
			e.args = append(e.args, genExpr(env, vInt, depth-1))
			if name != "abs" {
				e.args = append(e.args, genExpr(env, vInt, depth-1))
			}
			return e
		}
		name := r.pick([]string{"fabs", "sqrt", "sin", "cos", "floor", "fmin", "fmax"})
		e := &expr{kind: vFloat, op: "call", name: name}
		e.args = append(e.args, genExpr(env, vFloat, depth-1))
		if name == "fmin" || name == "fmax" {
			e.args = append(e.args, genExpr(env, vFloat, depth-1))
		}
		return e
	case roll < 67: // ternary
		return &expr{kind: k, op: "cond", cnd: genCond(env, 1),
			a: genExpr(env, k, depth-1), b: genExpr(env, k, depth-1)}
	case roll < 80: // cast (int/float mix)
		if k == vInt {
			return &expr{kind: vInt, op: "cast", name: "int", a: genExpr(env, vFloat, depth-1)}
		}
		return &expr{kind: vFloat, op: "cast", name: "float", a: genExpr(env, vInt, depth-1)}
	case roll < 88: // unary
		if k == vInt {
			return &expr{kind: vInt, op: "un", bop: r.pick([]string{"-", "~"}), a: genExpr(env, k, depth-1)}
		}
		return &expr{kind: vFloat, op: "un", bop: "-", a: genExpr(env, k, depth-1)}
	default:
		return genLeaf(env, k)
	}
}

// ---------------------------------------------------------------------------
// Geometry and rendering

func (p *progSpec) totalItems() int {
	n := p.global[0]
	if p.dims == 2 {
		n *= p.global[1]
	}
	return n
}

func (p *progSpec) nd() interp.NDRange {
	if p.dims == 2 {
		return interp.ND2(p.global[0], p.global[1], p.local[0], p.local[1])
	}
	return interp.ND1(p.global[0], p.local[0])
}

func (e *expr) render(sb *strings.Builder) {
	switch e.op {
	case "lit":
		sb.WriteString(e.lit)
	case "var":
		sb.WriteString(e.name)
	case "bin":
		sb.WriteString("(")
		e.a.render(sb)
		sb.WriteString(" " + e.bop + " ")
		switch {
		case (e.bop == "/" || e.bop == "%") && e.kind == vInt && e.guarded:
			sb.WriteString("((")
			e.b.render(sb)
			sb.WriteString(" & 15) | 1)")
		case e.bop == "<<" || e.bop == ">>":
			sb.WriteString("(")
			e.b.render(sb)
			sb.WriteString(" & 7)")
		default:
			e.b.render(sb)
		}
		sb.WriteString(")")
	case "un":
		sb.WriteString("(" + e.bop)
		e.a.render(sb)
		sb.WriteString(")")
	case "cond":
		sb.WriteString("(")
		e.cnd.render(sb)
		sb.WriteString(" ? ")
		e.a.render(sb)
		sb.WriteString(" : ")
		e.b.render(sb)
		sb.WriteString(")")
	case "call":
		sb.WriteString(e.name + "(")
		for i, a := range e.args {
			if i > 0 {
				sb.WriteString(", ")
			}
			a.render(sb)
		}
		sb.WriteString(")")
	case "idx":
		sb.WriteString(e.name + "[")
		if e.mask > 0 {
			sb.WriteString("(")
			e.args[0].render(sb)
			fmt.Fprintf(sb, ") & %d", e.mask)
		} else {
			e.args[0].render(sb)
		}
		sb.WriteString("]")
	case "cast":
		sb.WriteString("(" + e.name + ")(")
		e.a.render(sb)
		sb.WriteString(")")
	}
}

func (c *cnd) render(sb *strings.Builder) {
	switch c.op {
	case "cmp":
		sb.WriteString("(")
		c.a.render(sb)
		sb.WriteString(" " + c.cmpOp + " ")
		c.b.render(sb)
		sb.WriteString(")")
	case "and", "or":
		op := " && "
		if c.op == "or" {
			op = " || "
		}
		sb.WriteString("(")
		c.l.render(sb)
		sb.WriteString(op)
		c.r.render(sb)
		sb.WriteString(")")
	case "not":
		sb.WriteString("(!")
		c.l.render(sb)
		sb.WriteString(")")
	}
}

func renderStmts(sb *strings.Builder, stmts []*stmt, indent string) {
	for _, s := range stmts {
		s.render(sb, indent)
	}
}

func (s *stmt) render(sb *strings.Builder, indent string) {
	sb.WriteString(indent)
	switch s.kind {
	case "decl":
		if s.vk == vInt {
			sb.WriteString("int ")
		} else {
			sb.WriteString("float ")
		}
		sb.WriteString(s.name + " = ")
		s.rhs.render(sb)
		sb.WriteString(";\n")
	case "assign":
		sb.WriteString(s.name + " " + s.aop + " ")
		s.rhs.render(sb)
		sb.WriteString(";\n")
	case "store":
		sb.WriteString(s.bufName + "[gid] = ")
		if s.rmw != "" {
			sb.WriteString("(" + s.bufName + "[gid] " + s.rmw + " ")
			s.rhs.render(sb)
			sb.WriteString(")")
		} else {
			s.rhs.render(sb)
		}
		sb.WriteString(";\n")
	case "for":
		sb.WriteString("for (int " + s.loopVar + " = 0; " + s.loopVar + " < ")
		s.bound.render(sb)
		sb.WriteString("; " + s.loopVar + "++) {\n")
		renderStmts(sb, s.body, indent+"    ")
		sb.WriteString(indent + "}\n")
	case "if":
		sb.WriteString("if ")
		s.cnd.render(sb)
		sb.WriteString(" {\n")
		renderStmts(sb, s.then, indent+"    ")
		if len(s.els) > 0 {
			sb.WriteString(indent + "} else {\n")
			renderStmts(sb, s.els, indent+"    ")
		}
		sb.WriteString(indent + "}\n")
	case "atomic":
		sb.WriteString(s.fn + "(" + s.bufName)
		if s.rhs != nil {
			sb.WriteString(", ")
			s.rhs.render(sb)
		}
		sb.WriteString(");\n")
	case "localwr":
		sb.WriteString("lbuf[lid] = ")
		s.rhs.render(sb)
		sb.WriteString(";\n")
	case "barrier":
		sb.WriteString("barrier(CLK_LOCAL_MEM_FENCE);\n")
	case "colwalk":
		w := min(colWalkW, s.aLen)
		col := "gid"
		if s.clamp {
			col = fmt.Sprintf("(gid & %d)", w-1)
		}
		sb.WriteString("float " + s.name + " = ")
		s.rhs.render(sb)
		fmt.Fprintf(sb, ";\n%sint cwn = %d;\n%sint cww = %d;\n%sint cwc = %s;\n",
			indent, min(s.aLen/w, s.xLen), indent, w, indent, col)
		fmt.Fprintf(sb, "%sfor (int cwj = 0; cwj < cwn; cwj++) {\n%s    %s += %s[cwj * cww + cwc] * %s[cwj];\n%s}\n",
			indent, indent, s.name, s.bufName, s.xBuf, indent)
	}
}

// Render produces the OpenCL C source of the spec.
func (p *progSpec) Render() string {
	var sb strings.Builder
	sb.WriteString("__kernel void k(")
	first := true
	comma := func() {
		if !first {
			sb.WriteString(", ")
		}
		first = false
	}
	for _, b := range p.bufs {
		comma()
		if b.float {
			sb.WriteString("__global float* " + b.name)
		} else {
			sb.WriteString("__global int* " + b.name)
		}
	}
	for _, s := range p.scalars {
		comma()
		if s.float {
			sb.WriteString("float " + s.name)
		} else {
			sb.WriteString("int " + s.name)
		}
	}
	sb.WriteString(") {\n")
	if p.dims == 1 {
		sb.WriteString("    int gid = get_global_id(0);\n")
		sb.WriteString("    int lid = get_local_id(0);\n")
	} else {
		sb.WriteString("    int gx = get_global_id(0);\n")
		sb.WriteString("    int gy = get_global_id(1);\n")
		fmt.Fprintf(&sb, "    int gid = (gy * %d) + gx;\n", p.global[0])
		fmt.Fprintf(&sb, "    int lid = (get_local_id(1) * %d) + get_local_id(0);\n", p.local[0])
	}
	if p.hasLocal {
		fmt.Fprintf(&sb, "    __local float lbuf[%d];\n", p.localLen)
	}
	if p.affine {
		for _, b := range p.bufs {
			if b.float && !b.out && !b.acc {
				p.renderCoords(&sb, b)
			}
		}
	}
	renderStmts(&sb, p.body, "    ")
	sb.WriteString("}\n")
	return sb.String()
}

// renderCoords declares the coordinates of b's neighbour reads: yinX*8 +
// xinX ± k stays inside b in ClassTotal (row and column clamped so the
// whole ±affineK window fits), and follows the work-item unclamped in
// ClassTrappy.
func (p *progSpec) renderCoords(sb *strings.Builder, b bufSpec) {
	y, x := "0", "gid"
	if p.dims == 2 {
		y, x = "gy", "gx"
	}
	if p.class == ClassTotal {
		if p.dims == 2 {
			y = fmt.Sprintf("min(gy, %d)", b.ln/affineW-1)
			x = fmt.Sprintf("max(%d, min(gx, %d))", affineK, affineW-1-affineK)
		} else {
			x = fmt.Sprintf("max(%d, min(gid, %d))", affineK, b.ln-1-affineK)
		}
	}
	fmt.Fprintf(sb, "    int y%s = %s;\n    int x%s = %s;\n", b.name, y, b.name, x)
}

// fillF32 deterministically fills float contents: small quarter-step
// values in [-4, 4), matching the workload fill spirit but private to
// the conformance corpus.
func fillF32(n int, seed uint64) []float32 {
	r := newRNG(seed)
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(int(r.next()%33)-16) * 0.25
	}
	return out
}

func fillI32(n int, seed uint64) []int32 {
	r := newRNG(seed)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(r.next()%17) - 8
	}
	return out
}

// Case renders the spec into a runnable conformance case.
func (p *progSpec) Case() *Case {
	c := &Case{
		Seed:   p.seed,
		Class:  p.class,
		Source: p.Render(),
		Kernel: "k",
		ND:     p.nd(),
		spec:   p,
	}
	for _, b := range p.bufs {
		a := ArgSpec{Name: b.name, Out: b.out || b.acc}
		if b.float {
			a.Kind = "fbuf"
			a.F32 = fillF32(b.ln, b.fillSeed)
		} else {
			a.Kind = "ibuf"
			a.I32 = fillI32(b.ln, b.fillSeed)
			if b.acc {
				// Accumulators start zeroed: the commutative-family final
				// value is then independent of execution order.
				for i := range a.I32 {
					a.I32[i] = 0
				}
			}
		}
		c.Args = append(c.Args, a)
	}
	for _, s := range p.scalars {
		if s.float {
			c.Args = append(c.Args, ArgSpec{Name: s.name, Kind: "float", FVal: s.fval})
		} else {
			c.Args = append(c.Args, ArgSpec{Name: s.name, Kind: "int", IVal: s.ival})
		}
	}
	return c
}

// FeatureSig summarizes which grammar features a spec exercises — used
// by the fuzzer's corpus persistence to keep one exemplar per feature
// combination.
func (p *progSpec) FeatureSig() string {
	var parts []string
	if p.dims == 2 {
		parts = append(parts, "2d")
	}
	if p.hasLocal {
		parts = append(parts, "local")
	}
	switch p.atomicFam {
	case 1:
		parts = append(parts, "atomic-add")
	case 2:
		parts = append(parts, "atomic-min")
	case 3:
		parts = append(parts, "atomic-max")
	}
	var hasFor, hasIf, dataDep bool
	var walk func(ss []*stmt)
	walk = func(ss []*stmt) {
		for _, s := range ss {
			switch s.kind {
			case "for":
				hasFor = true
				if s.bound.op != "lit" && s.bound.op != "var" {
					dataDep = true
				}
				walk(s.body)
			case "if":
				hasIf = true
				walk(s.then)
				walk(s.els)
			}
		}
	}
	walk(p.body)
	if hasFor {
		parts = append(parts, "loop")
	}
	if dataDep {
		parts = append(parts, "datadep")
	}
	if hasIf {
		parts = append(parts, "branch")
	}
	if p.affine {
		parts = append(parts, "affine")
	}
	if countStmts(p, func(s *stmt) bool { return s.kind == "colwalk" }) > 0 {
		parts = append(parts, "colwalk")
	}
	if p.class == ClassTrappy {
		parts = append(parts, "trappy")
	}
	if len(parts) == 0 {
		parts = append(parts, "plain")
	}
	return strings.Join(parts, "+")
}
