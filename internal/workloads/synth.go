package workloads

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"dopia/internal/clc"
	"dopia/internal/interp"
)

// SynthSpec is the parameterizable synthetic workload of Table 2: the sum
// of Alpha matrices of MatDims dimensions into C, with Gamma constant
// multiplications per term, and Transposed/Random/Constant access
// modifiers distributed over the source matrices.
type SynthSpec struct {
	Alpha      int      // α: number of source matrices (1..3)
	MatDims    int      // β: matrix dimensionality (3 or 4)
	Gamma      int      // γ: constant multiplications per term
	Transposed int      // δ: sources with transposed access
	Random     int      // ε: sources with randomized (indirect) access
	Constant   int      // θ: sources with constant access
	WorkDim    int      // work-item dimensionality (1 or 2)
	DType      clc.Kind // KindFloat or KindInt
	Size       int      // total elements per matrix
	WGSize     int      // work-items per work-group (64 or 256)
}

// Name renders the paper's workload naming scheme, e.g. "2mat3d2c1T1C",
// suffixed with dtype, work dimension, size and work-group size.
func (s SynthSpec) Name() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%dmat%dd", s.Alpha, s.MatDims)
	if s.Gamma > 0 {
		fmt.Fprintf(&b, "%dc", s.Gamma)
	}
	if s.Transposed > 0 {
		fmt.Fprintf(&b, "%dT", s.Transposed)
	}
	if s.Random > 0 {
		fmt.Fprintf(&b, "%dR", s.Random)
	}
	if s.Constant > 0 {
		fmt.Fprintf(&b, "%dC", s.Constant)
	}
	dt := "f32"
	if s.DType.IsInteger() {
		dt = "i32"
	}
	fmt.Fprintf(&b, ".%s.d%d.s%d.wg%d", dt, s.WorkDim, s.Size, s.WGSize)
	return b.String()
}

// Pattern returns just the access-pattern part of the name (the 17
// patterns of Table 4 ignore dtype/dim/size/wg).
func (s SynthSpec) Pattern() string {
	n := s.Name()
	return n[:strings.IndexByte(n, '.')]
}

// geometry returns the matrix extents. The inner extents multiply to 64
// for every dimensionality, so the number of work-items (NZ, or NZ*NY for
// 2-D launches) scales with Size and stays divisible by every work-group
// shape.
func (s SynthSpec) geometry() (nz, ny, nx, nw int) {
	if s.MatDims == 4 {
		ny, nx, nw = 8, 4, 2
	} else {
		ny, nx, nw = 16, 4, 1
	}
	nz = s.Size / (ny * nx * nw)
	return
}

// localShape returns the 2-D work-group shape (lz, ly) for a 2-D launch.
func (s SynthSpec) localShape(ny int) (lz, ly int) {
	ly = 16
	if s.WGSize == 64 {
		ly = 8
	}
	if ly > ny {
		ly = ny
	}
	return s.WGSize / ly, ly
}

func (s SynthSpec) validate() error {
	if s.Alpha < 1 || s.Alpha > 3 {
		return fmt.Errorf("synth: alpha must be 1..3, got %d", s.Alpha)
	}
	if s.MatDims != 3 && s.MatDims != 4 {
		return fmt.Errorf("synth: matrix dims must be 3 or 4, got %d", s.MatDims)
	}
	if s.WorkDim != 1 && s.WorkDim != 2 {
		return fmt.Errorf("synth: work dim must be 1 or 2, got %d", s.WorkDim)
	}
	if s.DType != clc.KindFloat && s.DType != clc.KindInt {
		return fmt.Errorf("synth: dtype must be float or int")
	}
	if s.WGSize != 64 && s.WGSize != 256 {
		return fmt.Errorf("synth: work-group size must be 64 or 256, got %d", s.WGSize)
	}
	nz, ny, nx, nw := s.geometry()
	if nz*ny*nx*nw != s.Size {
		return fmt.Errorf("synth: size %d not divisible by inner geometry", s.Size)
	}
	if s.WorkDim == 2 {
		lz, ly := s.localShape(ny)
		if ny%ly != 0 {
			return fmt.Errorf("synth: NY=%d not divisible by wg extent %d", ny, ly)
		}
		if nz%lz != 0 {
			return fmt.Errorf("synth: NZ=%d not divisible by wg extent %d", nz, lz)
		}
	} else if nz%s.WGSize != 0 {
		return fmt.Errorf("synth: NZ=%d not divisible by work-group size %d", nz, s.WGSize)
	}
	return nil
}

// modifier describes the access flavour of one source-matrix term.
type modifier struct {
	transposed bool
	random     bool
	constant   bool
}

// assignModifiers distributes δ T, ε R, θ C over the α sources
// round-robin, stacking when there are more modifiers than matrices
// (e.g. 1mat3d1C1R yields A[D[c3]]).
func (s SynthSpec) assignModifiers() []modifier {
	mods := make([]modifier, s.Alpha)
	i := 0
	place := func(set func(m *modifier)) {
		set(&mods[i%s.Alpha])
		i++
	}
	for k := 0; k < s.Transposed; k++ {
		place(func(m *modifier) { m.transposed = true })
	}
	for k := 0; k < s.Random; k++ {
		place(func(m *modifier) { m.random = true })
	}
	for k := 0; k < s.Constant; k++ {
		place(func(m *modifier) { m.constant = true })
	}
	return mods
}

// Generate produces the workload: OpenCL source plus the input recipe.
func (s SynthSpec) Generate() (*Workload, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	nz, ny, nx, nw := s.geometry()
	mods := s.assignModifiers()
	needsD := false
	for _, m := range mods {
		if m.random {
			needsD = true
		}
	}
	needsC3 := false
	for _, m := range mods {
		if m.constant {
			needsC3 = true
		}
	}

	tname := "float"
	if s.DType.IsInteger() {
		tname = "int"
	}
	srcNames := make([]string, s.Alpha)
	for i := range srcNames {
		srcNames[i] = string(rune('A' + i))
	}
	if s.Alpha == 3 {
		srcNames[2] = "C" // 3mat adds the destination to itself
	}

	var b strings.Builder
	b.WriteString("__kernel void synth(")
	var params []string
	for _, n := range srcNames {
		if n == "C" {
			continue
		}
		params = append(params, fmt.Sprintf("__global %s* %s", tname, n))
	}
	params = append(params, fmt.Sprintf("__global %s* C", tname))
	if needsD {
		params = append(params, "__global int* D")
	}
	for g := 0; g < s.Gamma; g++ {
		params = append(params, fmt.Sprintf("%s c%d", tname, g+1))
	}
	if needsC3 {
		params = append(params, "int cc")
	}
	params = append(params, "int NZ", "int NY", "int NX")
	if s.MatDims == 4 {
		params = append(params, "int NW")
	}
	b.WriteString(strings.Join(params, ", "))
	b.WriteString(")\n{\n")

	// Index space: z (and y for 2-D launches) from work-item ids; the
	// remaining matrix dimensions are loops.
	b.WriteString("    int z = get_global_id(0);\n")
	loopVars := []string{}
	if s.WorkDim == 2 {
		b.WriteString("    int y = get_global_id(1);\n")
	} else {
		loopVars = append(loopVars, "y")
	}
	loopVars = append(loopVars, "x")
	if s.MatDims == 4 {
		loopVars = append(loopVars, "w")
	}
	guard := "z < NZ"
	if s.WorkDim == 2 {
		guard += " && y < NY"
	}
	fmt.Fprintf(&b, "    if (%s) {\n", guard)
	indent := "        "
	bounds := map[string]string{"y": "NY", "x": "NX", "w": "NW"}
	for _, v := range loopVars {
		fmt.Fprintf(&b, "%sfor (int %s = 0; %s < %s; %s++) {\n", indent, v, v, bounds[v], v)
		indent += "    "
	}

	// Flat index expressions.
	var idx, idxT string
	if s.MatDims == 3 {
		idx = "z * (NY * NX) + y * NX + x"
		idxT = "y * (NZ * NX) + z * NX + x" // z and y swapped
	} else {
		idx = "z * (NY * NX * NW) + y * (NX * NW) + x * NW + w"
		idxT = "y * (NZ * NX * NW) + z * (NX * NW) + x * NW + w"
	}
	fmt.Fprintf(&b, "%sint idx = %s;\n", indent, idx)

	coef := ""
	for g := 0; g < s.Gamma; g++ {
		coef += fmt.Sprintf("c%d * ", g+1)
	}
	var terms []string
	for i, m := range mods {
		name := srcNames[i]
		var ref string
		switch {
		case m.constant && m.random:
			ref = fmt.Sprintf("%s[D[cc]]", name)
		case m.constant && m.transposed:
			// A strided, lane-invariant walk: constant in z, moving in x.
			ref = fmt.Sprintf("%s[x * (NZ * NY) + cc]", name)
		case m.constant:
			ref = fmt.Sprintf("%s[cc]", name)
		case m.random && m.transposed:
			ref = fmt.Sprintf("%s[D[%s]]", name, idxT)
		case m.random:
			ref = fmt.Sprintf("%s[D[idx]]", name)
		case m.transposed:
			ref = fmt.Sprintf("%s[%s]", name, idxT)
		default:
			ref = name + "[idx]"
		}
		terms = append(terms, coef+ref)
	}
	fmt.Fprintf(&b, "%sC[idx] = %s;\n", indent, strings.Join(terms, " + "))
	for range loopVars {
		indent = indent[:len(indent)-4]
		fmt.Fprintf(&b, "%s}\n", indent)
	}
	b.WriteString("    }\n}\n")

	src := b.String()
	spec := s
	w := &Workload{
		Name:    s.Name(),
		Source:  src,
		Kernel:  "synth",
		WorkDim: s.WorkDim,
		build:   func(d draw) (*Instance, error) { return spec.setup(d, nz, ny, nx, nw, needsD, needsC3) },
	}
	// Validate the generated source compiles.
	if _, err := w.CompileKernel(); err != nil {
		return nil, fmt.Errorf("synth: generated kernel invalid: %w\n%s", err, src)
	}
	return w, nil
}

func (s SynthSpec) setup(d draw, nz, ny, nx, nw int, needsD, needsC3 bool) (*Instance, error) {
	inst := &Instance{BufBytes: map[int]int64{}}
	mk := func(seed uint32) *interp.Buffer {
		if s.DType.IsInteger() {
			return memoInt(d, s.Size, seed, 1000)
		}
		return memoFloat(d, s.Size, seed)
	}
	arg := 0
	addBuf := func(buf *interp.Buffer, out bool) {
		inst.Args = append(inst.Args, interp.BufArg(buf))
		inst.BufBytes[arg] = buf.Bytes()
		if out {
			inst.OutputArgs = append(inst.OutputArgs, arg)
		}
		arg++
	}
	nSrcBufs := s.Alpha
	if s.Alpha == 3 {
		nSrcBufs = 2 // third source is C itself
	}
	for i := 0; i < nSrcBufs; i++ {
		addBuf(mk(uint32(11+i*7)), false)
	}
	addBuf(mk(97), true) // C
	if needsD {
		addBuf(memoInt(d, s.Size, 1234, int32(s.Size)), false)
	}
	for g := 0; g < s.Gamma; g++ {
		if s.DType.IsInteger() {
			inst.Args = append(inst.Args, interp.IntArg(int64(g+2)))
		} else {
			inst.Args = append(inst.Args, interp.FloatArg(1.0+0.125*float64(g+1)))
		}
		arg++
	}
	if needsC3 {
		cc := s.Size / 3
		for _, m := range s.assignModifiers() {
			if m.constant && m.transposed {
				// The stacked C+T term indexes x*(NZ*NY)+cc with x < NX:
				// keep it in range.
				if max := s.Size - (nx-1)*nz*ny - 1; cc > max {
					cc = max
				}
				if cc < 0 {
					cc = 0
				}
			}
		}
		inst.Args = append(inst.Args, interp.IntArg(int64(cc)))
		arg++
	}
	inst.Args = append(inst.Args,
		interp.IntArg(int64(nz)), interp.IntArg(int64(ny)), interp.IntArg(int64(nx)))
	if s.MatDims == 4 {
		inst.Args = append(inst.Args, interp.IntArg(int64(nw)))
	}

	if s.WorkDim == 1 {
		inst.ND = interp.ND1(nz, s.WGSize)
	} else {
		lz, ly := s.localShape(ny)
		inst.ND = interp.ND2(nz, ny, lz, ly)
	}
	return inst, nil
}

// TablePatterns returns the 17 access patterns of Table 4.
func TablePatterns() []SynthSpec {
	mk := func(alpha, dims, t, r, c int) SynthSpec {
		return SynthSpec{Alpha: alpha, MatDims: dims, Transposed: t, Random: r, Constant: c}
	}
	return []SynthSpec{
		mk(1, 3, 0, 0, 0), // 1mat3d
		mk(1, 3, 0, 1, 0), // 1mat3d1R
		mk(1, 3, 1, 0, 0), // 1mat3d1T
		mk(1, 3, 0, 0, 1), // 1mat3d1C
		mk(1, 3, 0, 1, 1), // 1mat3d1C1R
		mk(1, 3, 1, 0, 1), // 1mat3d1C1T
		mk(2, 3, 0, 0, 0), // 2mat3d
		mk(2, 3, 0, 1, 0), // 2mat3d1R
		mk(2, 3, 1, 0, 0), // 2mat3d1T
		mk(2, 3, 1, 1, 0), // 2mat3d1R1T
		mk(2, 3, 0, 0, 1), // 2mat3d1C
		mk(2, 3, 0, 1, 1), // 2mat3d1C1R
		mk(2, 3, 1, 0, 1), // 2mat3d1C1T
		mk(2, 3, 1, 1, 1), // 2mat3d1C1R1T
		mk(1, 4, 0, 0, 0), // 1mat4d
		mk(1, 4, 0, 1, 0), // 1mat4d1R
		mk(1, 4, 1, 0, 0), // 1mat4d1T
	}
}

// SyntheticGrid enumerates the full Table 4 training grid: 17 patterns ×
// 2 data types × 2 work dimensions × 3 computational intensities ×
// 3 matrix sizes × 2 work-group sizes = 1,224 workloads. The grid is
// generated (and every source compiled to validate it) once per process;
// each call returns a fresh slice over the same workloads, which no
// caller may modify.
func SyntheticGrid() ([]*Workload, error) {
	grid, err := syntheticGrid()
	return slices.Clone(grid), err
}

var syntheticGrid = sync.OnceValues(func() ([]*Workload, error) {
	var out []*Workload
	for _, pat := range TablePatterns() {
		for _, dtype := range []clc.Kind{clc.KindFloat, clc.KindInt} {
			for _, dim := range []int{1, 2} {
				for _, gamma := range []int{0, 2, 4} {
					for _, size := range []int{16384, 32768, 65536} {
						for _, wg := range []int{64, 256} {
							s := pat
							s.DType = dtype
							s.WorkDim = dim
							s.Gamma = gamma
							s.Size = size
							s.WGSize = wg
							w, err := s.Generate()
							if err != nil {
								return nil, err
							}
							out = append(out, w)
						}
					}
				}
			}
		}
	}
	return out, nil
})
