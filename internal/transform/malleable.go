package transform

import (
	"fmt"
	"strings"

	"dopia/internal/clc"
	"dopia/internal/faults"
)

// Names introduced by the transformation. The __dopia_ prefix keeps them
// out of the way of user identifiers.
const (
	ParamMod     = "dop_gpu_mod"
	ParamAlloc   = "dop_gpu_alloc"
	worklistName = "__dopia_worklist"
	workName     = "__dopia_work"
	gidPrefix    = "__dopia_gid"
	lidPrefix    = "__dopia_lid"
)

// GPUResult is the product of the malleable GPU transformation.
type GPUResult struct {
	// Kernel is the type-checked malleable kernel (same name as the
	// original). Its parameter list is the original one plus
	// dop_gpu_mod and dop_gpu_alloc.
	Kernel *clc.Kernel
	// Source is the OpenCL C source of the malleable kernel.
	Source string
	// WorkDim is the dimensionality the transformation was specialised
	// for (the index-space linearization depends on it).
	WorkDim int
}

// Check is the transform's verdict on kernel k at a launch's work
// dimensionality: nil exactly when MalleableGPU(k, workDim) succeeds,
// otherwise the error MalleableGPU returns. It generates nothing. A
// launch needs only the verdict: GPU spans run the original kernel, and
// the simulator charges the malleable form's overhead as timing
// (sched.Executor.AssumeMalleable).
func Check(k *clc.Kernel, workDim int) (err error) {
	defer faults.Recover(faults.StageTransform, &err)
	if err := faults.Hit("transform.gpu"); err != nil {
		return faults.Wrap(faults.StageTransform, err)
	}
	if workDim < 1 || workDim > 2 {
		return unsupported(fmt.Errorf("transform: unsupported work dimension %d (want 1 or 2)", workDim))
	}
	return unsupported(checkTransformable(k))
}

// unsupported classifies a rejection of the kernel (nil stays nil).
func unsupported(err error) error {
	if err == nil {
		return nil
	}
	return faults.Wrap(faults.StageTransform, fmt.Errorf("%w: %w", faults.ErrUnsupportedKernel, err))
}

// MalleableGPU rewrites kernel k into its malleable GPU form for a given
// work dimensionality (1 or 2; 3-D kernels are not used by any workload in
// the paper's evaluation). It rejects exactly the kernels Check rejects.
//
// The generated kernel executes each work-group with only the processing
// elements whose lane index l satisfies l % dop_gpu_mod < dop_gpu_alloc;
// the active lanes then process the *entire* work-group by pulling
// work-item indices from a CU-local atomic worklist, exactly as in
// Figures 5 and 6 of the paper.
func MalleableGPU(k *clc.Kernel, workDim int) (res *GPUResult, err error) {
	defer faults.Recover(faults.StageTransform, &err)
	if err := Check(k, workDim); err != nil {
		return nil, err
	}
	// A pure function of the (immutable, checked) kernel AST and the work
	// dimensionality: derived once per kernel. The result and the ASTs it
	// references are immutable and shared.
	return clc.Memo(k, malleableKey{workDim}, func() (*GPUResult, error) { return malleableGPU(k, workDim) })
}

// malleableKey is the memo key of one work-dim's transformation.
type malleableKey struct{ workDim int }

// malleableGPU is the transformation of a kernel Check accepted.
func malleableGPU(k *clc.Kernel, workDim int) (*GPUResult, error) {
	// Build the substitution for work-item queries. Within the dynamic
	// worklist loop, the work-item identity is derived from __dopia_work:
	//   lid0 = work % lsize0, lid1 = work / lsize0 (lanes fastest),
	//   gidD  = group(D)*lsize(D) + offset(D) + lidD.
	sub := func(c *clc.Call) clc.Expr {
		dim := int64(0)
		if len(c.Args) == 1 {
			lit, ok := c.Args[0].(*clc.IntLit)
			if !ok {
				return nil // non-constant dim: leave as-is (sizes are fine)
			}
			dim = lit.Value
		}
		switch c.Name {
		case "get_global_id":
			if dim < int64(workDim) {
				return ident(fmt.Sprintf("%s%d", gidPrefix, dim))
			}
			return nil
		case "get_local_id":
			if dim < int64(workDim) {
				return ident(fmt.Sprintf("%s%d", lidPrefix, dim))
			}
			return nil
		}
		return nil
	}

	// Clone the original body with substituted index queries.
	inner := &clc.Block{}
	// Recompute lane indices from the dynamically fetched work id.
	if workDim == 1 {
		inner.Stmts = append(inner.Stmts,
			declInt(lidPrefix+"0", ident(workName)),
		)
	} else {
		inner.Stmts = append(inner.Stmts,
			declInt(lidPrefix+"0", bin(clc.BinRem, ident(workName), call("get_local_size", intLit(0)))),
			declInt(lidPrefix+"1", bin(clc.BinDiv, ident(workName), call("get_local_size", intLit(0)))),
		)
	}
	for d := 0; d < workDim; d++ {
		inner.Stmts = append(inner.Stmts,
			declInt(fmt.Sprintf("%s%d", gidPrefix, d),
				bin(clc.BinAdd,
					bin(clc.BinAdd,
						bin(clc.BinMul, call("get_group_id", intLit(int64(d))), call("get_local_size", intLit(int64(d)))),
						call("get_global_offset", intLit(int64(d)))),
					ident(fmt.Sprintf("%s%d", lidPrefix, d)))),
		)
	}
	for _, s := range k.Body.Stmts {
		inner.Stmts = append(inner.Stmts, cloneStmt(s, sub))
	}

	// for (int work = atomic_inc(wl); work < wgSize; work = atomic_inc(wl))
	wgSize := clc.Expr(call("get_local_size", intLit(0)))
	if workDim == 2 {
		wgSize = bin(clc.BinMul, call("get_local_size", intLit(0)), call("get_local_size", intLit(1)))
	}
	loop := &clc.ForStmt{
		Init: declInt(workName, call("atomic_inc", ident(worklistName))),
		Cond: bin(clc.BinLt, ident(workName), wgSize),
		Post: assign(ident(workName), call("atomic_inc", ident(worklistName))),
		Body: inner,
	}

	// if (get_local_id(0) % dop_gpu_mod < dop_gpu_alloc) { loop }
	throttle := &clc.IfStmt{
		Cond: bin(clc.BinLt,
			bin(clc.BinRem, call("get_local_id", intLit(0)), ident(ParamMod)),
			ident(ParamAlloc)),
		Then: &clc.Block{Stmts: []clc.Stmt{loop}},
	}

	body := &clc.Block{Stmts: []clc.Stmt{
		&clc.DeclStmt{Decls: []*clc.VarDecl{{
			Name: worklistName, Type: clc.TypeInt, ArrayLen: 1, IsLocal: true,
		}}},
		&clc.IfStmt{
			Cond: bin(clc.BinEq, call("get_local_id", intLit(0)), intLit(0)),
			Then: exprStmt(assign(&clc.Index{Base: ident(worklistName), Idx: intLit(0)}, intLit(0))),
		},
		&clc.BarrierStmt{Flags: "CLK_LOCAL_MEM_FENCE"},
		throttle,
	}}

	nk := &clc.Kernel{Name: k.Name, Body: body}
	for _, p := range k.Params {
		nk.Params = append(nk.Params, &clc.Param{Name: p.Name, Type: p.Type})
	}
	nk.Params = append(nk.Params,
		&clc.Param{Name: ParamMod, Type: clc.TypeInt},
		&clc.Param{Name: ParamAlloc, Type: clc.TypeInt},
	)

	src := clc.PrintKernel(nk)
	prog, err := clc.Compile(src)
	if err != nil {
		// A kernel Check accepts whose form does not compile is a gap in
		// Check's rules; %v keeps the front-end's stage off the error.
		return nil, unsupported(fmt.Errorf("transform: generated malleable kernel %s does not compile: %v", k.Name, err))
	}
	return &GPUResult{Kernel: prog.Kernels[0], Source: src, WorkDim: workDim}, nil
}

// checkTransformable rejects kernels the malleable rewrite cannot handle.
func checkTransformable(k *clc.Kernel) error {
	if k.Body == nil {
		return fmt.Errorf("transform: kernel %s has no body", k.Name)
	}
	for _, s := range k.Body.Stmts {
		if _, ok := s.(*clc.BarrierStmt); ok {
			return fmt.Errorf("transform: kernel %s uses barriers; the malleable rewrite would nest them inside the worklist loop", k.Name)
		}
	}
	// The scaffold declares its own names under the reserved prefix; a
	// parameter or local of that name would shadow them or be shadowed.
	reserved := func(name string) error {
		if strings.HasPrefix(name, "__dopia_") {
			return fmt.Errorf("transform: kernel %s uses reserved identifier %s", k.Name, name)
		}
		return nil
	}
	for _, p := range k.Params {
		if p.Name == ParamMod || p.Name == ParamAlloc {
			return fmt.Errorf("transform: kernel %s already has a parameter named %s", k.Name, p.Name)
		}
		if err := reserved(p.Name); err != nil {
			return err
		}
	}
	for _, sym := range k.Locals {
		if err := reserved(sym.Name); err != nil {
			return err
		}
	}
	if returnInLoop(k.Body, false) {
		return fmt.Errorf("transform: kernel %s: return inside a loop cannot be made malleable", k.Name)
	}
	return nil
}

// returnInLoop reports whether s holds a return nested in a loop (inLoop:
// s itself is in one). The rewrite turns a return into a continue of the
// worklist loop, which inside a user loop would bind to that loop.
func returnInLoop(s clc.Stmt, inLoop bool) bool {
	switch st := s.(type) {
	case *clc.ReturnStmt:
		return inLoop
	case *clc.Block:
		for _, inner := range st.Stmts {
			if returnInLoop(inner, inLoop) {
				return true
			}
		}
	case *clc.IfStmt:
		return returnInLoop(st.Then, inLoop) || st.Else != nil && returnInLoop(st.Else, inLoop)
	case *clc.ForStmt:
		return returnInLoop(st.Body, true)
	case *clc.WhileStmt:
		return returnInLoop(st.Body, true)
	case *clc.DoWhileStmt:
		return returnInLoop(st.Body, true)
	}
	return false
}
