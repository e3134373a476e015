package interp_test

import (
	"strings"
	"testing"

	"dopia/internal/clc"
	"dopia/internal/faults"
	"dopia/internal/interp"
)

// TestRefusals holds every refusal a checked kernel can reach, by the
// checker or by the engines, to its message: the kernel is refused at
// clc.Compile, or its Launch fails at the compile stage on both engines
// with the same message.
func TestRefusals(t *testing.T) {
	const head = `__kernel void k(__global int *a) { `
	for _, tc := range []struct{ body, want string }{
		{`__local int x = 1; a[0] = x; }`, `1:48: __local variables cannot have initializers`},
		{`__global int *p = a; p[0] = 1; }`, `1:54: interp: pointer "a" used as a value`},
		{`__global int *p; p[0] = 1; }`, `1:54: interp: subscript of non-array "p"`},
		{`int *q; a[0] = q[0]; }`, `1:52: interp: subscript of non-array "q"`},
		{`int t[4]; int *p = t; a[0] = p[0]; }`, `1:55: interp: pointer "t" used as a value`},
		{`a[0] = (a == a); }`, `1:44: interp: pointer "a" used as a value`},
		{`a[0] = (int)a; }`, `1:48: interp: pointer "a" used as a value`},
		{`a[0] = (float)a; }`, `1:50: interp: pointer "a" used as a value`},
		{`int t[4]; atomic_inc(t); a[0] = t[0]; }`, `1:57: interp: atomic target must be a __local array or global int pointer`},
		{`__global int *p; atomic_inc(p); }`, `1:64: interp: atomic target must be a __local array or global int pointer`},
		{`int t[4]; atomic_add(t, a[0] == a[1]); }`, `1:57: interp: atomic target must be a __local array or global int pointer`},
		{`if (a == a) a[0] = 1; }`, `1:40: interp: pointer "a" used as a value`},
		{`a[a == a] = 1; }`, `1:38: interp: pointer "a" used as a value`},
		{`__local int s[2]; atomic_add(s, a == a); }`, `1:68: interp: pointer "a" used as a value`},
	} {
		src := head + tc.body
		prog, err := clc.Compile(src)
		if err != nil {
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s\nclc.Compile: %v, want %q", src, err, tc.want)
			}
			continue
		}
		for _, engine := range []interp.Engine{interp.EngineBytecode, interp.EngineClosures} {
			ex, err := interp.NewExec(prog.Kernels[0])
			if err != nil {
				t.Fatalf("%s\nNewExec: %v", src, err)
			}
			ex.Engine = engine
			if err := ex.Bind(interp.BufArg(interp.NewIntBuffer(4))); err != nil {
				t.Fatalf("%s\nBind: %v", src, err)
			}
			err = ex.Launch(interp.ND1(4, 4))
			if err == nil || !strings.HasSuffix(err.Error(), tc.want) || faults.StageOf(err) != faults.StageCompile {
				t.Errorf("%s\n%v Launch: %v (stage %v), want %q at %v", src, engine, err, faults.StageOf(err), tc.want, faults.StageCompile)
			}
		}
	}
}
