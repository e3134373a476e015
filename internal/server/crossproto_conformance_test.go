package server_test

// Cross-protocol conformance: randomly generated kernels must produce
// bit-identical buffer outputs whether driven over the binary wire
// protocol, over HTTP/JSON against the same daemon, or over HTTP/JSON
// through an in-process dopia-router ring (`dopia-router -local`). The
// external test package lets this lean on internal/conformance's kernel
// generator, which itself imports the server.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"dopia/internal/cluster"
	"dopia/internal/conformance"
	"dopia/internal/server"
	"dopia/internal/sim"
)

// crossCases bounds the random sweep; each case runs three full
// protocol legs.
const crossCases = 12

func runJSONLeg(c *server.Client, cs *conformance.Case) (map[string][]byte, error) {
	pr, err := c.Compile(cs.Source)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	sid, err := c.NewSession()
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	defer c.CloseSession(sid)

	req := &server.LaunchRequest{
		SessionID: sid, ProgramID: pr.ProgramID, Kernel: cs.Kernel,
		Global: append([]int(nil), cs.ND.Global[:cs.ND.Dims]...),
		Local:  append([]int(nil), cs.ND.Local[:cs.ND.Dims]...),
	}
	for i := range cs.Args {
		a := &cs.Args[i]
		switch a.Kind {
		case "fbuf":
			if err := c.CreateBuffer(sid, &server.BufferRequest{
				Name: a.Name, Kind: "float32", F32B64: server.EncodeF32(a.F32),
			}); err != nil {
				return nil, fmt.Errorf("buffer %s: %w", a.Name, err)
			}
			req.Args = append(req.Args, server.LaunchArg{Buf: a.Name})
			req.Read = append(req.Read, a.Name)
		case "ibuf":
			if err := c.CreateBuffer(sid, &server.BufferRequest{
				Name: a.Name, Kind: "int32", I32B64: server.EncodeI32(a.I32),
			}); err != nil {
				return nil, fmt.Errorf("buffer %s: %w", a.Name, err)
			}
			req.Args = append(req.Args, server.LaunchArg{Buf: a.Name})
			req.Read = append(req.Read, a.Name)
		case "int":
			v := a.IVal
			req.Args = append(req.Args, server.LaunchArg{Int: &v})
		default:
			v := a.FVal
			req.Args = append(req.Args, server.LaunchArg{Float: &v})
		}
	}
	resp, err := c.Launch(req)
	if err != nil {
		return nil, fmt.Errorf("launch: %w", err)
	}
	out := map[string][]byte{}
	for _, name := range req.Read {
		bd, ok := resp.Buffers[name]
		if !ok {
			return nil, fmt.Errorf("response missing buffer %s", name)
		}
		switch bd.Kind {
		case "float32":
			xs, err := server.DecodeF32(bd.F32B64)
			if err != nil {
				return nil, err
			}
			raw := make([]byte, 4*len(xs))
			server.F32ToLE(raw, xs)
			out[name] = raw
		case "int32":
			xs, err := server.DecodeI32(bd.I32B64)
			if err != nil {
				return nil, err
			}
			raw := make([]byte, 4*len(xs))
			server.I32ToLE(raw, xs)
			out[name] = raw
		}
	}
	return out, nil
}

func runBinLeg(bc *server.BinClient, cs *conformance.Case) (map[string][]byte, error) {
	progID, _, _, err := bc.Compile(cs.Source)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	sid, err := bc.NewSession("")
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	defer bc.CloseSession(sid)

	req := &server.BinLaunch{
		SessionID: sid, ProgramID: progID, Kernel: cs.Kernel,
		Global: append([]int(nil), cs.ND.Global[:cs.ND.Dims]...),
		Local:  append([]int(nil), cs.ND.Local[:cs.ND.Dims]...),
	}
	for i := range cs.Args {
		a := &cs.Args[i]
		switch a.Kind {
		case "fbuf":
			raw := make([]byte, 4*len(a.F32))
			server.F32ToLE(raw, a.F32)
			if err := bc.CreateBufferRaw(sid, a.Name, 'f', raw); err != nil {
				return nil, fmt.Errorf("buffer %s: %w", a.Name, err)
			}
			req.Args = append(req.Args, server.LaunchArg{Buf: a.Name})
			req.Read = append(req.Read, a.Name)
		case "ibuf":
			raw := make([]byte, 4*len(a.I32))
			server.I32ToLE(raw, a.I32)
			if err := bc.CreateBufferRaw(sid, a.Name, 'i', raw); err != nil {
				return nil, fmt.Errorf("buffer %s: %w", a.Name, err)
			}
			req.Args = append(req.Args, server.LaunchArg{Buf: a.Name})
			req.Read = append(req.Read, a.Name)
		case "int":
			v := a.IVal
			req.Args = append(req.Args, server.LaunchArg{Int: &v})
		default:
			v := a.FVal
			req.Args = append(req.Args, server.LaunchArg{Float: &v})
		}
	}
	resp, err := bc.Launch(req)
	if err != nil {
		return nil, fmt.Errorf("launch: %w", err)
	}
	out := map[string][]byte{}
	for _, bv := range resp.Bufs {
		// Views alias client storage reused by the next call; copy.
		out[bv.Name] = append([]byte(nil), bv.Raw...)
	}
	return out, nil
}

func TestCrossProtocolConformance(t *testing.T) {
	srv, err := server.New(server.Config{Machine: sim.Kaveri()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ms := server.NewMixedServer(srv)
	go func() { _ = ms.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		_ = ms.Shutdown(ctx)
	}()
	addr := ln.Addr().String()
	jc := server.NewClient("http://"+addr, nil)
	bc, err := server.DialBin(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()

	// The third leg: the same JSON protocol through an in-process
	// 2-node router ring (the `dopia-router -local` path).
	ring, err := cluster.StartLocal(cluster.LocalConfig{
		Nodes:  2,
		Server: server.Config{Machine: sim.Kaveri()},
		Router: cluster.RouterConfig{JanitorInterval: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = ring.Shutdown(ctx)
	}()
	rc := ring.Client()
	rc.SetRetryPolicy(&server.RetryPolicy{MaxAttempts: 8, BaseDelay: 50 * time.Millisecond, Seed: 1})

	for i := 0; i < crossCases; i++ {
		cs, err := conformance.GenerateClass(conformance.CaseSeed(0xC0DE, i), conformance.ClassTotal)
		if err != nil {
			t.Fatalf("case %d: generate: %v", i, err)
		}
		jsonOut, err := runJSONLeg(jc, cs)
		if err != nil {
			t.Fatalf("%s: JSON leg: %v", cs, err)
		}
		binOut, err := runBinLeg(bc, cs)
		if err != nil {
			t.Fatalf("%s: binary leg: %v", cs, err)
		}
		routerOut, err := runJSONLeg(rc, cs)
		if err != nil {
			t.Fatalf("%s: router leg: %v", cs, err)
		}
		if len(binOut) != len(jsonOut) || len(routerOut) != len(jsonOut) {
			t.Fatalf("%s: read-set sizes differ: json=%d bin=%d router=%d",
				cs, len(jsonOut), len(binOut), len(routerOut))
		}
		for name, want := range jsonOut {
			if got, ok := binOut[name]; !ok || !bytes.Equal(got, want) {
				t.Errorf("%s: buffer %s differs between binary and JSON protocols", cs, name)
			}
			if got, ok := routerOut[name]; !ok || !bytes.Equal(got, want) {
				t.Errorf("%s: buffer %s differs between direct and routed JSON", cs, name)
			}
		}
	}
}

// crossAccSrc makes every physical execution visible: y advances by
// x[i]+1 per applied launch.
const crossAccSrc = `
__kernel void acc(__global float* x, __global float* y, int n) {
    int i = get_global_id(0);
    if (i < n) {
        y[i] = y[i] + x[i] + 1.0f;
    }
}`

// TestCrossProtocolIdempotentReplay executes an idempotent launch over
// one protocol and replays it over the other, both ways: the replay must
// be marked Replayed, carry the same bytes in the order the read-set was
// requested (here y before x — not name order), and leave the
// accumulator applied exactly once.
func TestCrossProtocolIdempotentReplay(t *testing.T) {
	srv, err := server.New(server.Config{Machine: sim.Kaveri()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ms := server.NewMixedServer(srv)
	go func() { _ = ms.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		_ = ms.Shutdown(ctx)
	}()
	addr := ln.Addr().String()
	jc := server.NewClient("http://"+addr, nil)
	bc, err := server.DialBin(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	prog, err := jc.Compile(crossAccSrc)
	if err != nil {
		t.Fatal(err)
	}

	const n = 64
	nn := int64(n)
	args := []server.LaunchArg{{Buf: "x"}, {Buf: "y"}, {Int: &nn}}
	read := []string{"y", "x"}
	type buf struct {
		name string
		raw  []byte
	}
	viaJSON := func(sid string) (bool, []buf) {
		t.Helper()
		resp, err := jc.Launch(&server.LaunchRequest{
			SessionID: sid, ProgramID: prog.ProgramID, Kernel: "acc", Args: args,
			Global: []int{n}, Local: []int{32}, Read: read, IdemKey: "once",
		})
		if err != nil {
			t.Fatal(err)
		}
		// A JSON object has no order; take the buffers in request order.
		var out []buf
		for _, name := range read {
			xs, err := server.DecodeF32(resp.Buffers[name].F32B64)
			if err != nil {
				t.Fatal(err)
			}
			raw := make([]byte, 4*len(xs))
			server.F32ToLE(raw, xs)
			out = append(out, buf{name, raw})
		}
		return resp.Replayed, out
	}
	viaBin := func(sid string) (bool, []buf) {
		t.Helper()
		res, err := bc.Launch(&server.BinLaunch{
			SessionID: sid, ProgramID: prog.ProgramID, Kernel: "acc", Args: args,
			Global: []int{n}, Local: []int{32}, Read: read, IdemKey: "once",
		})
		if err != nil {
			t.Fatal(err)
		}
		var out []buf
		for _, bv := range res.Bufs {
			out = append(out, buf{bv.Name, append([]byte(nil), bv.Raw...)})
		}
		return res.Replayed, out
	}

	for _, leg := range []struct {
		name          string
		first, replay func(string) (bool, []buf)
	}{
		{"json-then-binary", viaJSON, viaBin},
		{"binary-then-json", viaBin, viaJSON},
		{"binary-then-binary", viaBin, viaBin},
	} {
		sid, err := jc.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		seed := uint32(3)
		if err := jc.CreateBuffer(sid, &server.BufferRequest{Name: "x", Kind: "float32", Len: n, FillSeed: &seed}); err != nil {
			t.Fatal(err)
		}
		if err := jc.CreateBuffer(sid, &server.BufferRequest{Name: "y", Kind: "float32", Len: n}); err != nil {
			t.Fatal(err)
		}
		replayed, first := leg.first(sid)
		if replayed {
			t.Errorf("%s: first execution reported replayed", leg.name)
		}
		replayed, again := leg.replay(sid)
		if !replayed {
			t.Errorf("%s: replay not marked replayed", leg.name)
		}
		if len(first) != len(read) || len(again) != len(read) {
			t.Fatalf("%s: read-set sizes %d / %d, want %d", leg.name, len(first), len(again), len(read))
		}
		for i, name := range read {
			if first[i].name != name || again[i].name != name {
				t.Errorf("%s: read-set slot %d is %q then %q, want request order %q",
					leg.name, i, first[i].name, again[i].name, name)
			}
			if !bytes.Equal(first[i].raw, again[i].raw) {
				t.Errorf("%s: replayed %s differs from the first execution", leg.name, name)
			}
		}
		// One execution: y still holds exactly what the first launch returned.
		_, _, yNow, err := bc.ReadBuffer(sid, "y")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(yNow, first[0].raw) {
			t.Errorf("%s: the replay re-executed the accumulator", leg.name)
		}
	}
}
