package server

// Tests of the binary wire protocol: cursor/appender round-trips, the
// shared-listener protocol sniffing, handshake version negotiation, and
// bit-identical results against the HTTP/JSON protocol over the same
// server.

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"testing"
	"time"

	"dopia/internal/sim"
)

func TestWireCursorRoundTrip(t *testing.T) {
	var b []byte
	b = appendU16(b, 0xBEEF)
	b = appendU32(b, 0xDEADBEEF)
	b = appendU64(b, 0x0123456789ABCDEF)
	b = appendI64(b, -42)
	b = appendF64(b, -0.5)
	b = appendStr(b, "hello")
	b = appendStr(b, "")
	b = append(b, 7)

	c := &wireCursor{b: b}
	if v := c.u16(); v != 0xBEEF {
		t.Errorf("u16 = %#x", v)
	}
	if v := c.u32(); v != 0xDEADBEEF {
		t.Errorf("u32 = %#x", v)
	}
	if v := c.u64(); v != 0x0123456789ABCDEF {
		t.Errorf("u64 = %#x", v)
	}
	if v := c.i64(); v != -42 {
		t.Errorf("i64 = %d", v)
	}
	if v := c.f64(); v != -0.5 {
		t.Errorf("f64 = %v", v)
	}
	if v := c.str(); v != "hello" {
		t.Errorf("str = %q", v)
	}
	if v := c.str(); v != "" {
		t.Errorf("empty str = %q", v)
	}
	if v := c.u8(); v != 7 {
		t.Errorf("u8 = %d", v)
	}
	if !c.done() {
		t.Errorf("cursor not done: off=%d len=%d err=%v", c.off, len(c.b), c.err)
	}

	// Reading past the end latches the error and zero-values everything
	// after — straight-line decoders check once.
	if v := c.u32(); v != 0 {
		t.Errorf("past-end u32 = %d, want 0", v)
	}
	if c.err == nil {
		t.Error("past-end read did not latch an error")
	}
	if v := c.u64(); v != 0 {
		t.Errorf("read after latched error = %d, want 0", v)
	}

	// A string whose length prefix overruns the payload is truncation,
	// not a huge take.
	tc := &wireCursor{b: appendU32(nil, 1<<30)}
	if v := tc.str(); v != "" || tc.err == nil {
		t.Errorf("overlong string: %q, err=%v", v, tc.err)
	}
}

// newMixedTestServer boots a server behind a MixedServer on a loopback
// listener, returning the bare host:port (dial it for binary, prefix
// http:// for JSON).
func newMixedTestServer(t *testing.T, mutate func(*Config)) (*Server, string) {
	t.Helper()
	cfg := Config{Machine: sim.Kaveri()}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMixedServer(s)
	go func() { _ = ms.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("server shutdown: %v", err)
		}
		if err := ms.Shutdown(ctx); err != nil {
			t.Errorf("mixed shutdown: %v", err)
		}
	})
	return s, ln.Addr().String()
}

func TestBinaryMatchesJSONBitExact(t *testing.T) {
	_, addr := newMixedTestServer(t, nil)
	jc := NewClient("http://"+addr, nil)
	bc, err := DialBin(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()

	// Both protocols share one program registry.
	progID, kernels, cached, err := bc.Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first binary compile reported cached")
	}
	if len(kernels) != 1 || kernels[0] != "scale" {
		t.Errorf("kernels = %v, want [scale]", kernels)
	}
	jp, err := jc.Compile(scaleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !jp.Cached || jp.ProgramID != progID {
		t.Errorf("JSON compile after binary: cached=%v id=%q, want cached %q", jp.Cached, jp.ProgramID, progID)
	}

	const n = 128
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i)*0.125 - 3
	}
	raw := make([]byte, 4*n)
	F32ToLE(raw, xs)

	// Identical sessions through each protocol: raw upload on binary,
	// base64 on JSON.
	bsid, err := bc.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	if err := bc.CreateBufferRaw(bsid, "x", 'f', raw); err != nil {
		t.Fatal(err)
	}
	if err := bc.CreateBufferZero(bsid, "y", 'f', n); err != nil {
		t.Fatal(err)
	}
	jsid, err := jc.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := jc.CreateBuffer(jsid, &BufferRequest{Name: "x", Kind: "float32", F32B64: EncodeF32(xs)}); err != nil {
		t.Fatal(err)
	}
	if err := jc.CreateBuffer(jsid, &BufferRequest{Name: "y", Kind: "float32", Len: n}); err != nil {
		t.Fatal(err)
	}

	// Raw upload reads back bit-identical on both wire encodings.
	kind, elems, rb, err := bc.ReadBuffer(bsid, "x")
	if err != nil {
		t.Fatal(err)
	}
	if kind != 'f' || elems != n || !bytes.Equal(rb, raw) {
		t.Errorf("binary read-back: kind=%c elems=%d, equal=%v", kind, elems, bytes.Equal(rb, raw))
	}
	jb, err := jc.ReadBuffer(jsid, "x")
	if err != nil {
		t.Fatal(err)
	}
	if jb.F32B64 != EncodeF32(xs) {
		t.Error("JSON read-back differs from uploaded content")
	}

	a, nn := 1.75, int64(n)
	bres, err := bc.Launch(&BinLaunch{
		SessionID: bsid, ProgramID: progID, Kernel: "scale",
		Args:   []LaunchArg{{Buf: "x"}, {Buf: "y"}, {Float: &a}, {Int: &nn}},
		Global: []int{n}, Local: []int{64},
		Read: []string{"y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bres.Bufs) != 1 || bres.Bufs[0].Name != "y" || bres.Bufs[0].Kind != 'f' || bres.Bufs[0].Elems != n {
		t.Fatalf("binary read-set: %+v", bres.Bufs)
	}
	// The view is invalidated by the next call — copy before launching
	// the JSON twin.
	binY := append([]byte(nil), bres.Bufs[0].Raw...)

	jres, err := jc.Launch(&LaunchRequest{
		SessionID: jsid, ProgramID: progID, Kernel: "scale",
		Args:   []LaunchArg{{Buf: "x"}, {Buf: "y"}, {Float: &a}, {Int: &nn}},
		Global: []int{n}, Local: []int{64},
		Read: []string{"y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	jsonY, err := DecodeF32(jres.Buffers["y"].F32B64)
	if err != nil {
		t.Fatal(err)
	}
	jsonRaw := make([]byte, 4*len(jsonY))
	F32ToLE(jsonRaw, jsonY)
	if !bytes.Equal(binY, jsonRaw) {
		t.Error("binary and JSON launch outputs differ bit-wise")
	}
	if bres.Rung == "" || bres.Rung != jres.Rung {
		t.Errorf("rungs differ: binary %q, JSON %q", bres.Rung, jres.Rung)
	}
	if err := bc.CloseSession(bsid); err != nil {
		t.Fatal(err)
	}
	if err := jc.CloseSession(jsid); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryIdempotentReplayCarriesRawBuffers(t *testing.T) {
	_, addr := newMixedTestServer(t, nil)
	bc, err := DialBin(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	progID, _, _, err := bc.Compile(accSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	sid, err := bc.NewSession("")
	if err != nil {
		t.Fatal(err)
	}
	x, _ := accInputs(n)
	xraw := make([]byte, 4*n)
	F32ToLE(xraw, x)
	if err := bc.CreateBufferRaw(sid, "x", 'f', xraw); err != nil {
		t.Fatal(err)
	}
	if err := bc.CreateBufferZero(sid, "y", 'f', n); err != nil {
		t.Fatal(err)
	}
	nn := int64(n)
	req := &BinLaunch{
		SessionID: sid, ProgramID: progID, Kernel: "acc",
		Args:   []LaunchArg{{Buf: "x"}, {Buf: "y"}, {Int: &nn}},
		Global: []int{n}, Local: []int{32},
		Read:    []string{"y"},
		IdemKey: "k1",
	}
	first, err := bc.Launch(req)
	if err != nil {
		t.Fatal(err)
	}
	firstY := append([]byte(nil), first.Bufs[0].Raw...)

	// The replay must reconstruct the raw read-set from the idempotency
	// cache — and NOT re-execute (the accumulator would show it).
	replay, err := bc.Launch(req)
	if err != nil {
		t.Fatal(err)
	}
	if !replay.Replayed {
		t.Error("second launch under the same idem key did not report replayed")
	}
	if len(replay.Bufs) != 1 || !bytes.Equal(replay.Bufs[0].Raw, firstY) {
		t.Error("replayed raw read-set differs from the original")
	}
	kind, _, yNow, err := bc.ReadBuffer(sid, "y")
	if err != nil || kind != 'f' {
		t.Fatalf("read y: kind=%c err=%v", kind, err)
	}
	if !bytes.Equal(yNow, firstY) {
		t.Error("idempotent replay re-executed the accumulator")
	}
}

func TestBinaryHandshakeVersionReject(t *testing.T) {
	_, addr := newMixedTestServer(t, nil)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{binMagic, 'd', 'p', 99}); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, 5)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readFull(conn, hdr); err != nil {
		t.Fatal(err)
	}
	if hdr[0] != opError {
		t.Fatalf("unknown version answered op %#x, want opError", hdr[0])
	}
	n := int(uint32(hdr[1]) | uint32(hdr[2])<<8 | uint32(hdr[3])<<16 | uint32(hdr[4])<<24)
	payload := make([]byte, n)
	if _, err := readFull(conn, payload); err != nil {
		t.Fatal(err)
	}
	cur := &wireCursor{b: payload}
	if status := cur.u16(); status != http.StatusHTTPVersionNotSupported {
		t.Errorf("version rejection status = %d, want 505", status)
	}

	// HTTP on the same listener keeps working after the rejected
	// binary connection.
	jc := NewClient("http://"+addr, nil)
	if _, err := jc.Healthz(); err != nil {
		t.Fatalf("HTTP on the shared listener: %v", err)
	}
}

func readFull(conn net.Conn, b []byte) (int, error) {
	got := 0
	for got < len(b) {
		n, err := conn.Read(b[got:])
		got += n
		if err != nil {
			return got, err
		}
	}
	return got, nil
}
