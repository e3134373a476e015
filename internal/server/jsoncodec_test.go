package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// payloadTargets are the wire types whose payloads decodeJSON lifts, plus
// one it decodes plainly.
var payloadTargets = []func() any{
	func() any { return new(LaunchResponse) },
	func() any { return new(SessionExport) },
	func() any { return new(BufferData) },
	func() any { return new(BufferRequest) },
	func() any { return new(ProgramResponse) },
}

// checkDecode holds decodeJSON to json.NewDecoder on one body, for every
// target type: the same error, or the same value.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	for _, mk := range payloadTargets {
		got, want := mk(), mk()
		gerr := decodeJSON(body, got)
		werr := json.NewDecoder(bytes.NewReader(body)).Decode(want)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%T from %q: error %v, json.Decoder says %v", got, body, gerr, werr)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%T from %q:\n got %+v\nwant %+v", got, body, got, want)
		}
	}
}

// wireNames are buffer names and strings that encoding/json escapes.
var wireNames = []string{"x", "y", "out", "a<b", `q"uote`, "back\\slash", "amp&", "line\u2028sep", "\xff\xfe", "", "é", "tab\t", "A+/="}

// randomResult draws a launch result: any field set or not, names that
// need escapes and repeat, both element kinds, zero-length buffers.
func randomResult(rng *rand.Rand) *launchResult {
	pick := func() string { return wireNames[rng.Intn(len(wireNames))] }
	float := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Float64() * 1e-9
		case 2:
			return rng.Float64() * 1e22
		}
		return rng.NormFloat64()
	}
	r := &launchResult{
		rung: pick(), engine: pick(),
		replayed: rng.Intn(2) == 0,
		queueMS:  float(), execMS: float(),
	}
	if rng.Intn(3) > 0 {
		r.decision = &DecisionInfo{
			CPUCores: rng.Intn(9), GPUFrac: float(), Predicted: float(), Evaluated: rng.Intn(45),
			ModelDiscarded: rng.Intn(2) == 0, InferUS: float(), Learned: rng.Intn(2) == 0,
			Explored: rng.Intn(2) == 0, Sched: pick(),
		}
	}
	if rng.Intn(3) > 0 {
		r.sim = &ResultInfo{SimTimeSec: float(), WGsCPU: rng.Intn(100), WGsGPU: rng.Intn(100), GPUChunks: rng.Intn(9)}
	}
	if rng.Intn(3) > 0 {
		r.fallback = &FallbackDelta{Managed: rng.Int63n(3), CoExecAll: rng.Int63n(3), Plain: rng.Int63n(3), Panics: rng.Int63n(2)}
	}
	for range rng.Intn(5) {
		rb := rawBuf{name: pick(), kind: 'f', elems: rng.Intn(3) * rng.Intn(40)}
		if rng.Intn(2) == 0 {
			rb.kind = 'i'
		}
		rb.raw = make([]byte, 4*rb.elems)
		rng.Read(rb.raw)
		r.bufs = append(r.bufs, rb)
	}
	return r
}

// encoded is what json.NewEncoder(w).Encode(v) writes.
func encoded(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// written runs a response writer and returns its body, checking the
// status and that Content-Length declares the body.
func written(t *testing.T, write func(http.ResponseWriter)) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	write(rec)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != fmt.Sprint(rec.Body.Len()) {
		t.Fatalf("status %d, Content-Length %q for a %d-byte body", rec.Code, rec.Header().Get("Content-Length"), rec.Body.Len())
	}
	return rec.Body.Bytes()
}

// checkEncode holds the launch and buffer writers to json.Encoder on a
// random launch result.
func checkEncode(t *testing.T, rng *rand.Rand) {
	t.Helper()
	r := randomResult(rng)
	want := encoded(t, r.response())
	if got := written(t, r.writeJSON); !bytes.Equal(got, want) {
		t.Fatalf("launch body:\n got %s\nwant %s", got, want)
	}
	for i := range r.bufs {
		want = encoded(t, r.bufs[i].data())
		if got := written(t, func(w http.ResponseWriter) { writeBuffer(w, &r.bufs[i]) }); !bytes.Equal(got, want) {
			t.Fatalf("buffer body:\n got %s\nwant %s", got, want)
		}
	}
}

// FuzzJSONPayloadCodec: for any body, decodeJSON returns what
// json.NewDecoder does, error included; and on a random launch result
// (drawn from the body's hash) the writers emit json.Encoder's bytes.
func FuzzJSONPayloadCodec(f *testing.F) {
	golden, err := os.ReadFile("testdata/golden_launch.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, s := range []string{
		`{"kind":"float32","len":2,"f32_b64":"AACAPwAAAEA="}`,
		`{"kind":"float32","len":2,"f32_b64":"AACAPwAAAEA\u003d"}`,
		`{"kind":"float32","len":2,"f32_b64":"AACAPw\/AAEA="}`,
		`{"kind":"int32","f32_b64":"AAAA","f32_b64":"BBBB"}`,
		`{"f32_b64":"AAAA","F32_B64":"BBBB"}`,
		`{"f32_b64":"AAAA","f32_b64":null}`,
		`{"i32_b64":"AAAA","i32_b64":"BB\nB"}`,
		`{"buffers":{"x":{"f32_b64":"AAAA"},"x":{"i32_b64":"BBBB"}}}`,
		`{"buffers":{"x":{"f32_b64":"AAAA"}},"Buffers":{"x":{"kind":"k"}}}`,
		`{"buffers":{"x":{"f32_b64":"AAAA"}},"bufferſ":{}}`,
		`{"buff\u0065rs":{"x":{"f32_b64":"AAAA"}}}`,
		`{"buffers":{"x":{"f\u0033\u0032_b64":"AAAA","f32_b64":"CCCC"}}}`,
		`{"f32_b64":{"buffers":{"x":{"f32_b64":"AAAA"}}},"decision":{"f32_b64":"QQ=="}}`,
		`{"rung":"managed","buffers":{"a":{"f32_b64":"AAAA"},"b":[{"f32_b64":"AAAA"}]},"queue_ms":1}`,
		`{"buffers":{"x":{"f32_b64":"AAAA"}}} trailing`,
		`{"buffers":{"x":{"f32_b64":"AAAA"}},}`,
		`{"buffers":{"x":{"f32_b64":"AAAA","len":"3"}}}`,
		`{"buffers":{"x":{"f32_b64":"AAAA"}`,
		`{"session_id":"s","buffers":{"x":{"kind":"int32","len":1,"i32_b64":"AQAAAA=="}},"idem":[{"key":"k","resp":{"buffers":{"x":{"i32_b64":"AQAAAA=="}}}}]}`,
		`{"name":"x","kind":"float32","len":1,"f32_b64":"AACAPw==","f32":[1]}`,
		` null`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
		h := fnv.New64a()
		h.Write(body)
		checkEncode(t, rand.New(rand.NewSource(int64(h.Sum64()))))
	})
}

// TestJSONPayloadCodecRandom runs the fuzz target's encode side over many
// drawn results and its decode side over their bodies.
func TestJSONPayloadCodecRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 500 {
		checkEncode(t, rng)
		r := randomResult(rng)
		checkDecode(t, encoded(t, r.response()))
		for i := range r.bufs {
			checkDecode(t, encoded(t, r.bufs[i].data()))
		}
	}
}

// TestUploadRoundTripsThroughLiftedDecode: a 1 MiB float32 upload comes
// back bit-exact; a payload written with \/ escapes, which the scan does
// not lift, decodes through the plain path; and an over-limit, truncated
// or malformed body is refused with the message json.Decoder gives.
func TestUploadRoundTripsThroughLiftedDecode(t *testing.T) {
	const maxBytes = 1 << 20
	s, ts, c := newTestServer(t, func(cfg *Config) { cfg.MaxBufferBytes = maxBytes })
	sid, err := c.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float32, maxBytes/4)
	rng := rand.New(rand.NewSource(5))
	for i := range xs {
		xs[i] = math.Float32frombits(rng.Uint32())
	}
	if err := c.CreateBuffer(sid, &BufferRequest{Name: "big", Kind: "float32", F32B64: EncodeF32(xs)}); err != nil {
		t.Fatal(err)
	}
	bd, err := c.ReadBuffer(sid, "big")
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeF32(bd.F32B64)
	if err != nil || len(got) != len(xs) {
		t.Fatalf("read back %d floats (%v), want %d", len(got), err, len(xs))
	}
	for i := range xs {
		if math.Float32bits(got[i]) != math.Float32bits(xs[i]) {
			t.Fatalf("element %d: %#x, want %#x", i, math.Float32bits(got[i]), math.Float32bits(xs[i]))
		}
	}

	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/sessions/"+sid+"/buffers", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	raw := make([]byte, 4*64)
	for i := range 64 {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(float32(i)/3))
	}
	b64 := EncodeF32(func() []float32 { v := make([]float32, 64); LEToF32(v, raw); return v }())
	if !strings.Contains(b64, "/") {
		t.Fatal("the escaped payload needs a '/' to escape")
	}
	escaped := strings.ReplaceAll(b64, "/", `\/`)
	if status, msg := post(`{"name":"esc","kind":"float32","f32_b64":"` + escaped + `"}`); status != http.StatusOK {
		t.Fatalf("escaped payload: %d %s", status, msg)
	}
	if bd, err := c.ReadBuffer(sid, "esc"); err != nil || bd.F32B64 != b64 {
		t.Fatalf("escaped payload read back %q (%v), want %q", bd.F32B64, err, b64)
	}

	limit := s.limits.Buffer
	for name, body := range map[string]string{
		"over-limit": `{"name":"o","kind":"int32","i32_b64":"` + strings.Repeat("A", int(limit)) + `"}`,
		"truncated":  `{"name":"t","kind":"int32","i32_b64":"AAAA`,
		"malformed":  `{"name":"m","kind":"int32","i32_b64":"AAAA",}`,
	} {
		var v BufferRequest
		want := json.NewDecoder(io.LimitReader(strings.NewReader(body), limit)).Decode(&v)
		status, msg := post(body)
		if status != http.StatusBadRequest || !strings.Contains(msg, "bad request body: "+want.Error()) {
			t.Errorf("%s: %d %s, want 400 with %q", name, status, msg, want)
		}
	}
}

// TestDeclaredLengthIsOnlyAHint: a body that declares the largest length
// a limit allows and sends a few bytes allocates for the bytes that came,
// on the daemon (DecodeBody, whose 400 message is json.Decoder's) and on
// the client; a body that sends what it declares still reads whole.
func TestDeclaredLengthIsOnlyAHint(t *testing.T) {
	const declared = 1<<30 + 1<<20 // an import's limit
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	short := `{"name":"x","kind":"int32","i32_b64":"AAAA`

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/sessions/s/buffers", strings.NewReader(short))
	req.ContentLength = declared
	var v BufferRequest
	if n := allocated(func() { DecodeBody(rec, req, declared, &v) }); n > 1<<20 {
		t.Errorf("DecodeBody allocated %d bytes for a %d-byte body", n, len(short))
	}
	want := json.NewDecoder(strings.NewReader(short)).Decode(new(BufferRequest))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad request body: "+want.Error()) {
		t.Errorf("DecodeBody answered %d %s, want 400 with %q", rec.Code, rec.Body, want)
	}

	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(declared))
		_, _ = io.WriteString(w, short)
	}))
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	var err error
	if n := allocated(func() { _, err = c.ReadBuffer("s", "x") }); n > 16<<20 {
		t.Errorf("the client allocated %d bytes for a %d-byte body", n, len(short))
	}
	if err == nil {
		t.Error("the client read a short body without an error")
	}

	for _, size := range []int{0, 1, 100, 64 << 10, 64<<10 + 1, 300 << 10} {
		body := bytes.Repeat([]byte("A"), size)
		for _, n := range []int64{-1, int64(size)} {
			got, err := readBody(bytes.NewReader(body), n)
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("a %d-byte body declaring %d read %d bytes (%v)", size, n, len(got), err)
			}
		}
	}
}

// BenchmarkJSONLaunchBody times one 16,384-float read-back's JSON body
// both ways: written from its slab and decoded by the client's path, and
// through encoding/json.
func BenchmarkJSONLaunchBody(b *testing.B) {
	rb := rawBuf{name: "y", kind: 'f', elems: 1 << 14, raw: make([]byte, 4<<14)}
	rand.New(rand.NewSource(1)).Read(rb.raw)
	r := &launchResult{rung: "managed", engine: "bytecode", fallback: &FallbackDelta{Managed: 1},
		decision: &DecisionInfo{CPUCores: 4, GPUFrac: 0.5, Sched: "alg1"}, bufs: []rawBuf{rb}}
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(r.response())
	body := buf.Bytes()
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		w := httptest.NewRecorder()
		for range b.N {
			w.Body.Reset()
			r.writeJSON(w)
			var out LaunchResponse
			if err := decodeJSON(body, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			buf.Reset()
			_ = json.NewEncoder(&buf).Encode(r.response())
			var out LaunchResponse
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
