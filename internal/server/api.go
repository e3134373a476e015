package server

// The HTTP/JSON wire types of the dopia-serve API. Three endpoints carry
// the whole protocol:
//
//	POST /v1/programs                       compile OpenCL C source (deduped)
//	POST /v1/sessions                       create a tenant session
//	POST /v1/launch                         enqueue one ND-range launch
//
// plus per-session buffer management and the observability surface
// (/healthz, /metrics). Bulk buffer data travels as base64-encoded
// little-endian raw element bytes (f32_b64 / i32_b64) — an order of
// magnitude denser than JSON number arrays and bit-exact by
// construction, which is what lets dopia-load verify responses against
// direct in-process execution.

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"sync"

	"dopia/internal/core"
	"dopia/internal/faults"
)

// ProgramRequest registers OpenCL C source with the daemon.
type ProgramRequest struct {
	Source string `json:"source"`
}

// ProgramResponse identifies the compiled program. Identical sources
// yield the identical program ID (and share one compiled form across
// every tenant, process-wide).
type ProgramResponse struct {
	ProgramID string   `json:"program_id"`
	Kernels   []string `json:"kernels"`
	// Cached reports that this source had been compiled before.
	Cached bool `json:"cached"`
}

// SessionRequest optionally names the session to create. A plain
// client leaves it empty and lets the node assign s-<n>; the cluster
// router names sessions explicitly so primary and replica nodes agree
// on one global ID.
type SessionRequest struct {
	SessionID string `json:"session_id,omitempty"`
}

// SessionResponse identifies a newly created tenant session.
type SessionResponse struct {
	SessionID string `json:"session_id"`
}

// IdemEntry is one completed launch in a session's idempotency cache:
// the key it was applied under and the response it produced. Exported
// with the session so a migrated session still deduplicates retries of
// launches it already applied.
type IdemEntry struct {
	Key  string          `json:"key"`
	Resp *LaunchResponse `json:"resp"`
	// Read names Resp.Buffers in the order the launch requested them (a
	// JSON object carries none), so a replay over the binary protocol on
	// the importing node streams them as the original did. An export
	// without it is replayed in name order.
	Read []string `json:"read,omitempty"`
}

// SessionExport is a full session snapshot — the unit of replication
// and migration. Everything a successor node needs to continue serving
// the session bit-identically: named buffer contents, the tenant's
// launch count, and the idempotency entries that make retried launches
// apply exactly once.
type SessionExport struct {
	SessionID string                `json:"session_id"`
	Launches  int64                 `json:"launches"`
	Buffers   map[string]BufferData `json:"buffers"`
	Idem      []IdemEntry           `json:"idem,omitempty"`
}

// BufferRequest creates a named buffer inside a session. Exactly one
// content source may be given: fill_seed (deterministic server-side
// fill — the cheap way to materialize big inputs), f32_b64/i32_b64
// (base64 raw bytes), f32/i32 (small inline arrays), or none (zeroed).
type BufferRequest struct {
	Name string `json:"name"`
	// Kind is "float32" or "int32".
	Kind string `json:"kind"`
	// Len is the element count (required unless inferred from data).
	Len int `json:"len,omitempty"`
	// FillSeed fills the buffer server-side with the deterministic
	// workload generator (workloads.FillFloats / FillInts), so client
	// and server can agree on content without shipping it.
	FillSeed *uint32 `json:"fill_seed,omitempty"`
	// FillMod bounds int fills to [0, fill_mod) (int32 buffers only).
	FillMod int32 `json:"fill_mod,omitempty"`

	F32B64 string    `json:"f32_b64,omitempty"`
	I32B64 string    `json:"i32_b64,omitempty"`
	F32    []float32 `json:"f32,omitempty"`
	I32    []int32   `json:"i32,omitempty"`
}

// BufferData is buffer content on the wire (base64 little-endian).
type BufferData struct {
	Kind   string `json:"kind"`
	Len    int    `json:"len"`
	F32B64 string `json:"f32_b64,omitempty"`
	I32B64 string `json:"i32_b64,omitempty"`
}

// LaunchArg is one kernel argument: a named session buffer, an integer
// scalar, or a float scalar.
type LaunchArg struct {
	Buf   string   `json:"buf,omitempty"`
	Int   *int64   `json:"int,omitempty"`
	Float *float64 `json:"float,omitempty"`
}

// LaunchRequest enqueues one ND-range kernel launch.
type LaunchRequest struct {
	SessionID string      `json:"session_id"`
	ProgramID string      `json:"program_id"`
	Kernel    string      `json:"kernel"`
	Args      []LaunchArg `json:"args"`
	// Global/Local give the index space per dimension (1-3 dims).
	Global []int `json:"global"`
	Local  []int `json:"local"`
	// Read lists session buffers whose post-launch content the response
	// should carry.
	Read []string `json:"read,omitempty"`
	// DeadlineMS bounds queue wait + execution (0 = server default).
	// The deadline clock starts at admission.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// IdemKey makes the launch idempotent per session: a retry carrying
	// the key of an already-applied launch returns the stored response
	// instead of executing again. The cluster router stamps every
	// launch so failover retries apply exactly once.
	IdemKey string `json:"idem_key,omitempty"`
}

// DecisionInfo reports Dopia's DoP selection for a launch.
type DecisionInfo struct {
	CPUCores       int     `json:"cpu_cores"`
	GPUFrac        float64 `json:"gpu_frac"`
	Predicted      float64 `json:"predicted,omitempty"`
	Evaluated      int     `json:"evaluated"`
	ModelDiscarded bool    `json:"model_discarded,omitempty"`
	InferUS        float64 `json:"infer_us"`
	// Learned marks a launch the online learner answered with the
	// oracle argmax of a signature its session launched before.
	Learned bool `json:"learned,omitempty"`
	// Explored marks a launch whose DoP was chosen by the online
	// exploration policy instead of the model's or the learner's answer.
	Explored bool `json:"explored,omitempty"`
	// Sched names the co-execution scheduling policy that drove the
	// launch ("alg1", "static", "dynamic", or "hguided").
	Sched string `json:"sched,omitempty"`
}

// ModelsResponse is the /v1/models introspection payload: the static
// model the daemon booted with plus, when the online learner is
// enabled, its full per-tenant status.
type ModelsResponse struct {
	StaticModel string              `json:"static_model,omitempty"`
	Online      bool                `json:"online"`
	Learner     *core.LearnerStatus `json:"learner,omitempty"`
}

// ResultInfo reports the simulated co-execution outcome.
type ResultInfo struct {
	SimTimeSec float64 `json:"sim_time_sec"`
	WGsCPU     int     `json:"wgs_cpu"`
	WGsGPU     int     `json:"wgs_gpu"`
	GPUChunks  int     `json:"gpu_chunks"`
}

// FallbackDelta is the per-request slice of the fail-open ladder
// accounting: how this launch moved the session's FallbackStats.
type FallbackDelta struct {
	Managed       int64 `json:"managed"`
	CoExecAll     int64 `json:"coexec_all"`
	Plain         int64 `json:"plain"`
	ModelDiscards int64 `json:"model_discards,omitempty"`
	Panics        int64 `json:"panics,omitempty"`
	Timeouts      int64 `json:"timeouts,omitempty"`
}

// LaunchResponse is the outcome of one launch.
type LaunchResponse struct {
	// Rung is the fallback-ladder rung that served the launch:
	// "managed", "coexec-all", or "plain".
	Rung string `json:"rung"`
	// Engine is the interpreter engine of the CPU-side execution.
	Engine   string                `json:"engine,omitempty"`
	Decision *DecisionInfo         `json:"decision,omitempty"`
	Result   *ResultInfo           `json:"result,omitempty"`
	Fallback *FallbackDelta        `json:"fallback,omitempty"`
	Buffers  map[string]BufferData `json:"buffers,omitempty"`
	// QueueMS/ExecMS are wall-clock admission-queue wait and execution
	// time of this request.
	QueueMS float64 `json:"queue_ms"`
	ExecMS  float64 `json:"exec_ms"`
	// Replayed marks a response served from the idempotency cache: the
	// launch had already been applied under this idem_key and was not
	// re-executed.
	Replayed bool `json:"replayed,omitempty"`
	// Coalesced is always false: every launch executes or replays its own
	// idempotency key. The field stays so the wire format is unchanged
	// for clients that still read it.
	Coalesced bool `json:"coalesced,omitempty"`
}

// ErrorResponse carries a request failure. RetryAfterMS is set on 429
// (admission queue full) responses, mirroring the Retry-After header.
type ErrorResponse struct {
	Error        string `json:"error"`
	Stage        string `json:"stage,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// ReadyResponse is the /readyz body.
type ReadyResponse struct {
	Ready  bool   `json:"ready"`
	Status string `json:"status"` // "ready", "not-ready", or "draining"
}

// HealthResponse is the /healthz body. /healthz is liveness only — it
// answers 200 even while draining; readiness lives at /readyz.
type HealthResponse struct {
	Status        string  `json:"status"` // "ok", "draining", or "not-ready"
	Ready         bool    `json:"ready"`
	UptimeSec     float64 `json:"uptime_sec"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	InFlight      int     `json:"in_flight"`
	Sessions      int     `json:"sessions"`
	Launches      int64   `json:"launches_total"`
}

// stageOf renders the failure stage of an error for ErrorResponse.
func stageOf(err error) string {
	if err == nil {
		return ""
	}
	return string(faults.StageOf(err))
}

// ---------- the JSON codec: wire structs <-> launch / launchResult ----------

// launchFromRequest decodes a JSON launch into the internal value.
func launchFromRequest(req *LaunchRequest) (*launch, error) {
	nd, err := ndFrom(req.Global, req.Local)
	if err != nil {
		return nil, err
	}
	l := &launch{
		sessionID: req.SessionID, programID: req.ProgramID, kernel: req.Kernel,
		nd: nd, read: req.Read, idemKey: req.IdemKey, deadlineMS: req.DeadlineMS,
		args: make([]launchArg, len(req.Args)),
	}
	for i, a := range req.Args {
		switch {
		case a.Buf != "":
			l.args[i] = launchArg{kind: 'b', buf: a.Buf}
		case a.Int != nil:
			l.args[i] = launchArg{kind: 'i', i: *a.Int}
		case a.Float != nil:
			l.args[i] = launchArg{kind: 'f', f: *a.Float}
		}
	}
	return l, nil
}

// small is the JSON response of a result without its buffers.
func (r *launchResult) small() *LaunchResponse {
	return &LaunchResponse{
		Rung: r.rung, Engine: r.engine,
		Decision: r.decision, Result: r.sim, Fallback: r.fallback,
		QueueMS: r.queueMS, ExecMS: r.execMS,
		Replayed: r.replayed,
	}
}

// writeJSON answers 200 with the result's JSON launch response, base64
// encoded from the read-set slabs as it is written. It runs after the
// session lock is released.
func (r *launchResult) writeJSON(w http.ResponseWriter) {
	bufs := make([]*rawBuf, len(r.bufs))
	for i := range r.bufs {
		bufs[i] = &r.bufs[i]
	}
	writeLaunch(w, r.small(), bufs)
}

// response is the result as a wire struct, for an export: writeJSON
// writes the same bytes json.NewEncoder(w).Encode(response()) would.
func (r *launchResult) response() *LaunchResponse {
	resp := r.small()
	if len(r.bufs) > 0 {
		resp.Buffers = make(map[string]BufferData, len(r.bufs))
		for i := range r.bufs {
			resp.Buffers[r.bufs[i].name] = r.bufs[i].data()
		}
	}
	return resp
}

// resultFromResponse reverses response for an imported idempotency
// entry. order names the read-set in request order; without it (an
// export that predates the field) the read-set comes back in name order.
func resultFromResponse(resp *LaunchResponse, order []string) (launchResult, error) {
	r := launchResult{
		rung: resp.Rung, engine: resp.Engine,
		decision: resp.Decision, sim: resp.Result, fallback: resp.Fallback,
		queueMS: resp.QueueMS, execMS: resp.ExecMS,
		replayed: resp.Replayed,
	}
	if len(order) == 0 {
		for name := range resp.Buffers {
			order = append(order, name)
		}
		sort.Strings(order)
	} else if len(order) != len(resp.Buffers) {
		return launchResult{}, fmt.Errorf("read order names %d buffers, response carries %d", len(order), len(resp.Buffers))
	}
	for i, name := range order {
		bd, ok := resp.Buffers[name]
		if !ok || slices.Contains(order[:i], name) {
			return launchResult{}, fmt.Errorf("read order names %q, which the response does not carry exactly once", name)
		}
		rb, err := rawFromData(name, bd)
		if err != nil {
			return launchResult{}, err
		}
		r.bufs = append(r.bufs, rb)
	}
	return r, nil
}

// data encodes a snapshot as wire buffer content.
func (rb *rawBuf) data() BufferData {
	b64 := base64.StdEncoding.EncodeToString(rb.raw)
	if rb.kind == 'f' {
		return BufferData{Kind: "float32", Len: rb.elems, F32B64: b64}
	}
	return BufferData{Kind: "int32", Len: rb.elems, I32B64: b64}
}

// rawFromData decodes wire buffer content into an owned snapshot.
func rawFromData(name string, bd BufferData) (rawBuf, error) {
	rb := rawBuf{name: name, kind: 'f', elems: bd.Len}
	what, b64 := "f32", bd.F32B64
	if bd.Kind != "float32" {
		rb.kind, what, b64 = 'i', "i32", bd.I32B64
	}
	err := decodeInto(what, b64, bd.Len, func(raw []byte) { rb.raw = append([]byte(nil), raw...) })
	return rb, err
}

// scratchPool recycles the raw byte staging area the base64 codecs need
// between the element slices and the encoded text. A pooled slab turns
// each Encode/Decode from two allocations (raw bytes + result) into at
// most one (the result the caller keeps), and the *Into variants into
// zero.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// getScratch leases a byte slab of at least n bytes. Callers must hand
// the pointer back via putScratch.
func getScratch(n int) (*[]byte, []byte) {
	p := scratchPool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	return p, (*p)[:n]
}

func putScratch(p *[]byte) { scratchPool.Put(p) }

// F32ToLE serializes float32 elements into dst as little-endian raw
// bytes, preserving exact bit patterns. dst must hold 4*len(xs) bytes.
func F32ToLE(dst []byte, xs []float32) {
	for i, x := range xs {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(x))
	}
}

// LEToF32 reverses F32ToLE into dst; raw must be 4*len(dst) bytes.
func LEToF32(dst []float32, raw []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
}

// I32ToLE serializes int32 elements into dst as little-endian raw bytes.
func I32ToLE(dst []byte, xs []int32) {
	for i, x := range xs {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(x))
	}
}

// LEToI32 reverses I32ToLE into dst; raw must be 4*len(dst) bytes.
func LEToI32(dst []int32, raw []byte) {
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
}

// EncodeF32 encodes float32 elements as base64 little-endian bytes,
// preserving exact bit patterns.
func EncodeF32(xs []float32) string {
	p, raw := getScratch(4 * len(xs))
	defer putScratch(p)
	F32ToLE(raw, xs)
	return base64.StdEncoding.EncodeToString(raw)
}

// b64Elems reports how many 4-byte elements the base64 text s decodes
// to, or an error when the decoded byte count cannot be a whole number
// of elements. Exact for standard (padded) base64.
func b64Elems(s string) (int, error) {
	n := base64.StdEncoding.DecodedLen(len(s))
	if len(s) >= 1 && s[len(s)-1] == '=' {
		n--
		if len(s) >= 2 && s[len(s)-2] == '=' {
			n--
		}
	}
	if n%4 != 0 {
		return 0, fmt.Errorf("server: payload of %d bytes is not a multiple of 4", n)
	}
	return n / 4, nil
}

// decodeB64 decodes s into a leased scratch slab without allocating,
// returning the pool token, the decoded bytes, and any error (token
// already returned to the pool on error).
func decodeB64(s string) (*[]byte, []byte, error) {
	// base64.Decode wants a byte source; stage the string through the
	// scratch slab so neither the source copy nor the output allocate.
	p, buf := getScratch(len(s) + base64.StdEncoding.DecodedLen(len(s)))
	src := buf[:len(s)]
	copy(src, s)
	n, err := base64.StdEncoding.Decode(buf[len(s):], src)
	if err != nil {
		putScratch(p)
		return nil, nil, err
	}
	return p, buf[len(s) : len(s)+n], nil
}

// decodeInto decodes base64 little-endian data of n 4-byte elements and
// hands the raw bytes to fromLE. No allocation on the happy path.
func decodeInto(what, s string, n int, fromLE func(raw []byte)) error {
	p, raw, err := decodeB64(s)
	if err != nil {
		return fmt.Errorf("server: bad %s base64: %w", what, err)
	}
	defer putScratch(p)
	if len(raw) != 4*n {
		return fmt.Errorf("server: %s payload is %d bytes, want %d", what, len(raw), 4*n)
	}
	fromLE(raw)
	return nil
}

// DecodeF32Into decodes base64 little-endian float32 data into dst,
// which must already have the exact decoded element count (see
// b64Elems).
func DecodeF32Into(dst []float32, s string) error {
	return decodeInto("f32", s, len(dst), func(raw []byte) { LEToF32(dst, raw) })
}

// DecodeF32 reverses EncodeF32.
func DecodeF32(s string) ([]float32, error) {
	n, err := b64Elems(s)
	if err != nil {
		return nil, fmt.Errorf("server: bad f32 base64: %w", err)
	}
	out := make([]float32, n)
	if err := DecodeF32Into(out, s); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeI32 encodes int32 elements as base64 little-endian bytes.
func EncodeI32(xs []int32) string {
	p, raw := getScratch(4 * len(xs))
	defer putScratch(p)
	I32ToLE(raw, xs)
	return base64.StdEncoding.EncodeToString(raw)
}

// DecodeI32Into is DecodeF32Into for int32 data.
func DecodeI32Into(dst []int32, s string) error {
	return decodeInto("i32", s, len(dst), func(raw []byte) { LEToI32(dst, raw) })
}

// DecodeI32 reverses EncodeI32.
func DecodeI32(s string) ([]int32, error) {
	n, err := b64Elems(s)
	if err != nil {
		return nil, fmt.Errorf("server: bad i32 base64: %w", err)
	}
	out := make([]int32, n)
	if err := DecodeI32Into(out, s); err != nil {
		return nil, err
	}
	return out, nil
}
