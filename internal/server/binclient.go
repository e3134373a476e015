package server

// BinClient is the client side of the binary protocol: one TCP
// connection, strictly sequential request/response frames, raw
// little-endian buffer payloads. It mirrors the reuse discipline of the
// server handler — request frames build in one growable buffer,
// response payloads land in another, and launch results hand out views
// into that buffer (valid until the next call) instead of copies.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// BinClient speaks the binary protocol over one connection. Not safe
// for concurrent use; pool clients for parallel load.
type BinClient struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	out     []byte // request build buffer
	payload []byte // response payload buffer
	intern  map[string]string
	res     BinLaunchResult
	dec     DecisionInfo
	resInfo ResultInfo
}

// BinError is a request failure reported by the server.
type BinError struct {
	Status       int
	Msg          string
	Stage        string
	RetryAfterMS int64
}

func (e *BinError) Error() string {
	if e.Stage != "" {
		return fmt.Sprintf("server error %d (stage %s): %s", e.Status, e.Stage, e.Msg)
	}
	return fmt.Sprintf("server error %d: %s", e.Status, e.Msg)
}

// IsRetryable reports whether the error is admission backpressure (429)
// or draining (503) — conditions a client may retry after a pause.
func (e *BinError) IsRetryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// BinBufView is one read-set buffer of a launch response. Raw (and the
// view itself) is valid only until the next call on the client.
type BinBufView struct {
	Name  string
	Kind  byte // 'f' or 'i'
	Elems int
	Raw   []byte // 4*Elems little-endian bytes
}

// BinLaunchResult is a decoded opLaunch response. Pointer fields and
// buffer views alias client-owned storage reused by the next call.
type BinLaunchResult struct {
	Rung      string
	Engine    string
	Replayed  bool
	Coalesced bool // always false; kept for wire compatibility
	Decision  *DecisionInfo
	Result    *ResultInfo
	Fallback  FallbackDelta
	QueueMS   float64
	ExecMS    float64
	Bufs      []BinBufView
}

// BinLaunch is a launch request on the binary protocol.
type BinLaunch struct {
	SessionID  string
	ProgramID  string
	Kernel     string
	IdemKey    string
	DeadlineMS uint32
	Global     []int // 1..3 dims; len(Local) must match
	Local      []int
	Args       []LaunchArg
	Read       []string
}

// DialBin connects and performs the protocol handshake.
func DialBin(addr string, timeout time.Duration) (*BinClient, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	c := &BinClient{
		conn:   conn,
		br:     bufio.NewReaderSize(conn, 64<<10),
		bw:     bufio.NewWriterSize(conn, 64<<10),
		intern: map[string]string{},
	}
	if err := writeClientHello(c.bw); err != nil {
		conn.Close()
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	// Server hello: [binMagic][version] on accept, an opError frame on
	// version rejection.
	first, err := c.br.ReadByte()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("binproto: handshake: %w", err)
	}
	if first != binMagic {
		if first == opError {
			_ = c.br.UnreadByte()
			_, _, rerr := c.readFrame()
			conn.Close()
			if rerr != nil {
				return nil, rerr
			}
			return nil, fmt.Errorf("binproto: handshake rejected")
		}
		conn.Close()
		return nil, fmt.Errorf("binproto: bad server hello 0x%02x", first)
	}
	ver, err := c.br.ReadByte()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("binproto: handshake: %w", err)
	}
	if ver != binVersion {
		conn.Close()
		return nil, fmt.Errorf("binproto: server speaks version %d, want %d", ver, binVersion)
	}
	return c, nil
}

// Close tears the connection down.
func (c *BinClient) Close() error { return c.conn.Close() }

func (c *BinClient) internB(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := c.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(c.intern) < maxInternEntries {
		c.intern[s] = s
	}
	return s
}

// call sends one frame and reads the response, translating opError into
// *BinError. The returned payload aliases c.payload.
func (c *BinClient) call(op byte, payload []byte) ([]byte, error) {
	if err := writeFrameHeader(c.bw, op, len(payload)); err != nil {
		return nil, err
	}
	if _, err := c.bw.Write(payload); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	rop, p, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	if rop == opError {
		return nil, decodeBinError(p)
	}
	if rop != op|binOKBit {
		return nil, fmt.Errorf("binproto: response op 0x%02x to request 0x%02x", rop, op)
	}
	return p, nil
}

// readFrame reads one frame into the reused payload buffer.
func (c *BinClient) readFrame() (byte, []byte, error) {
	op, n, err := readFrameHeader(c.br, 1<<31-1)
	if err != nil {
		return 0, nil, err
	}
	if cap(c.payload) < n {
		c.payload = make([]byte, n)
	}
	p := c.payload[:n]
	if _, err := io.ReadFull(c.br, p); err != nil {
		return 0, nil, err
	}
	return op, p, nil
}

func decodeBinError(p []byte) error {
	cur := wireCursor{b: p}
	e := &BinError{Status: int(cur.u16()), Msg: cur.str(), Stage: cur.str(), RetryAfterMS: int64(cur.u32())}
	if cur.err != nil {
		return fmt.Errorf("binproto: malformed error frame")
	}
	return e
}

// Compile registers OpenCL C source, returning the program ID, its
// kernels, and whether the source was already compiled.
func (c *BinClient) Compile(source string) (id string, kernels []string, cached bool, err error) {
	p, err := c.call(opCompile, appendStr(c.out[:0], source))
	if err != nil {
		return "", nil, false, err
	}
	cur := wireCursor{b: p}
	id = cur.str()
	n := int(cur.u32())
	if n < 0 || n > 1<<16 {
		return "", nil, false, fmt.Errorf("binproto: malformed compile response")
	}
	kernels = make([]string, 0, n)
	for i := 0; i < n; i++ {
		kernels = append(kernels, cur.str())
	}
	cached = cur.u8() == 1
	if !cur.done() {
		return "", nil, false, fmt.Errorf("binproto: malformed compile response")
	}
	return id, kernels, cached, nil
}

// NewSession creates a session (want == "" lets the server assign).
func (c *BinClient) NewSession(want string) (string, error) {
	p, err := c.call(opNewSession, appendStr(c.out[:0], want))
	if err != nil {
		return "", err
	}
	cur := wireCursor{b: p}
	id := cur.str()
	if !cur.done() {
		return "", fmt.Errorf("binproto: malformed session response")
	}
	return id, nil
}

// CloseSession unpublishes a session.
func (c *BinClient) CloseSession(id string) error {
	_, err := c.call(opCloseSession, appendStr(c.out[:0], id))
	return err
}

// CreateBufferZero allocates a zeroed buffer (kind 'f' or 'i').
func (c *BinClient) CreateBufferZero(sid, name string, kind byte, elems int) error {
	b := c.bufferHeader(sid, name, kind, elems, binContentZero)
	_, err := c.call(opCreateBuffer, b)
	return err
}

// CreateBufferFill allocates a buffer filled server-side by the
// deterministic workload generator (mod applies to 'i' only).
func (c *BinClient) CreateBufferFill(sid, name string, kind byte, elems int, seed uint32, mod int32) error {
	b := c.bufferHeader(sid, name, kind, elems, binContentFill)
	b = appendU32(b, seed)
	b = appendU32(b, uint32(mod))
	c.out = b
	_, err := c.call(opCreateBuffer, b)
	return err
}

// CreateBufferRaw allocates a buffer from raw little-endian element
// bytes (len(raw) must be a multiple of 4).
func (c *BinClient) CreateBufferRaw(sid, name string, kind byte, raw []byte) error {
	if len(raw)%4 != 0 {
		return fmt.Errorf("binproto: raw payload of %d bytes is not a multiple of 4", len(raw))
	}
	b := c.bufferHeader(sid, name, kind, len(raw)/4, binContentRaw)
	b = append(b, raw...)
	c.out = b
	_, err := c.call(opCreateBuffer, b)
	return err
}

func (c *BinClient) bufferHeader(sid, name string, kind byte, elems int, content byte) []byte {
	b := appendStr(c.out[:0], sid)
	b = appendStr(b, name)
	b = append(b, kind)
	b = appendU32(b, uint32(elems))
	b = append(b, content)
	c.out = b
	return b
}

// ReadBuffer fetches a buffer's content. Raw is valid until the next
// call on the client.
func (c *BinClient) ReadBuffer(sid, name string) (kind byte, elems int, raw []byte, err error) {
	b := appendStr(c.out[:0], sid)
	b = appendStr(b, name)
	c.out = b
	p, err := c.call(opReadBuffer, b)
	if err != nil {
		return 0, 0, nil, err
	}
	cur := wireCursor{b: p}
	kind = cur.u8()
	elems = int(cur.u32())
	raw = cur.take(4 * elems)
	if !cur.done() {
		return 0, 0, nil, fmt.Errorf("binproto: malformed read-buffer response")
	}
	return kind, elems, raw, nil
}

// Launch submits one launch. The result (including its buffer views)
// is valid until the next call on the client.
func (c *BinClient) Launch(req *BinLaunch) (*BinLaunchResult, error) {
	if len(req.Global) < 1 || len(req.Global) > 3 || len(req.Local) != len(req.Global) {
		return nil, fmt.Errorf("binproto: global and local must both have 1..3 dimensions")
	}
	b := appendStr(c.out[:0], req.SessionID)
	b = appendStr(b, req.ProgramID)
	b = appendStr(b, req.Kernel)
	b = appendStr(b, req.IdemKey)
	b = appendU32(b, req.DeadlineMS)
	b = append(b, byte(len(req.Global)))
	for _, g := range req.Global {
		b = appendU32(b, uint32(g))
	}
	for _, l := range req.Local {
		b = appendU32(b, uint32(l))
	}
	b = appendU16(b, uint16(len(req.Args)))
	for i := range req.Args {
		a := &req.Args[i]
		switch {
		case a.Buf != "":
			b = append(b, 'b')
			b = appendStr(b, a.Buf)
		case a.Int != nil:
			b = append(b, 'i')
			b = appendI64(b, *a.Int)
		case a.Float != nil:
			b = append(b, 'f')
			b = appendF64(b, *a.Float)
		default:
			return nil, fmt.Errorf("binproto: argument %d: one of buf/int/float required", i)
		}
	}
	b = appendU16(b, uint16(len(req.Read)))
	for _, name := range req.Read {
		b = appendStr(b, name)
	}
	c.out = b

	p, err := c.call(opLaunch, b)
	if err != nil {
		return nil, err
	}
	return c.decodeLaunch(p)
}

func (c *BinClient) decodeLaunch(p []byte) (*BinLaunchResult, error) {
	cur := wireCursor{b: p}
	res := &c.res
	*res = BinLaunchResult{Bufs: res.Bufs[:0]}
	res.Rung = c.internB(cur.strBytes())
	res.Engine = c.internB(cur.strBytes())
	flags := cur.u8()
	res.Replayed = flags&binFlagReplayed != 0
	res.Coalesced = flags&binFlagCoalesced != 0
	if flags&binFlagDecision != 0 {
		d := &c.dec
		d.CPUCores = int(cur.u32())
		d.GPUFrac = cur.f64()
		d.Predicted = cur.f64()
		d.Evaluated = int(cur.u32())
		d.ModelDiscarded = cur.u8() == 1
		d.InferUS = cur.f64()
		res.Decision = d
	}
	if flags&binFlagResult != 0 {
		r := &c.resInfo
		r.SimTimeSec = cur.f64()
		r.WGsCPU = int(cur.u32())
		r.WGsGPU = int(cur.u32())
		r.GPUChunks = int(cur.u32())
		res.Result = r
	}
	res.Fallback.Managed = cur.i64()
	res.Fallback.CoExecAll = cur.i64()
	res.Fallback.Plain = cur.i64()
	res.Fallback.ModelDiscards = cur.i64()
	res.Fallback.Panics = cur.i64()
	res.Fallback.Timeouts = cur.i64()
	res.QueueMS = cur.f64()
	res.ExecMS = cur.f64()
	nbufs := int(cur.u16())
	for i := 0; i < nbufs && cur.err == nil; i++ {
		name := c.internB(cur.strBytes())
		kind := cur.u8()
		elems := int(cur.u32())
		raw := cur.take(4 * elems)
		res.Bufs = append(res.Bufs, BinBufView{Name: name, Kind: kind, Elems: elems, Raw: raw})
	}
	if !cur.done() {
		return nil, fmt.Errorf("binproto: malformed launch response")
	}
	return res, nil
}
