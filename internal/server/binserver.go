package server

// The server side of the binary protocol, and the mixed listener that
// lets it share one TCP port with HTTP/JSON.
//
// MixedServer sniffs the first byte of every accepted connection:
// binMagic selects the binary handler, anything else is replayed (via
// prefixConn) into an in-process net.Listener that feeds a standard
// http.Server. HTTP clients see an unmodified daemon; binary clients
// skip HTTP framing, JSON, and base64 entirely.
//
// A binary connection is strictly sequential (one request, one
// response), which is what makes aggressive reuse safe: the frame
// payload slab, the response build buffer and the launch value with its
// argument and read-list backing arrays all live on the connection and
// are recycled every request.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"dopia/internal/ocl"
	"dopia/internal/workloads"
)

// MixedServer serves HTTP/JSON and the binary protocol on one listener.
type MixedServer struct {
	s    *Server
	http *http.Server
	pl   *pipeListener

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{} // live binary connections
	closed bool
	wg     sync.WaitGroup // accept loop + binary connection handlers
}

// NewMixedServer wraps s for protocol-sniffed serving.
func NewMixedServer(s *Server) *MixedServer {
	return &MixedServer{
		s:     s,
		http:  &http.Server{Handler: s.Handler()},
		conns: map[net.Conn]struct{}{},
	}
}

// HTTPServer exposes the embedded http.Server (timeouts, error logs).
func (m *MixedServer) HTTPServer() *http.Server { return m.http }

// Serve accepts on ln, dispatching each connection by its first byte.
// It returns after Shutdown closes the listener.
func (m *MixedServer) Serve(ln net.Listener) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return net.ErrClosed
	}
	m.ln = ln
	m.pl = newPipeListener(ln.Addr())
	m.mu.Unlock()

	httpDone := make(chan error, 1)
	go func() { httpDone <- m.http.Serve(m.pl) }()

	for {
		conn, err := ln.Accept()
		if err != nil {
			m.mu.Lock()
			closed := m.closed
			m.mu.Unlock()
			m.pl.Close()
			<-httpDone
			if closed {
				return http.ErrServerClosed
			}
			return err
		}
		m.wg.Add(1)
		go m.sniff(conn)
	}
}

// sniff reads the first byte of a fresh connection and routes it.
func (m *MixedServer) sniff(conn net.Conn) {
	defer m.wg.Done()
	var first [1]byte
	if _, err := io.ReadFull(conn, first[:]); err != nil {
		conn.Close()
		return
	}
	pc := &prefixConn{Conn: conn, pfx: first[:]}
	if first[0] != binMagic {
		// HTTP: hand the replayed connection to the embedded server.
		if !m.pl.deliver(pc) {
			conn.Close()
		}
		return
	}
	if !m.track(pc) {
		conn.Close()
		return
	}
	defer m.untrack(pc)
	m.s.serveBinaryConn(pc)
}

func (m *MixedServer) track(c net.Conn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.conns[c] = struct{}{}
	return true
}

func (m *MixedServer) untrack(c net.Conn) {
	m.mu.Lock()
	delete(m.conns, c)
	m.mu.Unlock()
}

// Shutdown stops accepting, shuts the HTTP side down gracefully, and
// waits for in-flight binary connections until ctx expires (then closes
// them). Callers typically drain the Server itself first.
func (m *MixedServer) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	ln := m.ln
	m.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	httpErr := m.http.Shutdown(ctx)

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		m.mu.Lock()
		for c := range m.conns {
			c.Close()
		}
		m.mu.Unlock()
		<-done
	}
	return httpErr
}

// prefixConn replays already-sniffed bytes before reading from the
// underlying connection.
type prefixConn struct {
	net.Conn
	pfx []byte
}

func (c *prefixConn) Read(p []byte) (int, error) {
	if len(c.pfx) > 0 {
		n := copy(p, c.pfx)
		c.pfx = c.pfx[n:]
		return n, nil
	}
	return c.Conn.Read(p)
}

// pipeListener is an in-process net.Listener fed by the sniffer; the
// embedded http.Server accepts from it exactly as it would from a TCP
// listener.
type pipeListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
	addr net.Addr
}

func newPipeListener(addr net.Addr) *pipeListener {
	return &pipeListener{ch: make(chan net.Conn), done: make(chan struct{}), addr: addr}
}

// deliver hands a sniffed connection to Accept, failing once closed.
func (p *pipeListener) deliver(c net.Conn) bool {
	select {
	case p.ch <- c:
		return true
	case <-p.done:
		return false
	}
}

func (p *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-p.ch:
		return c, nil
	case <-p.done:
		return nil, net.ErrClosed
	}
}

func (p *pipeListener) Close() error {
	p.once.Do(func() { close(p.done) })
	return nil
}

func (p *pipeListener) Addr() net.Addr { return p.addr }

// ---------- binary connection handler ----------

// binConn is the per-connection state of one binary client: buffered,
// byte-counted I/O plus every reusable slab the hot path needs.
type binConn struct {
	s  *Server
	br *bufio.Reader
	bw *bufio.Writer

	payload []byte // request frame payload slab
	out     []byte // response payload build buffer (metadata only)

	// intern maps wire names (sessions, programs, kernels, buffers) to
	// stable strings so repeated launches never re-allocate them.
	intern map[string]string

	// l is the one launch value every request on this connection decodes
	// into; safe because requests are strictly sequential.
	l launch
}

// maxInternEntries bounds the per-connection intern table; a client
// cycling through unbounded name sets falls back to per-request
// allocation instead of growing the map forever.
const maxInternEntries = 4096

func (bc *binConn) internB(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := bc.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(bc.intern) < maxInternEntries {
		bc.intern[s] = s
	}
	return s
}

// maxFrame bounds a single frame payload: the largest legal payload is
// a raw buffer create (MaxBufferBytes) or a program compile
// (MaxSourceBytes), plus framing slack.
func (s *Server) maxFrame() int64 {
	n := s.cfg.MaxBufferBytes
	if s.cfg.MaxSourceBytes > n {
		n = s.cfg.MaxSourceBytes
	}
	return n + (64 << 10)
}

// serveBinaryConn handles one sniffed binary connection until EOF or a
// protocol error. conn's first byte (binMagic) is still unread in the
// prefix, so the byte counters see the full stream.
func (s *Server) serveBinaryConn(conn net.Conn) {
	defer conn.Close()
	bc := &binConn{
		s:      s,
		br:     bufio.NewReaderSize(countingReader{conn, &s.met.bytesIn}, 64<<10),
		bw:     bufio.NewWriterSize(countingWriter{conn, &s.met.bytesOut}, 64<<10),
		intern: map[string]string{},
	}

	// Hello: [binMagic]['d']['p'][version].
	var hello [binHelloLen]byte
	if _, err := io.ReadFull(bc.br, hello[:]); err != nil {
		return
	}
	if hello[0] != binMagic || hello[1] != 'd' || hello[2] != 'p' {
		return
	}
	if hello[3] != binVersion {
		_ = bc.writeErr(http.StatusHTTPVersionNotSupported,
			fmt.Errorf("binary protocol version %d not supported (want %d)", hello[3], binVersion))
		_ = bc.bw.Flush()
		return
	}
	if _, err := bc.bw.Write([]byte{binMagic, binVersion}); err != nil {
		return
	}
	if err := bc.bw.Flush(); err != nil {
		return
	}

	maxFrame := s.maxFrame()
	for {
		op, n, err := readFrameHeader(bc.br, maxFrame)
		if err != nil {
			return // EOF is the normal close
		}
		if cap(bc.payload) < n {
			bc.payload = make([]byte, n)
		}
		p := bc.payload[:n]
		if _, err := io.ReadFull(bc.br, p); err != nil {
			return
		}
		if err := bc.dispatch(op, p); err != nil {
			return
		}
		if err := bc.bw.Flush(); err != nil {
			return
		}
	}
}

// dispatch routes one decoded frame. A returned error tears the
// connection down (protocol-level corruption); request-level failures
// become opError frames and keep the connection alive.
func (bc *binConn) dispatch(op byte, p []byte) error {
	switch op {
	case opCompile:
		return bc.opCompile(p)
	case opNewSession:
		return bc.opNewSession(p)
	case opCloseSession:
		return bc.opCloseSession(p)
	case opCreateBuffer:
		return bc.opCreateBuffer(p)
	case opReadBuffer:
		return bc.opReadBuffer(p)
	case opLaunch:
		return bc.opLaunch(p)
	default:
		return fmt.Errorf("binproto: unknown op 0x%02x", op)
	}
}

func (bc *binConn) writeFrame(op byte, payload []byte) error {
	if err := writeFrameHeader(bc.bw, op, len(payload)); err != nil {
		return err
	}
	_, err := bc.bw.Write(payload)
	return err
}

func (bc *binConn) writeErr(status int, err error) error {
	b := bc.out[:0]
	b = appendU16(b, uint16(status))
	b = appendStr(b, err.Error())
	b = appendStr(b, stageOf(err))
	retry := uint32(0)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		retry = 1000
	}
	b = appendU32(b, retry)
	bc.out = b
	return bc.writeFrame(opError, b)
}

var errTruncated = errors.New("binproto: malformed frame payload")

func (bc *binConn) opCompile(p []byte) error {
	cur := wireCursor{b: p}
	source := cur.str()
	if !cur.done() {
		bc.s.met.badRequests.Add(1)
		return bc.writeErr(http.StatusBadRequest, errTruncated)
	}
	prog, cached, status, err := bc.s.registerProgram(source)
	if err != nil {
		return bc.writeErr(status, err)
	}
	b := bc.out[:0]
	b = appendStr(b, prog.id)
	b = appendU32(b, uint32(len(prog.kernels)))
	for _, k := range prog.kernels {
		b = appendStr(b, k)
	}
	var c byte
	if cached {
		c = 1
	}
	b = append(b, c)
	bc.out = b
	return bc.writeFrame(opCompile|binOKBit, b)
}

func (bc *binConn) opNewSession(p []byte) error {
	cur := wireCursor{b: p}
	want := cur.str()
	if !cur.done() {
		bc.s.met.badRequests.Add(1)
		return bc.writeErr(http.StatusBadRequest, errTruncated)
	}
	id, status, err := bc.s.createSession(want)
	if err != nil {
		return bc.writeErr(status, err)
	}
	b := appendStr(bc.out[:0], id)
	bc.out = b
	return bc.writeFrame(opNewSession|binOKBit, b)
}

func (bc *binConn) opCloseSession(p []byte) error {
	cur := wireCursor{b: p}
	id := bc.internB(cur.strBytes())
	if !cur.done() {
		bc.s.met.badRequests.Add(1)
		return bc.writeErr(http.StatusBadRequest, errTruncated)
	}
	if status, err := bc.s.closeSession(id); err != nil {
		return bc.writeErr(status, err)
	}
	return bc.writeFrame(opCloseSession|binOKBit, nil)
}

func (bc *binConn) opCreateBuffer(p []byte) error {
	cur := wireCursor{b: p}
	sid := bc.internB(cur.strBytes())
	name := bc.internB(cur.strBytes())
	kind := cur.u8()
	elems := int(cur.u32())
	content := cur.u8()
	var seed uint32
	var mod int32
	var raw []byte
	switch content {
	case binContentFill:
		seed = cur.u32()
		mod = int32(cur.u32())
	case binContentRaw:
		raw = cur.take(cur.rest())
	}
	if !cur.done() {
		bc.s.met.badRequests.Add(1)
		return bc.writeErr(http.StatusBadRequest, errTruncated)
	}
	sess, ok := bc.s.session(sid)
	if !ok {
		return bc.writeErr(http.StatusNotFound, fmt.Errorf("no session %q", sid))
	}
	sess.mu.Lock()
	b, err := sess.newBuffer(name, kind, elems, bc.s.cfg.MaxBufferBytes, func(b *ocl.Buffer) error {
		switch {
		case content == binContentZero:
		case content == binContentFill && kind == 'f':
			workloads.FillFloats(b.Raw(), seed)
		case content == binContentFill:
			workloads.FillInts(b.Raw(), seed, mod)
		case content != binContentRaw:
			return fmt.Errorf("buffer %q: unknown content tag %d", name, content)
		case len(raw) != 4*elems:
			return fmt.Errorf("buffer %q: raw payload is %d bytes, want %d", name, len(raw), 4*elems)
		case kind == 'f':
			LEToF32(b.Float32(), raw)
		default:
			LEToI32(b.Int32(), raw)
		}
		return nil
	})
	sess.mu.Unlock()
	if err != nil {
		bc.s.met.badRequests.Add(1)
		return bc.writeErr(http.StatusBadRequest, err)
	}
	out := appendU32(bc.out[:0], uint32(b.Len()))
	bc.out = out
	return bc.writeFrame(opCreateBuffer|binOKBit, out)
}

func (bc *binConn) opReadBuffer(p []byte) error {
	cur := wireCursor{b: p}
	sid := bc.internB(cur.strBytes())
	name := bc.internB(cur.strBytes())
	if !cur.done() {
		bc.s.met.badRequests.Add(1)
		return bc.writeErr(http.StatusBadRequest, errTruncated)
	}
	sess, ok := bc.s.session(sid)
	if !ok {
		return bc.writeErr(http.StatusNotFound, fmt.Errorf("no session %q", sid))
	}

	rb, err := sess.snapshot(name)
	if err != nil {
		return bc.writeErr(http.StatusNotFound, err)
	}
	defer rb.release()

	if err := writeFrameHeader(bc.bw, opReadBuffer|binOKBit, 1+4+len(rb.raw)); err != nil {
		return err
	}
	return bc.writeRaw(&rb)
}

// writeRaw streams one snapshot straight from its slab: kind, element
// count, little-endian content.
func (bc *binConn) writeRaw(rb *rawBuf) error {
	var hdr [5]byte
	hdr[0] = rb.kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(rb.elems))
	if _, err := bc.bw.Write(hdr[:]); err != nil {
		return err
	}
	_, err := bc.bw.Write(rb.raw)
	return err
}

// opLaunch is the binary codec around submit: decode the frame into the
// connection's reused launch, stream the result straight from its
// read-set slabs.
func (bc *binConn) opLaunch(p []byte) error {
	s := bc.s
	decodeStart := time.Now()
	l := &bc.l
	*l = launch{args: l.args[:0], read: l.read[:0], done: l.done}
	cur := wireCursor{b: p}
	l.sessionID = bc.internB(cur.strBytes())
	l.programID = bc.internB(cur.strBytes())
	l.kernel = bc.internB(cur.strBytes())
	// Idempotency keys are unique per logical launch; interning them
	// would grow the table without ever hitting.
	l.idemKey = string(cur.strBytes())
	l.deadlineMS = int64(cur.u32())
	dims := int(cur.u8())
	if dims < 1 || dims > 3 {
		cur.fail()
	}
	var global, local [3]int
	for i := 0; i < dims && cur.err == nil; i++ {
		global[i] = int(cur.u32())
	}
	for i := 0; i < dims && cur.err == nil; i++ {
		local[i] = int(cur.u32())
	}
	nargs := int(cur.u16())
	if nargs > 1024 {
		cur.fail()
	}
	for i := 0; i < nargs && cur.err == nil; i++ {
		switch kind := cur.u8(); kind {
		case 'b':
			l.args = append(l.args, launchArg{kind: kind, buf: bc.internB(cur.strBytes())})
		case 'i':
			l.args = append(l.args, launchArg{kind: kind, i: cur.i64()})
		case 'f':
			l.args = append(l.args, launchArg{kind: kind, f: cur.f64()})
		default:
			cur.fail()
		}
	}
	nread := int(cur.u16())
	if nread > 1024 {
		cur.fail()
	}
	for i := 0; i < nread && cur.err == nil; i++ {
		l.read = append(l.read, bc.internB(cur.strBytes()))
	}
	if !cur.done() {
		s.met.badRequests.Add(1)
		return bc.writeErr(http.StatusBadRequest, errTruncated)
	}
	var err error
	if l.nd, err = ndFrom(global[:dims], local[:dims]); err != nil {
		s.met.badRequests.Add(1)
		return bc.writeErr(http.StatusBadRequest, err)
	}
	s.met.stages.Record(stageDecode, time.Since(decodeStart).Seconds())

	res, status, err := s.submit(l)
	encodeStart := time.Now()
	if err != nil {
		return bc.writeErr(status, err)
	}
	err = bc.writeLaunchResponse(&res)
	res.release()
	if err == nil {
		s.met.stages.Record(stageEncode, time.Since(encodeStart).Seconds())
	}
	return err
}

// writeLaunchResponse streams one opLaunch|OK frame: metadata built in
// the reusable buffer, buffer contents written directly from the pooled
// read-set slabs.
func (bc *binConn) writeLaunchResponse(res *launchResult) error {
	raws := res.bufs
	b := bc.out[:0]
	b = appendStr(b, res.rung)
	b = appendStr(b, res.engine)
	var flags byte
	if res.decision != nil {
		flags |= binFlagDecision
	}
	if res.sim != nil {
		flags |= binFlagResult
	}
	if res.replayed {
		flags |= binFlagReplayed
	}
	b = append(b, flags)
	if d := res.decision; d != nil {
		b = appendU32(b, uint32(d.CPUCores))
		b = appendF64(b, d.GPUFrac)
		b = appendF64(b, d.Predicted)
		b = appendU32(b, uint32(d.Evaluated))
		var disc byte
		if d.ModelDiscarded {
			disc = 1
		}
		b = append(b, disc)
		b = appendF64(b, d.InferUS)
	}
	if r := res.sim; r != nil {
		b = appendF64(b, r.SimTimeSec)
		b = appendU32(b, uint32(r.WGsCPU))
		b = appendU32(b, uint32(r.WGsGPU))
		b = appendU32(b, uint32(r.GPUChunks))
	}
	fb := res.fallback
	if fb == nil {
		fb = &FallbackDelta{}
	}
	b = appendI64(b, fb.Managed)
	b = appendI64(b, fb.CoExecAll)
	b = appendI64(b, fb.Plain)
	b = appendI64(b, fb.ModelDiscards)
	b = appendI64(b, fb.Panics)
	b = appendI64(b, fb.Timeouts)
	b = appendF64(b, res.queueMS)
	b = appendF64(b, res.execMS)
	b = appendU16(b, uint16(len(raws)))
	bc.out = b

	total := len(b)
	for i := range raws {
		total += 4 + len(raws[i].name) + 1 + 4 + len(raws[i].raw)
	}
	if err := writeFrameHeader(bc.bw, opLaunch|binOKBit, total); err != nil {
		return err
	}
	if _, err := bc.bw.Write(b); err != nil {
		return err
	}
	for i := range raws {
		if _, err := bc.bw.Write(appendStr(b[:0], raws[i].name)); err != nil {
			return err
		}
		if err := bc.writeRaw(&raws[i]); err != nil {
			return err
		}
	}
	return nil
}
