package main

import (
	"context"
	"encoding/base64"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dopia"
	"dopia/internal/analysis"
	"dopia/internal/clc"
	"dopia/internal/interp"
	"dopia/internal/ml"
	"dopia/internal/server"
	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// serveSizing fixes the work of serve_stream.
type servSizing struct {
	n1D, n2D    int     // problem sizes of the 1-D and 2-D kernels
	reps        int     // ops per kernel per connection per pass
	stride      int     // training-slice stride
	passSeconds float64 // one pass's wall time at the seed commit on the 2-core sandbox
}

// The issue's prototype ran every kernel at n=256. The three FDTD
// kernels at 256x256 are then four fifths of the pass and the workload
// measures the interpreter again, which relaunch already does; at
// 128x128 the wire, queue and session work this workload exists for stay
// a visible share, and a pass stays near one second.
var serveSizing = servSizing{n1D: 256, n2D: 128, reps: 16, stride: trainStride, passSeconds: 0.85}

// opKind is how a kernel's launches are kept from ever repeating, so the
// launch memo and the coalescer are bypassed by construction.
type opKind int

const (
	// kindInPlace kernels accumulate into a buffer they also read: the
	// bytes change with every launch.
	kindInPlace opKind = iota
	// kindScalar kernels get a seeded float scalar per op.
	kindScalar
	// kindUpload kernels get a freshly uploaded input vector under a new
	// buffer name per op: the op is upload + launch + read-back.
	kindUpload
)

// serveKernelTable lists the kernels serve_stream launches.
var serveKernelTable = []struct {
	name      string
	kind      opKind
	uploadArg int // kindUpload: the parameter slot of the streamed vector
}{
	{"MVT1", kindInPlace, 0},
	{"MVT2", kindInPlace, 0},
	{"FDTD1", kindInPlace, 0},
	{"FDTD2", kindInPlace, 0},
	{"FDTD3", kindInPlace, 0},
	{"SYR2K", kindInPlace, 0},
	{"GESUMMV", kindScalar, 0},
	{"PageRank", kindScalar, 0},
	{"ATAX1", kindUpload, 1},
	{"SpMV", kindUpload, 3},
}

// serveKernel is one kernel of the serving mix.
type serveKernel struct {
	name      string
	kind      opKind
	uploadArg int
	w         *workloads.Workload
	k         *clc.Kernel
	tmpl      *workloads.Instance // the generator's scalars and geometry
	nd        interp.NDRange
	written   []int // buffer slots read back after every launch
	floats    []int // float scalar parameter slots (kindScalar)
	progID    string
	// refill reports whether the float buffers get per-session content.
	// PageRank keeps its generator's ranks and out-degrees (they must
	// stay positive); its damping scalar differs per op instead.
	refill bool
}

// newServeKernels builds the rows of serveKernelTable that descs holds.
func newServeKernels(descs []workloads.Desc, sz servSizing) ([]*serveKernel, error) {
	byName := map[string]workloads.Desc{}
	for _, d := range descs {
		byName[d.Name] = d
	}
	var out []*serveKernel
	for _, row := range serveKernelTable {
		d, ok := byName[row.name]
		if !ok {
			continue
		}
		n := sz.n1D
		if d.TwoDim {
			n = sz.n2D
		}
		w, err := d.Build(n, wgSize)
		if err != nil {
			return nil, err
		}
		k, err := w.CompileKernel()
		if err != nil {
			return nil, err
		}
		res, err := analysis.Analyze(k)
		if err != nil {
			return nil, err
		}
		inst, err := w.Setup()
		if err != nil {
			return nil, err
		}
		sk := &serveKernel{
			name: row.name, kind: row.kind, uploadArg: row.uploadArg,
			w: w, k: k, tmpl: inst, nd: inst.ND, refill: row.name != "PageRank",
		}
		for _, ai := range writtenArgs(res) {
			if inst.Args[ai].IsBuf {
				sk.written = append(sk.written, ai)
			}
		}
		for i, p := range k.Params {
			if !p.Type.Ptr && p.Type.Kind.IsFloat() {
				sk.floats = append(sk.floats, i)
			}
		}
		out = append(out, sk)
	}
	return out, nil
}

func (sk *serveKernel) bufName(arg int) string { return sk.name + ".b" + strconv.Itoa(arg) }

// vectorLen is the element count of a kindUpload kernel's streamed vector.
func (sk *serveKernel) vectorLen() int { return sk.tmpl.Args[sk.uploadArg].Buf.Len() }

// instance builds the kernel's inputs for one (pass, connection): the
// generator's structure (matrix shapes, CSR graphs) with float contents
// re-drawn from a seed unique to the session, so no two sessions of a
// run ever hold the same bytes.
func (sk *serveKernel) instance(seed int64, pass, conn, ki int) (*workloads.Instance, error) {
	inst, err := sk.w.Setup()
	if err != nil {
		return nil, err
	}
	if sk.refill {
		for i, a := range inst.Args {
			if a.IsBuf && a.Buf.F32 != nil {
				workloads.FillFloats(a.Buf, fillSeed(seed, pass, conn, ki, i))
			}
		}
	}
	return inst, nil
}

// fillSeed mixes its inputs into a nonzero 32-bit fill seed.
func fillSeed(seed int64, parts ...int) uint32 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	for _, p := range parts {
		h ^= uint64(p) + 0x9e3779b97f4a7c15 + h<<6 + h>>2
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	if s := uint32(h ^ h>>32); s != 0 {
		return s
	}
	return 1
}

// opStream draws an op list's per-op values — scalars and upload fill
// seeds — identically for the live run and the reference replay.
type opStream struct{ rng *rand.Rand }

func newOpStream(seed int64, pass, conn int) opStream {
	return opStream{rand.New(rand.NewSource(int64(fillSeed(seed, pass, conn, -1))))}
}

func (s opStream) scalar() float64    { return 0.25 + 0.7*s.rng.Float64() }
func (s opStream) uploadSeed() uint32 { return s.rng.Uint32() | 1 }

// serveConn is one closed-loop caller: one connection, one protocol.
type serveConn struct {
	id     int
	binary bool
	bin    *server.BinClient
	json   *server.Client
	hc     *http.Client
	ops    []int // kernel indices, the connection's fixed op list
}

func (c *serveConn) proto() string {
	if c.binary {
		return "bin"
	}
	return "json"
}

// passLog is what a verified pass keeps for the reference replay: the
// digest of every op's read-back and of every buffer at the end.
type passLog struct {
	ops   []uint64
	final map[string]uint64
}

// serveSample is one op's outcome, collected per connection and merged
// after the pass's barrier.
type serveSample struct {
	class, kernel string
	err           string
	simTime       float64
	cfg           sim.Config
	queueMS       float64
	execMS        float64
	wireMS        float64
	uploadMS      float64
	uploaded      bool
	t0, tUp, t1   time.Time
}

// serveStream: dopiad under closed-loop load where every launch executes.
type serveStream struct {
	seed    int64
	sizing  servSizing
	descs   []workloads.Desc // the kernels to draw from; all fourteen outside the tests
	machine *sim.Machine
	model   ml.Model
	kernels []*serveKernel
	conns   []*serveConn

	srv     *server.Server
	mixed   *server.MixedServer
	served  chan error
	addr    string
	admin   *server.Client
	passes  int // pass() calls so far; seeds per-pass contents
	opID    int
	logs    map[int][]*passLog // verified pass -> per-connection log
	decided map[string]sim.Config
}

// verifiedPasses is how many passes (the warm-up and the first two
// timed) are replayed through the sequential in-process reference.
const verifiedPasses = 3

func newServeStream(seed int64, sz servSizing) *serveStream {
	return &serveStream{seed: seed, sizing: sz, descs: workloads.RealDescs()}
}

func (s *serveStream) setupReps() int       { return 3 }
func (s *serveStream) passSeconds() float64 { return s.sizing.passSeconds }

func (s *serveStream) setup(timed *trainTimes) error {
	s.close() // a repetition starts over, daemon included
	s.machine = dopia.Kaveri()
	slice, err := trainingSlice(s.sizing.stride)
	if err != nil {
		return err
	}
	if s.model, err = trainModel(s.machine, slice, timed); err != nil {
		return err
	}
	if s.kernels, err = newServeKernels(s.descs, s.sizing); err != nil {
		return err
	}
	if s.srv, err = server.New(server.Config{Machine: s.machine, Model: s.model}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = ln.Addr().String()
	s.mixed = server.NewMixedServer(s.srv)
	s.served = make(chan error, 1) // one send, by the goroutine below
	go func(ms *server.MixedServer, done chan<- error) { done <- ms.Serve(ln) }(s.mixed, s.served)

	s.admin = server.NewClient("http://"+s.addr, &http.Client{Transport: &http.Transport{}})
	for _, sk := range s.kernels {
		// A unique header per repetition: every repetition compiles as a
		// fresh daemon would.
		resp, err := s.admin.Compile(uniqueSource(sk.w.Source, s.seed))
		if err != nil {
			return fmt.Errorf("compiling %s: %w", sk.name, err)
		}
		sk.progID = resp.ProgramID
	}

	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	n += n % 2
	s.conns = nil
	for i := 0; i < n; i++ {
		c := &serveConn{id: i, binary: i%2 == 0}
		if c.binary {
			if c.bin, err = server.DialBin(s.addr, 10*time.Second); err != nil {
				return err
			}
		} else {
			c.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
			c.json = server.NewClient("http://"+s.addr, c.hc)
		}
		c.ops = shuffledOps(rand.New(rand.NewSource(int64(fillSeed(s.seed, i)))), len(s.kernels), s.sizing.reps)
		s.conns = append(s.conns, c)
	}
	s.passes = 0
	s.logs = map[int][]*passLog{}
	s.decided = map[string]sim.Config{}
	return nil
}

func (s *serveStream) close() {
	if s.srv == nil {
		return
	}
	for _, c := range s.conns {
		if c.bin != nil {
			_ = c.bin.Close() // the daemon is going away with it
		}
		if c.hc != nil {
			c.hc.CloseIdleConnections()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)   // nothing is in flight between passes
	_ = s.mixed.Shutdown(ctx) // closes the listener; Serve returns
	<-s.served
	s.srv, s.mixed, s.conns = nil, nil, nil
}

// session is one connection's per-pass state.
type session struct {
	id      string
	names   []string // every buffer created in the session, in order
	uploads int
}

func (s *serveStream) pass(p passCtx, rec *recorder) time.Duration {
	pass := s.passes
	s.passes++
	verify := pass < verifiedPasses

	// Untimed prologue: fresh sessions holding this pass's contents.
	sessions := make([]*session, len(s.conns))
	for i, c := range s.conns {
		sess, err := s.openSession(c, pass)
		if err != nil {
			rec.fail(c.proto(), "session set-up: %v", err)
			return time.Nanosecond
		}
		sessions[i] = sess
	}

	samples := make([][]serveSample, len(s.conns))
	logs := make([]*passLog, len(s.conns))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, c := range s.conns {
		wg.Add(1)
		go func(i int, c *serveConn) {
			defer wg.Done()
			samples[i], logs[i] = s.runConn(c, sessions[i], pass)
		}(i, c)
	}
	wg.Wait()
	wall := time.Since(t0)

	// Untimed epilogue: final session state of verified passes, then
	// release the sessions.
	for i, c := range s.conns {
		if verify {
			final, err := c.readAll(sessions[i])
			if err != nil {
				rec.fail(c.proto(), "reading final session state: %v", err)
			}
			logs[i].final = final
		}
		if c.binary {
			_ = c.bin.CloseSession(sessions[i].id)
		} else {
			_ = c.json.CloseSession(sessions[i].id)
		}
	}
	if verify {
		s.logs[pass] = logs
	}
	s.merge(p, rec, samples)
	return wall
}

// openSession creates a session and uploads every kernel's resident
// inputs over the connection's own protocol.
func (s *serveStream) openSession(c *serveConn, pass int) (*session, error) {
	var (
		sess session
		err  error
	)
	if c.binary {
		sess.id, err = c.bin.NewSession("")
	} else {
		sess.id, err = c.json.NewSession()
	}
	if err != nil {
		return nil, err
	}
	for ki, sk := range s.kernels {
		inst, err := sk.instance(s.seed, pass, c.id, ki)
		if err != nil {
			return nil, err
		}
		for i, a := range inst.Args {
			if !a.IsBuf || (sk.kind == kindUpload && i == sk.uploadArg) {
				continue
			}
			if err := c.upload(sess.id, sk.bufName(i), a.Buf); err != nil {
				return nil, fmt.Errorf("%s: %w", sk.bufName(i), err)
			}
			sess.names = append(sess.names, sk.bufName(i))
		}
	}
	return &sess, nil
}

// upload creates a named session buffer from b's content.
func (c *serveConn) upload(sid, name string, b *interp.Buffer) error {
	if c.binary {
		raw := make([]byte, 4*b.Len())
		kind := byte('f')
		if b.F32 != nil {
			server.F32ToLE(raw, b.F32)
		} else {
			kind = 'i'
			server.I32ToLE(raw, b.I32)
		}
		return c.bin.CreateBufferRaw(sid, name, kind, raw)
	}
	req := &server.BufferRequest{Name: name}
	if b.F32 != nil {
		req.Kind, req.F32B64 = "float32", server.EncodeF32(b.F32)
	} else {
		req.Kind, req.I32B64 = "int32", server.EncodeI32(b.I32)
	}
	return c.json.CreateBuffer(sid, req)
}

// launchArgs renders a kernel's argument list for the wire. Scalars
// come from the generator unless vals overrides a float slot; uploaded
// names the streamed vector's buffer.
func (sk *serveKernel) launchArgs(vals map[int]float64, uploaded string) []server.LaunchArg {
	args := make([]server.LaunchArg, len(sk.k.Params))
	for i, p := range sk.k.Params {
		switch {
		case p.Type.Ptr && sk.kind == kindUpload && i == sk.uploadArg:
			args[i] = server.LaunchArg{Buf: uploaded}
		case p.Type.Ptr:
			args[i] = server.LaunchArg{Buf: sk.bufName(i)}
		case p.Type.Kind.IsFloat():
			v, ok := vals[i]
			if !ok {
				v = sk.tmpl.Args[i].Val.F
			}
			args[i] = server.LaunchArg{Float: &v}
		default:
			v := sk.tmpl.Args[i].Val.I
			args[i] = server.LaunchArg{Int: &v}
		}
	}
	return args
}

// runConn executes one connection's op list in a closed loop.
func (s *serveStream) runConn(c *serveConn, sess *session, pass int) ([]serveSample, *passLog) {
	stream := newOpStream(s.seed, pass, c.id)
	out := make([]serveSample, 0, len(c.ops))
	log := &passLog{}
	for _, ki := range c.ops {
		sk := s.kernels[ki]
		smp := serveSample{class: sk.name + "." + c.proto(), kernel: sk.name}

		// Per-op values, drawn before the clock starts.
		vals := map[int]float64{}
		var vec *interp.Buffer
		uploaded := ""
		switch sk.kind {
		case kindScalar:
			for _, i := range sk.floats {
				vals[i] = stream.scalar()
			}
		case kindUpload:
			vec = workloads.NewFilledFloat(sk.vectorLen(), stream.uploadSeed())
			sess.uploads++
			uploaded = sk.name + ".x" + strconv.Itoa(sess.uploads)
		}
		args := sk.launchArgs(vals, uploaded)
		read := make([]string, len(sk.written))
		for i, ai := range sk.written {
			read[i] = sk.bufName(ai)
		}

		smp.t0 = time.Now()
		smp.tUp = smp.t0
		if vec != nil {
			if err := c.upload(sess.id, uploaded, vec); err != nil {
				smp.err = "upload: " + err.Error()
				out = append(out, smp)
				log.ops = append(log.ops, 0) // keeps the log aligned with the op list
				continue
			}
			sess.names = append(sess.names, uploaded)
			smp.tUp = time.Now()
			smp.uploaded = true
		}
		res, err := c.launch(sess.id, sk, args, read)
		smp.t1 = time.Now()
		switch {
		case err != nil:
			smp.err = err.Error()
		case res.rung != "managed":
			smp.err = fmt.Sprintf("served on rung %q, want managed", res.rung)
		case res.replayed || res.coalesced:
			smp.err = "launch was replayed or coalesced; every launch must execute"
		case !res.decided:
			smp.err = "response carries no decision"
		}
		if smp.err == "" {
			smp.simTime, smp.cfg = res.simTime, res.cfg
			smp.queueMS, smp.execMS = res.queueMS, res.execMS
			smp.uploadMS = ms(smp.tUp.Sub(smp.t0))
			smp.wireMS = ms(smp.t1.Sub(smp.tUp)) - res.queueMS - res.execMS
			log.ops = append(log.ops, res.digest)
		} else {
			log.ops = append(log.ops, 0)
		}
		out = append(out, smp)
	}
	return out, log
}

// launchResult is the protocol-neutral part of a launch response.
type launchResult struct {
	rung      string
	replayed  bool
	coalesced bool
	decided   bool
	cfg       sim.Config
	simTime   float64
	queueMS   float64
	execMS    float64
	digest    uint64 // of the read-back buffers, in read order
}

// decision copies the DoP choice and the simulated time of a response.
func (r *launchResult) decision(d *server.DecisionInfo, res *server.ResultInfo) {
	if d != nil && res != nil {
		r.decided = true
		r.cfg = sim.Config{CPUCores: d.CPUCores, GPUFrac: d.GPUFrac}
		r.simTime = res.SimTimeSec
	}
}

// launch sends one launch and decodes its read-back into a digest.
func (c *serveConn) launch(sid string, sk *serveKernel, args []server.LaunchArg, read []string) (launchResult, error) {
	global, local := sk.nd.Global[:sk.nd.Dims], sk.nd.Local[:sk.nd.Dims]
	var out launchResult
	h := newDigest()
	if c.binary {
		res, err := c.bin.Launch(&server.BinLaunch{
			SessionID: sid, ProgramID: sk.progID, Kernel: sk.w.Kernel,
			Global: global, Local: local, Args: args, Read: read,
		})
		if err != nil {
			return out, err
		}
		out.rung, out.replayed, out.coalesced = res.Rung, res.Replayed, res.Coalesced
		out.queueMS, out.execMS = res.QueueMS, res.ExecMS
		out.decision(res.Decision, res.Result)
		if len(res.Bufs) != len(read) {
			return out, fmt.Errorf("response carries %d buffers, want %d", len(res.Bufs), len(read))
		}
		for i, name := range read {
			if res.Bufs[i].Name != name {
				return out, fmt.Errorf("response buffer %d is %q, want %q", i, res.Bufs[i].Name, name)
			}
			h.le(res.Bufs[i].Raw)
		}
		out.digest = h.sum()
		return out, nil
	}
	res, err := c.json.Launch(&server.LaunchRequest{
		SessionID: sid, ProgramID: sk.progID, Kernel: sk.w.Kernel,
		Global: global, Local: local, Args: args, Read: read,
	})
	if err != nil {
		return out, err
	}
	out.rung, out.replayed, out.coalesced = res.Rung, res.Replayed, res.Coalesced
	out.queueMS, out.execMS = res.QueueMS, res.ExecMS
	out.decision(res.Decision, res.Result)
	for _, name := range read {
		bd, ok := res.Buffers[name]
		if !ok {
			return out, fmt.Errorf("response is missing buffer %q", name)
		}
		raw, err := decodeBufferData(bd)
		if err != nil {
			return out, fmt.Errorf("buffer %q: %w", name, err)
		}
		h.le(raw)
	}
	out.digest = h.sum()
	return out, nil
}

func decodeBufferData(bd server.BufferData) ([]byte, error) {
	b64 := bd.F32B64
	if b64 == "" {
		b64 = bd.I32B64
	}
	return base64.StdEncoding.DecodeString(b64)
}

// readAll digests every buffer of the session.
func (c *serveConn) readAll(sess *session) (map[string]uint64, error) {
	out := make(map[string]uint64, len(sess.names))
	for _, name := range sess.names {
		h := newDigest()
		if c.binary {
			_, _, raw, err := c.bin.ReadBuffer(sess.id, name)
			if err != nil {
				return out, err
			}
			h.le(raw)
		} else {
			bd, err := c.json.ReadBuffer(sess.id, name)
			if err != nil {
				return out, err
			}
			raw, err := decodeBufferData(*bd)
			if err != nil {
				return out, err
			}
			h.le(raw)
		}
		out[name] = h.sum()
	}
	return out, nil
}

// merge folds the connections' samples into the recorder, on the pass
// goroutine.
func (s *serveStream) merge(p passCtx, rec *recorder, samples [][]serveSample) {
	for ci, conn := range samples {
		proto := s.conns[ci].proto()
		for _, smp := range conn {
			s.opID++
			if smp.err == "" {
				if cfg, ok := s.decided[smp.class]; !ok {
					s.decided[smp.class] = smp.cfg
				} else if cfg != smp.cfg {
					smp.err = fmt.Sprintf("decision %+v differs from the class's first op %+v", smp.cfg, cfg)
				}
			}
			if smp.err != "" {
				rec.fail(smp.class, "%s", smp.err)
				continue
			}
			rec.ok(smp.class, smp.kernel, smp.t1.Sub(smp.t0))
			rec.reported(smp.class, smp.simTime)
			if p.detail {
				rec.addDetail("queue", smp.queueMS)
				rec.addDetail("exec", smp.execMS)
				rec.addDetail("wire."+proto, smp.wireMS)
				rec.addDetail("op", ms(smp.t1.Sub(smp.t0)))
				if smp.uploaded {
					rec.addDetail("upload."+proto, smp.uploadMS)
				}
			}
			if p.tr != nil {
				s.spans(p.tr, smp)
			}
		}
	}
}

// spans derives an op's spans from the client's clock readings and the
// response's QueueMS/ExecMS: the daemon's queue and exec intervals are
// placed in the middle of the launch round trip, half the wire time on
// either side.
func (s *serveStream) spans(tr *tracer, smp serveSample) {
	root := tr.add(s.opID, -1, rootSpan, smp.t0, smp.t1)
	if smp.uploaded {
		tr.add(s.opID, root, "wire.upload", smp.t0, smp.tUp)
	}
	rtt := tr.add(s.opID, root, "wire.launch", smp.tUp, smp.t1)
	dur := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	q0 := smp.tUp.Add(dur(smp.wireMS / 2))
	q1 := q0.Add(dur(smp.queueMS))
	tr.add(s.opID, rtt, "server.queue", q0, q1)
	tr.add(s.opID, rtt, "server.exec", q1, q1.Add(dur(smp.execMS)))
}

// finish replays every verified pass of every connection through a
// sequential in-process execution on the reference interpreter path and
// compares each op's read-back and the final session state.
func (s *serveStream) finish(rec *recorder) error {
	type job struct{ pass, conn int }
	var jobs []job
	for pass := 0; pass < verifiedPasses; pass++ {
		for conn := range s.logs[pass] {
			jobs = append(jobs, job{pass, conn})
		}
	}
	type verdict struct {
		mismatched int
		first      string
		err        error
	}
	verdicts := make([]verdict, len(jobs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0)) // bounds the replays to the CPUs the run may use
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, j job) {
			defer wg.Done()
			defer func() { <-sem }()
			v := &verdicts[i]
			want, err := s.replay(j.pass, j.conn)
			if err != nil {
				v.err = err
				return
			}
			got := s.logs[j.pass][j.conn]
			note := func(format string, args ...any) {
				v.mismatched++
				if v.first == "" {
					v.first = fmt.Sprintf("pass %d conn %d: ", j.pass, j.conn) + fmt.Sprintf(format, args...)
				}
			}
			for k := range want.ops {
				if k < len(got.ops) && got.ops[k] != 0 && got.ops[k] != want.ops[k] {
					note("op %d (%s) read-back differs from the sequential replay", k, s.kernels[s.conns[j.conn].ops[k]].name)
				}
			}
			for name, d := range want.final {
				if g, ok := got.final[name]; !ok || g != d {
					note("final state of buffer %q differs from the sequential replay", name)
				}
			}
		}(i, j)
	}
	wg.Wait()
	for _, v := range verdicts {
		if v.err != nil {
			return v.err
		}
		if v.mismatched > 0 {
			rec.failClass("replay", v.mismatched, "%s", v.first)
		}
	}

	for _, sk := range s.kernels {
		eval, err := dopia.Characterize(s.machine, sk.w)
		if err != nil {
			return fmt.Errorf("%s: oracle: %w", sk.name, err)
		}
		for _, proto := range []string{"bin", "json"} {
			class := sk.name + "." + proto
			if oc := rec.oracle[class]; oc != nil {
				oc.best, oc.chosen = eval.BestTime, eval.Time(s.decided[class])
			}
		}
	}
	return nil
}

// replay executes one connection's op list of one pass sequentially on
// the reference interpreter path over identically generated inputs.
func (s *serveStream) replay(pass, conn int) (*passLog, error) {
	c := s.conns[conn]
	stream := newOpStream(s.seed, pass, c.id)
	insts := make([]*workloads.Instance, len(s.kernels))
	execs := make([]*interp.Exec, len(s.kernels))
	bufs := map[string]*interp.Buffer{}
	for ki, sk := range s.kernels {
		inst, err := sk.instance(s.seed, pass, c.id, ki)
		if err != nil {
			return nil, err
		}
		ex, err := interp.NewExec(sk.k)
		if err != nil {
			return nil, err
		}
		ex.Engine, ex.Parallelism, ex.LaneWidth = interp.EngineClosures, interp.Sequential, 1
		if err := ex.Bind(inst.Args...); err != nil {
			return nil, err
		}
		for i, a := range inst.Args {
			if a.IsBuf && !(sk.kind == kindUpload && i == sk.uploadArg) {
				bufs[sk.bufName(i)] = a.Buf
			}
		}
		insts[ki], execs[ki] = inst, ex
	}
	log := &passLog{final: map[string]uint64{}}
	uploads := 0
	for _, ki := range c.ops {
		sk, ex, inst := s.kernels[ki], execs[ki], insts[ki]
		switch sk.kind {
		case kindScalar:
			for _, i := range sk.floats {
				if err := ex.SetArg(i, interp.FloatArg(stream.scalar())); err != nil {
					return nil, err
				}
			}
		case kindUpload:
			vec := workloads.NewFilledFloat(sk.vectorLen(), stream.uploadSeed())
			uploads++
			bufs[sk.name+".x"+strconv.Itoa(uploads)] = vec
			if err := ex.SetArg(sk.uploadArg, interp.BufArg(vec)); err != nil {
				return nil, err
			}
		}
		if err := ex.Launch(sk.nd); err != nil {
			return nil, err
		}
		if err := ex.Run(); err != nil {
			return nil, err
		}
		h := newDigest()
		for _, ai := range sk.written {
			h.buffer(inst.Args[ai].Buf)
		}
		log.ops = append(log.ops, h.sum())
	}
	for name, b := range bufs {
		h := newDigest()
		h.buffer(b)
		log.final[name] = h.sum()
	}
	return log, nil
}

func (s *serveStream) layers(rec *recorder, out metricSet) error {
	d := rec.detail
	out.set("server.queue_ms_p50", median(d["queue"]), len(d["queue"]), "LaunchResponse.QueueMS")
	out.set("server.exec_ms_p50", median(d["exec"]), len(d["exec"]), "LaunchResponse.ExecMS")
	for _, proto := range []string{"bin", "json"} {
		out.set("server.wire_ms_p50."+proto, median(d["wire."+proto]), len(d["wire."+proto]), "launch round trip - queue - exec")
		out.set("server.upload_ms_p50."+proto, median(d["upload."+proto]), len(d["upload."+proto]), "buffer-create round trip")
	}
	out.set("server.op_p99_ms", quantile(d["op"], 0.99), len(d["op"]), "")

	page, err := s.admin.Metrics()
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	launches := promValue(page, "dopia_launches_total")
	out.set("server.stage_decode_ms_p50", 1e3*promValue(page, `dopia_stage_seconds{stage="decode",quantile="0.5"}`), int(launches), "daemon /metrics")
	out.set("server.stage_encode_ms_p50", 1e3*promValue(page, `dopia_stage_seconds{stage="encode",quantile="0.5"}`), int(launches), "daemon /metrics")
	out.set("server.rejected", promValue(page, "dopia_rejected_total"), int(launches), "daemon /metrics")
	if launches > 0 {
		out.set("server.coalesced_ratio", promValue(page, "dopia_coalesced_launches_total")/launches, int(launches), "must be 0")
	}
	managed := promValue(page, "dopia_fallback_managed_total")
	if tot := managed + promValue(page, "dopia_fallback_coexec_all_total") + promValue(page, "dopia_fallback_plain_total"); tot > 0 {
		out.set("core.managed_ratio", managed/tot, int(tot), "daemon /metrics")
	}
	hits, misses := promValue(page, "dopia_predcache_hits_total"), promValue(page, "dopia_predcache_misses_total")
	if hits+misses > 0 {
		out.set("core.pred_cache_hit_ratio", hits/(hits+misses), int(hits+misses), "daemon /metrics")
	}
	return nil
}

// promValue extracts one sample from a text metrics page (0 if absent).
func promValue(page, name string) float64 {
	for _, line := range strings.Split(page, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
				return v
			}
		}
	}
	return 0
}
