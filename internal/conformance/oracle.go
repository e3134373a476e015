package conformance

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"

	"dopia/internal/clc"
	"dopia/internal/core"
	"dopia/internal/faults"
	"dopia/internal/interp"
	"dopia/internal/ocl"
	"dopia/internal/sched"
	"dopia/internal/server"
	"dopia/internal/sim"
	"dopia/internal/transform"
)

// Options selects which slices of the configuration lattice a RunCase
// call exercises. The zero value runs the direct engine×shard
// differential only.
type Options struct {
	// Shards lists the parallelism degrees of the direct legs (default
	// {1, 3, GOMAXPROCS}). Trappy cases always run at parallelism 1,
	// where partial trap state is deterministic.
	Shards []int
	// Rungs adds the interposed fallback-ladder legs: a natural launch
	// plus coexec-all and plain rungs forced via armed fault injection.
	// Fault injection is process-global state, so RunCase calls with
	// Rungs set must not run concurrently.
	Rungs bool
	// Serving, when non-nil, adds a round-trip leg through an embedded
	// dopiad server.
	Serving *ServingEnv
	// MutateLeg deliberately corrupts the first output buffer of the
	// named leg, for self-testing the oracle and the shrinker. "" (the
	// default) disables mutation.
	MutateLeg string
	// Machines lists zoo machine names for the co-execution legs: each
	// total-class case is additionally executed through a sched.Executor
	// on every machine × scheduler × Shards combination, and its buffers
	// must be bit-identical to the reference. "all" (or an empty list when
	// Scheds is set) selects the whole zoo.
	Machines []string
	// Scheds lists the scheduling policies of the co-execution legs
	// (sim.ParseDistribution names). Empty with Machines set selects
	// static, dynamic, and hguided.
	Scheds []string
}

// defaultShards returns the default direct-leg parallelism set.
func defaultShards() []int {
	p := runtime.GOMAXPROCS(0)
	out := []int{1, 3}
	if p != 1 && p != 3 {
		out = append(out, p)
	}
	return out
}

// Report is the outcome of running one case across the lattice.
type Report struct {
	Case *Case
	// Legs holds every observation, reference first.
	Legs []*Observation
	// Divergences is empty iff every leg agreed with the reference.
	Divergences []string
}

// OK reports whether every leg agreed.
func (r *Report) OK() bool { return len(r.Divergences) == 0 }

// errForced marks fault-injection errors armed by the oracle itself.
var errForced = errors.New("conformance: forced fallback")

// RunCase runs one case across the configured lattice and returns the
// report. An error is returned only for harness-level failures (the
// serving environment breaking, a case that does not compile);
// behavioural divergences land in Report.Divergences.
func RunCase(c *Case, opts Options) (*Report, error) {
	shards := opts.Shards
	if len(shards) == 0 {
		shards = defaultShards()
	}
	rep := &Report{Case: c}

	// Reference leg: closure engine, sequential, exact profiling.
	ref, err := runDirect(c, interp.EngineClosures, 1, true)
	if err != nil {
		return nil, fmt.Errorf("%s: reference leg: %w", c, err)
	}
	mutate(rep, opts, ref)
	rep.Legs = append(rep.Legs, ref)
	if c.Class == ClassTotal && ref.Err != nil {
		rep.Divergences = append(rep.Divergences,
			fmt.Sprintf("%s: total-class case trapped on the reference leg: %v", c, ref.Err))
		return rep, nil
	}

	// addLeg records a leg and what sets it apart from base: the reference,
	// or what of it the leg observes.
	addLeg := func(base, leg *Observation) {
		mutate(rep, opts, leg)
		rep.Legs = append(rep.Legs, leg)
		rep.Divergences = append(rep.Divergences, DiffObservations(base, leg)...)
	}

	// Direct legs: both engines across the shard set, and the bytecode
	// engine's unprofiled run — the managed launch's functional run, the
	// only one whose work-items park (interp's blocked column walks) —
	// which keeps no access profile, so only its buffers, aggregate
	// counters and error meet the reference's. Trappy cases run the engine
	// differential at parallelism 1 only.
	totals := &Observation{Leg: ref.Leg, Err: ref.Err, Buffers: ref.Buffers, Profile: countersOnly(ref.Profile)}
	for _, engine := range []interp.Engine{interp.EngineClosures, interp.EngineBytecode} {
		for _, par := range shards {
			if c.Class == ClassTrappy && par != 1 {
				continue
			}
			if engine != interp.EngineClosures || par != 1 { // not the reference
				leg, err := runDirect(c, engine, par, true)
				if err != nil {
					return nil, fmt.Errorf("%s: leg %s: %w", c, leg.Leg, err)
				}
				addLeg(ref, leg)
			}
			if engine == interp.EngineBytecode {
				leg, err := runDirect(c, engine, par, false)
				if err != nil {
					return nil, fmt.Errorf("%s: leg %s: %w", c, leg.Leg, err)
				}
				addLeg(totals, leg)
			}
		}
	}

	// Malleable legs (total cases whose kernel transforms): the malleable
	// GPU form over the full range at every throttle setting a zoo
	// machine's configuration gives the GPU. The runtime runs GPU spans
	// on the original kernel and only charges the malleable form's
	// timing, so these legs are what holds the form to the original's
	// bytes. Only buffers and the error are observed: the form runs a
	// work-group's items on fewer lanes, so its counters differ by
	// design.
	if c.Class == ClassTotal {
		k, err := compileCase(c)
		if err != nil {
			return nil, fmt.Errorf("%s: malleable legs: %w", c, err)
		}
		if mall, err := transform.MalleableGPU(k, c.ND.Dims); err == nil {
			for _, p := range sim.ZooDopParams() {
				leg, err := runMalleable(c, mall.Kernel, p[0], p[1])
				if err != nil {
					return nil, fmt.Errorf("%s: leg %s: %w", c, leg.Leg, err)
				}
				addLeg(ref, leg)
			}
		}
	}

	// Machine×scheduler co-execution legs (total cases only: a total-
	// class kernel's buffers are partition-invariant, so any machine's
	// schedule — static split, work-queue, or HGuided — must reproduce
	// the reference bytes exactly).
	if (len(opts.Machines) > 0 || len(opts.Scheds) > 0) && c.Class == ClassTotal {
		machines, err := resolveMachines(opts.Machines)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
		dists, err := resolveScheds(opts.Scheds)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
		for _, m := range machines {
			for _, d := range dists {
				for _, par := range shards {
					leg, err := runCoexec(c, m, d, par)
					if err != nil {
						return nil, fmt.Errorf("%s: leg %s: %w", c, leg.Leg, err)
					}
					addLeg(ref, leg)
				}
			}
		}
	}

	// Interposed-ladder legs (total cases only: a trapping kernel makes
	// the ladder degrade by design, and partial rung state under
	// co-execution parallelism is not comparable).
	if opts.Rungs && c.Class == ClassTotal {
		for _, rl := range []struct {
			name   string
			inject string
			want   func(string) bool
		}{
			// A natural launch must be served by a managed rung — either
			// full Dopia or, for untransformable kernels (barriers), ALL
			// co-execution — never by the plain runtime.
			{"rung:natural", "", func(r string) bool { return r == "managed" || r == "coexec-all" }},
			// Forcing the malleable transform to fail must land exactly on
			// the coexec-all rung.
			{"rung:coexec-all", "transform.gpu", func(r string) bool { return r == "coexec-all" }},
			// Forcing every managed execution to fail must land on plain.
			{"rung:plain", "core.exec", func(r string) bool { return r == "plain" }},
		} {
			leg, err := runRung(c, rl.name, rl.inject)
			if err != nil {
				return nil, fmt.Errorf("%s: leg %s: %w", c, rl.name, err)
			}
			if !rl.want(leg.Rung) {
				rep.Divergences = append(rep.Divergences,
					fmt.Sprintf("%s: leg %s served on unexpected rung %q", c, rl.name, leg.Rung))
			}
			addLeg(ref, leg)
		}
	}

	// Serving leg: the same case through an embedded dopiad round-trip.
	if opts.Serving != nil && c.Class == ClassTotal {
		leg, err := opts.Serving.RunLeg(c)
		if err != nil {
			return nil, fmt.Errorf("%s: serving leg: %w", c, err)
		}
		addLeg(ref, leg)
	}
	return rep, nil
}

// mutate corrupts the first output buffer of the observation when it is
// the configured mutation target (self-test support).
func mutate(rep *Report, opts Options, obs *Observation) {
	if opts.MutateLeg == "" || obs.Leg != opts.MutateLeg {
		return
	}
	for i := range obs.Buffers {
		if len(obs.Buffers[i].Bytes) > 0 {
			obs.Buffers[i].Bytes[0] ^= 0xff
			return
		}
	}
}

// runDirect executes the case once on a fresh interp.Exec: with exact
// access profiling (Run) when profiled, else through RunUnprofiled, whose
// observation carries only the profile's aggregate counters.
func runDirect(c *Case, engine interp.Engine, par int, profiled bool) (*Observation, error) {
	obs := &Observation{Leg: fmt.Sprintf("%s/shards=%d", engine, par)}
	if !profiled {
		obs.Leg = fmt.Sprintf("%s-unprofiled/shards=%d", engine, par)
	}
	k, err := compileCase(c)
	if err != nil {
		return obs, err
	}
	ex, err := interp.NewExec(k)
	if err != nil {
		return obs, fmt.Errorf("NewExec: %w", err)
	}
	ex.Engine = engine
	ex.Parallelism = par
	args := caseArgs(c)
	if err := ex.Bind(args...); err != nil {
		return obs, fmt.Errorf("Bind: %w", err)
	}
	if err := ex.Launch(c.ND); err != nil {
		return obs, fmt.Errorf("Launch: %w", err)
	}
	if profiled {
		obs.Err = ex.Run()
		obs.Profile = ex.Stats()
	} else {
		obs.Err = ex.RunUnprofiled([]interp.Segment{{Count: c.ND.TotalGroups()}})
		obs.Profile = countersOnly(ex.Stats())
	}
	obs.Buffers = caseBuffers(c, args)
	return obs, nil
}

// runMalleable executes the case's malleable form k over the full range
// on a fresh interp.Exec, throttled to {mod, alloc}.
func runMalleable(c *Case, k *clc.Kernel, mod, alloc int64) (*Observation, error) {
	obs := &Observation{Leg: fmt.Sprintf("malleable:mod=%d/alloc=%d", mod, alloc)}
	ex, err := interp.NewExec(k)
	if err != nil {
		return obs, fmt.Errorf("NewExec: %w", err)
	}
	args := caseArgs(c)
	if err := ex.Bind(append(args[:len(args):len(args)], interp.IntArg(mod), interp.IntArg(alloc))...); err != nil {
		return obs, fmt.Errorf("Bind: %w", err)
	}
	if err := ex.Launch(c.ND); err != nil {
		return obs, fmt.Errorf("Launch: %w", err)
	}
	obs.Err = ex.Run()
	obs.Buffers = caseBuffers(c, args)
	return obs, nil
}

// compileCase compiles the case's source and returns its kernel.
func compileCase(c *Case) (*clc.Kernel, error) {
	prog, err := clc.Compile(c.Source)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	k := prog.Kernel(c.Kernel)
	if k == nil {
		return nil, fmt.Errorf("kernel %q not found", c.Kernel)
	}
	return k, nil
}

// caseArgs returns fresh, deterministically initialised arguments for the
// case.
func caseArgs(c *Case) []interp.Arg {
	args := make([]interp.Arg, len(c.Args))
	for i := range c.Args {
		args[i] = c.Args[i].Arg()
	}
	return args
}

// caseBuffers observes the final bytes of the case's buffer arguments.
func caseBuffers(c *Case, args []interp.Arg) []BufferObs {
	var out []BufferObs
	for i := range c.Args {
		if c.Args[i].IsBuf() {
			out = append(out, BufferObs{Name: c.Args[i].Name, Bytes: BufferBytes(args[i].Buf)})
		}
	}
	return out
}

// countersOnly is p without its per-site access profile.
func countersOnly(p *interp.Profile) *interp.Profile {
	if p == nil {
		return nil
	}
	q := *p
	q.Sites = nil
	return &q
}

// resolveMachines maps machine names to zoo instances; empty or "all"
// selects the whole zoo.
func resolveMachines(names []string) ([]*sim.Machine, error) {
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		return sim.Zoo(), nil
	}
	out := make([]*sim.Machine, 0, len(names))
	for _, n := range names {
		m, err := sim.MachineByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// resolveScheds maps scheduler names to distributions; empty selects the
// EngineCL trio (static, dynamic, hguided), "all" adds the paper's alg1.
func resolveScheds(names []string) ([]sim.Distribution, error) {
	if len(names) == 0 {
		return []sim.Distribution{sim.Static, sim.WorkQueue, sim.HGuided}, nil
	}
	if len(names) == 1 && names[0] == "all" {
		return sim.Distributions(), nil
	}
	out := make([]sim.Distribution, 0, len(names))
	for _, n := range names {
		d, err := sim.ParseDistribution(n)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// runCoexec executes the case through a sched.Executor on the given
// machine under the given scheduling policy, co-executing the original
// kernel on all resources with the simulated plan cut into par shards.
// Only buffers are observed: the sampled model build and the split
// schedule make profiles non-comparable by design.
func runCoexec(c *Case, m *sim.Machine, dist sim.Distribution, par int) (*Observation, error) {
	obs := &Observation{Leg: fmt.Sprintf("coexec:%s/%s/shards=%d", m.Name, dist, par)}
	k, err := compileCase(c)
	if err != nil {
		return obs, err
	}
	ex, err := sched.NewExecutor(m, k, nil)
	if err != nil {
		return obs, fmt.Errorf("NewExecutor: %w", err)
	}
	ex.Parallelism = par
	args := caseArgs(c)
	if err := ex.Bind(args...); err != nil {
		return obs, fmt.Errorf("Bind: %w", err)
	}
	if err := ex.Launch(c.ND); err != nil {
		return obs, fmt.Errorf("Launch: %w", err)
	}
	_, obs.Err = ex.Run(m.AllResources(), sched.RunOptions{
		Dist:       dist,
		CPUShare:   0.5,
		Functional: true,
	})
	obs.Buffers = caseBuffers(c, args)
	return obs, nil
}

// runRung executes the case through the full interposed OpenCL surface
// (platform, context, framework, command queue), optionally with a
// fault armed to force a specific ladder rung. The observation carries
// buffers and the served rung; profiles are not exposed through the
// interposed path.
func runRung(c *Case, name, injectPoint string) (*Observation, error) {
	if injectPoint != "" {
		faults.InjectError(injectPoint, errForced)
		defer faults.Reset()
	}
	obs := &Observation{Leg: name}
	machine := sim.Kaveri()
	plat := ocl.NewPlatform(machine)
	cx := plat.CreateContext()
	fw := core.New(machine, nil)
	fw.Attach(cx)
	prog := cx.CreateProgramWithSource(c.Source)
	if err := prog.Build(); err != nil {
		return obs, fmt.Errorf("Build: %w", err)
	}
	k, err := prog.CreateKernel(c.Kernel)
	if err != nil {
		return obs, fmt.Errorf("CreateKernel: %w", err)
	}
	type named struct {
		name string
		buf  *interp.Buffer
	}
	var bufs []named
	for i := range c.Args {
		a := &c.Args[i]
		if a.IsBuf() {
			b := a.NewBuffer()
			bufs = append(bufs, named{a.Name, b})
			if err := k.SetArg(i, cx.WrapBuffer(b)); err != nil {
				return obs, fmt.Errorf("SetArg(%d): %w", i, err)
			}
			continue
		}
		if err := k.SetArg(i, a.Arg()); err != nil {
			return obs, fmt.Errorf("SetArg(%d): %w", i, err)
		}
	}
	q := cx.CreateCommandQueue(plat.Device(ocl.DeviceCPU))
	obs.Err = q.EnqueueNDRangeKernel(k, c.ND)
	if obs.Err == nil {
		obs.Err = q.Finish()
	}
	if li, ok := q.LastLaunch.(*core.LaunchInfo); ok && li != nil {
		obs.Rung = li.Rung
	}
	for _, nb := range bufs {
		obs.Buffers = append(obs.Buffers, BufferObs{Name: nb.name, Bytes: BufferBytes(nb.buf)})
	}
	return obs, nil
}

// ServingEnv is an embedded dopiad instance (server + HTTP listener +
// client) the oracle round-trips cases through: compile over the wire,
// create buffers from base64 payloads, launch, and read every buffer
// back.
type ServingEnv struct {
	srv *server.Server
	ts  *httptest.Server
	cl  *server.Client
}

// NewServingEnv boots an embedded dopiad over an ephemeral listener.
func NewServingEnv() (*ServingEnv, error) {
	srv, err := server.New(server.Config{Machine: sim.Kaveri()})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &ServingEnv{
		srv: srv,
		ts:  ts,
		cl:  server.NewClient(ts.URL, ts.Client()),
	}, nil
}

// Close shuts the embedded server down.
func (e *ServingEnv) Close() {
	e.ts.Close()
}

// RunLeg round-trips one case through the embedded server. A harness
// error (HTTP failure, rejected request) is returned as error; the
// observation mirrors the direct legs' buffer view.
func (e *ServingEnv) RunLeg(c *Case) (*Observation, error) {
	obs := &Observation{Leg: "serving"}
	pr, err := e.cl.Compile(c.Source)
	if err != nil {
		return obs, fmt.Errorf("compile: %w", err)
	}
	sid, err := e.cl.NewSession()
	if err != nil {
		return obs, fmt.Errorf("session: %w", err)
	}
	defer e.cl.CloseSession(sid)

	req := &server.LaunchRequest{
		SessionID: sid,
		ProgramID: pr.ProgramID,
		Kernel:    c.Kernel,
		Global:    append([]int(nil), c.ND.Global[:c.ND.Dims]...),
		Local:     append([]int(nil), c.ND.Local[:c.ND.Dims]...),
	}
	var readNames []string
	for i := range c.Args {
		a := &c.Args[i]
		switch a.Kind {
		case "fbuf":
			if err := e.cl.CreateBuffer(sid, &server.BufferRequest{
				Name: a.Name, Kind: "float32", Len: len(a.F32),
				F32B64: server.EncodeF32(a.F32),
			}); err != nil {
				return obs, fmt.Errorf("buffer %s: %w", a.Name, err)
			}
			req.Args = append(req.Args, server.LaunchArg{Buf: a.Name})
			readNames = append(readNames, a.Name)
		case "ibuf":
			if err := e.cl.CreateBuffer(sid, &server.BufferRequest{
				Name: a.Name, Kind: "int32", Len: len(a.I32),
				I32B64: server.EncodeI32(a.I32),
			}); err != nil {
				return obs, fmt.Errorf("buffer %s: %w", a.Name, err)
			}
			req.Args = append(req.Args, server.LaunchArg{Buf: a.Name})
			readNames = append(readNames, a.Name)
		case "int":
			v := a.IVal
			req.Args = append(req.Args, server.LaunchArg{Int: &v})
		default:
			v := a.FVal
			req.Args = append(req.Args, server.LaunchArg{Float: &v})
		}
	}
	req.Read = readNames
	resp, err := e.cl.Launch(req)
	if err != nil {
		return obs, fmt.Errorf("launch: %w", err)
	}
	obs.Rung = resp.Rung
	for _, name := range readNames {
		bd, ok := resp.Buffers[name]
		if !ok {
			return obs, fmt.Errorf("launch response missing buffer %s", name)
		}
		var bytes []byte
		switch bd.Kind {
		case "float32":
			xs, err := server.DecodeF32(bd.F32B64)
			if err != nil {
				return obs, fmt.Errorf("decode %s: %w", name, err)
			}
			bytes = F32Bytes(xs)
		case "int32":
			xs, err := server.DecodeI32(bd.I32B64)
			if err != nil {
				return obs, fmt.Errorf("decode %s: %w", name, err)
			}
			bytes = I32Bytes(xs)
		default:
			return obs, fmt.Errorf("buffer %s: unexpected kind %q", name, bd.Kind)
		}
		obs.Buffers = append(obs.Buffers, BufferObs{Name: name, Bytes: bytes})
	}
	return obs, nil
}
