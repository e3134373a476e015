// Command dopia-load is the closed-loop load generator and correctness
// checker for dopia-serve. Each of -concurrency workers owns one tenant
// session, uploads the deterministic inputs of its assigned real
// workload (Polybench / SpMV / PageRank), and launches in a closed loop
// for -duration. Every response is verified BIT-IDENTICAL against a
// direct in-process sequential execution of the same kernel on the same
// inputs: a shared per-workload oracle replays the launch sequence
// through the interpreter once, memoizing each launch's output bytes,
// and every tenant compares its returned buffer bytes against the memo
// — so any cross-tenant leak, cache corruption, or nondeterministic
// sharding in the serving path fails the run.
//
// Tenants of one workload upload identical inputs and launch identical
// sequences, and the daemon executes every one of those launches: the
// report's throughput_rps is executed launches per second (plus
// idempotent replays of a launch's own key in cluster mode), never
// answers copied from another tenant's execution.
//
// -binary switches the wire from HTTP/JSON to the length-prefixed
// binary protocol (one connection per worker, raw little-endian buffer
// payloads, no base64); results are verified the same way, so the run
// doubles as a cross-protocol conformance check.
//
// With -addr "" (the default) the generator embeds the server in
// process on a loopback listener — the zero-setup mode. Point -addr at a running dopia-serve to load a real
// daemon; exit status is non-zero on any mismatch, request failure, or
// contained panic reported by /metrics.
//
// With -cluster N the generator instead boots an in-process N-node
// cluster (router + members, real HTTP throughout) and
// drives the same verified load through the router. Every launch
// carries a generator-stamped idempotency key, so a launch retried
// across a node failover still applies exactly once — the local replay
// replica detects any double-apply bit-wise. -chaos injects a
// deterministic fault schedule (node kill, probe partition, slow
// node, cache eviction) mid-run; the run fails if the router loses a
// session, a replica diverges from its primary, or any response
// mismatches the in-process reference.
package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dopia/internal/cluster"
	"dopia/internal/core"
	"dopia/internal/experiments"
	"dopia/internal/interp"
	"dopia/internal/server"
	"dopia/internal/sim"
	"dopia/internal/stats"
	"dopia/internal/workloads"
)

func main() {
	var (
		addr        = flag.String("addr", "", "daemon address (host:port); empty = embed the server in-process")
		machineName = flag.String("machine", "Kaveri", "machine model for the embedded server")
		concurrency = flag.Int("concurrency", 8, "closed-loop workers (one session each)")
		duration    = flag.Duration("duration", 10*time.Second, "load duration")
		size        = flag.Int("n", 256, "problem size per workload")
		wgSize      = flag.Int("wg", 64, "work-group size")
		mix         = flag.String("mix", "GESUMMV,ATAX1,BICG1,MVT1,SpMV,PageRank", "comma-separated workload mix")
		deadlineMS  = flag.Int64("deadline-ms", 0, "per-launch deadline (0 = server default)")
		out         = flag.String("out", "", "write the JSON report here")
		clusterN    = flag.Int("cluster", 0, "boot an in-process N-node cluster and load it through the router")
		chaosSpec   = flag.String("chaos", "", "fault schedule for -cluster members, e.g. kill:n1@3s (see dopia-router)")
		binaryMode  = flag.Bool("binary", false, "drive the binary wire protocol (one connection per worker) instead of HTTP/JSON")

		mixSchedule = flag.String("mix-schedule", "",
			"piecewise drifting mix: name@offsetMS segments, e.g. poly@0,spmv@2000 "+
				"(aliases poly/spmv; join explicit names with +). Tenants keep their sessions across shifts.")
		modelFamily = flag.String("model", "none",
			"local model family: LIN, SVR, DT, RF, or none. A model boots the embedded server and is the "+
				"frozen baseline of the decision-quality trace")
		onlineOn = flag.Bool("online", false, "enable the embedded server's closed-loop online learner")
	)
	flag.Parse()

	if *chaosSpec != "" && *clusterN <= 0 {
		fail("-chaos needs -cluster members to inject into")
	}
	if *clusterN > 0 && *addr != "" {
		fail("-cluster and -addr are mutually exclusive")
	}
	if *binaryMode && *clusterN > 0 {
		fail("-binary loads a daemon directly; the router speaks HTTP/JSON only")
	}
	if *onlineOn && (*clusterN > 0 || *addr != "") {
		fail("-online configures the embedded server; point -addr at a dopia-serve -online daemon instead")
	}

	machine, err := sim.MachineByName(*machineName)
	if err != nil {
		fail("%v", err)
	}

	// -model builds the same deterministic model dopia-serve -model F
	// would: it boots the embedded server and anchors the frozen-baseline
	// side of the decision-quality trace.
	t0 := time.Now()
	localModel, err := core.BootstrapModel(machine, *modelFamily, "")
	if err != nil {
		fail("model: %v", err)
	}
	if localModel != nil {
		fmt.Printf("dopia-load: trained %s in %v\n", localModel.Name(), time.Since(t0).Round(time.Millisecond))
	}

	base := *addr
	var embedded *server.Server
	var mixed *server.MixedServer
	var ring *cluster.Local
	if *clusterN > 0 {
		ring, err = cluster.StartLocal(cluster.LocalConfig{
			Nodes:  *clusterN,
			Server: server.Config{Machine: machine},
			Router: cluster.RouterConfig{JanitorInterval: 50 * time.Millisecond},
		})
		if err != nil {
			fail("local cluster: %v", err)
		}
		base = ring.RouterURL
	} else if base == "" {
		base, embedded, mixed, err = embedServer(server.Config{Machine: machine, Model: localModel, Online: *onlineOn})
		if err != nil {
			fail("embedded server: %v", err)
		}
	}
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	// The binary protocol shares the HTTP listener; dial the bare
	// host:port.
	binAddr := strings.TrimPrefix(base, "http://")

	schedule, err := buildSchedule(*mix, *mixSchedule, *size, *wgSize)
	if err != nil {
		fail("%v", err)
	}
	uniqueWL := schedule.unique()

	client := server.NewClient(base, &http.Client{Timeout: 10 * time.Minute})
	if ring != nil {
		// Failovers surface as retryable 503s when the whole ring is
		// momentarily degraded; deterministic backoff rides them out.
		client.SetRetryPolicy(&server.RetryPolicy{
			MaxAttempts: 8, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Seed: 1,
		})
	}
	if _, err := client.Healthz(); err != nil {
		fail("daemon at %s not healthy: %v", base, err)
	}

	if *chaosSpec != "" {
		events, err := cluster.ParseChaosSpec(*chaosSpec)
		if err != nil {
			fail("%v", err)
		}
		ctrl := cluster.NewChaosController(events, ring.Node, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		})
		go func() { _ = ctrl.Run(context.Background()) }()
	}

	// Register every program in the mix up front (dedup makes this a
	// no-op for workloads sharing one source), and build one shared
	// reference oracle per workload.
	progIDs := make(map[string]string, len(uniqueWL))
	oracles := make(map[string]*refOracle, len(uniqueWL))
	for _, w := range uniqueWL {
		resp, err := client.Compile(w.Source)
		if err != nil {
			fail("compile %s: %v", w.Name, err)
		}
		progIDs[w.Name] = resp.ProgramID
		if _, ok := oracles[w.Name]; !ok {
			o, err := newRefOracle(w)
			if err != nil {
				fail("reference oracle %s: %v", w.Name, err)
			}
			oracles[w.Name] = o
		}
	}

	var (
		launches   atomic.Int64
		mismatches atomic.Int64
		reqErrors  atomic.Int64
		retries    atomic.Int64
		rungs      sync.Map // rung string -> *atomic.Int64
		latency    = stats.NewLatencyHistogram()
	)
	bumpRung := func(r string) {
		v, _ := rungs.LoadOrStore(r, new(atomic.Int64))
		v.(*atomic.Int64).Add(1)
	}

	protocol := "json"
	if *binaryMode {
		protocol = "binary"
	}
	fmt.Printf("dopia-load: %d workers, %v, mix=%s, protocol=%s, target %s\n",
		*concurrency, *duration, schedule, protocol, base)
	begin := time.Now()
	stop := begin.Add(*duration)
	traces := make([][]experiments.TraceStep, *concurrency)
	var wg sync.WaitGroup
	for i := 0; i < *concurrency; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			var bin *server.BinClient
			if *binaryMode {
				var err error
				bin, err = server.DialBin(binAddr, 10*time.Minute)
				if err != nil {
					reqErrors.Add(1)
					fmt.Fprintf(os.Stderr, "worker %d: dial: %v\n", worker, err)
					return
				}
				defer bin.Close()
			}
			// One session per worker for the whole run: when the mix
			// shifts, the tenant keeps its session (and its learner state)
			// and its new workload's buffers join under a name prefix —
			// that continuity is what lets the learner follow the drift.
			var sid string
			var err error
			if bin != nil {
				sid, err = bin.NewSession("")
			} else {
				sid, err = client.NewSession()
			}
			if err != nil {
				reqErrors.Add(1)
				fmt.Fprintf(os.Stderr, "worker %d: session: %v\n", worker, err)
				return
			}
			defer func() {
				if bin != nil {
					_ = bin.CloseSession(sid)
				} else {
					_ = client.CloseSession(sid)
				}
			}()
			tenants := map[string]*tenant{}
			tenantFor := func(w *workloads.Workload) (*tenant, error) {
				if tc, ok := tenants[w.Name]; ok {
					return tc, nil
				}
				tc, err := newTenant(client, bin, w, progIDs[w.Name], oracles[w.Name], *deadlineMS, sid)
				if err != nil {
					return nil, err
				}
				if ring != nil {
					// Stamp idempotency keys so a launch the router retries
					// across a failover applies exactly once end-to-end.
					tc.idemPrefix = "w" + strconv.Itoa(worker) + w.Name
				}
				tenants[w.Name] = tc
				return tc, nil
			}
			for time.Now().Before(stop) {
				w := schedule.at(time.Since(begin), worker)
				tc, err := tenantFor(w)
				if err != nil {
					reqErrors.Add(1)
					fmt.Fprintf(os.Stderr, "worker %d (%s): setup: %v\n", worker, w.Name, err)
					return
				}
				t0 := time.Now()
				res, mismatch, err := tc.launchOnce()
				if err != nil {
					var retryMS int64 = -1
					if apiErr, ok := err.(*server.APIError); ok && apiErr.IsRetryable() {
						retryMS = apiErr.RetryAfterMS
					} else if binErr, ok := err.(*server.BinError); ok && binErr.IsRetryable() {
						retryMS = binErr.RetryAfterMS
					}
					if retryMS >= 0 {
						retries.Add(1)
						time.Sleep(time.Duration(retryMS) * time.Millisecond)
						continue
					}
					reqErrors.Add(1)
					fmt.Fprintf(os.Stderr, "worker %d (%s): launch: %v\n", worker, w.Name, err)
					return
				}
				latency.Record(time.Since(t0).Seconds())
				launches.Add(1)
				bumpRung(res.rung)
				step := experiments.TraceStep{Workload: w.Name, Chosen: machine.AllResources()}
				if d := res.decision; d != nil {
					step.Chosen = sim.Config{CPUCores: d.CPUCores, GPUFrac: d.GPUFrac}
					step.Explored = d.Explored
				}
				traces[worker] = append(traces[worker], step)
				if mismatch != "" {
					mismatches.Add(1)
					fmt.Fprintf(os.Stderr, "worker %d (%s): MISMATCH: %s\n", worker, w.Name, mismatch)
					return
				}
			}
		}(i)
	}

	// Poll the observability surface while the storm runs: both
	// endpoints must stay live under full load.
	healthPolls := 0
	pollStop, pollExited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(pollExited)
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-pollStop:
				return
			case <-tick.C:
				if _, err := client.Healthz(); err == nil {
					healthPolls++
				}
				_, _ = client.Metrics()
			}
		}
	}()
	wg.Wait()
	close(pollStop)
	<-pollExited // a poll in flight still writes healthPolls

	page, err := client.Metrics()
	if err != nil {
		fail("final /metrics scrape: %v", err)
	}
	panics := metricValue(page, "dopia_panics_contained_total")
	timeouts := metricValue(page, "dopia_watchdog_timeouts_total")
	plain := metricValue(page, "dopia_fallback_plain_total")
	bytesIn := metricValue(page, "dopia_server_bytes_in_total")
	bytesOut := metricValue(page, "dopia_server_bytes_out_total")

	// In cluster mode the scrape hits the router, whose page carries the
	// ring-health counters instead of the single-daemon ones.
	var ringStats map[string]int64
	if ring != nil {
		ringStats = map[string]int64{}
		for _, name := range []string{
			"nodes", "nodes_healthy", "failovers_total", "migrations_total",
			"replica_rebuilds_total", "replica_divergence_total",
			"program_repushes_total", "node_deaths_total", "drains_total",
			"sessions_lost_total", "ring_down_total",
		} {
			ringStats[strings.TrimSuffix(name, "_total")] = metricValue(page, "dopia_router_"+name)
		}
	}

	// Decision-quality trace: score every launch's chosen DoP against
	// the exhaustive oracle and against what the frozen local model
	// would have picked (the closed-loop-vs-frozen comparison).
	var quality *experiments.RegretReport
	if localModel != nil {
		var trace []experiments.TraceStep
		for _, ts := range traces {
			trace = append(trace, ts...)
		}
		if len(trace) > 0 {
			evals, err := core.EvaluateAll(machine, uniqueWL, 0)
			if err != nil {
				fail("oracle eval: %v", err)
			}
			quality, err = experiments.EvalTrace(machine, evals, localModel, trace)
			if err != nil {
				fail("quality trace: %v", err)
			}
			fmt.Printf("dopia-load: decision quality %.4f (frozen %.4f, gap closed %.2f%%, %d explored)\n",
				quality.MeanQuality, quality.FrozenQuality, 100*quality.GapClosed, quality.Explored)
		}
	}

	snap := latency.Snapshot()
	report := map[string]any{
		"bench":       "dopia-load",
		"machine":     *machineName,
		"concurrency": *concurrency,
		"duration_sec": func() float64 {
			return duration.Seconds()
		}(),
		"mix":            strings.Split(*mix, ","),
		"n":              *size,
		"wg":             *wgSize,
		"protocol":       protocol,
		"launches":       launches.Load(),
		"request_errors": reqErrors.Load(),
		"retries":        retries.Load(),
		"mismatches":     mismatches.Load(),
		"throughput_rps": float64(launches.Load()) / duration.Seconds(),
		"latency_ms": map[string]float64{
			"p50":  snap.P50() * 1e3,
			"p95":  snap.P95() * 1e3,
			"p99":  snap.P99() * 1e3,
			"mean": snap.Mean() * 1e3,
		},
		"rungs": func() map[string]int64 {
			out := map[string]int64{}
			rungs.Range(func(k, v any) bool {
				out[k.(string)] = v.(*atomic.Int64).Load()
				return true
			})
			return out
		}(),
		"server": map[string]int64{
			"panics_contained":  panics,
			"watchdog_timeouts": timeouts,
			"fallback_plain":    plain,
			"bytes_in":          bytesIn,
			"bytes_out":         bytesOut,
		},
		"health_polls_ok": healthPolls,
	}
	if *mixSchedule != "" {
		report["mix_schedule"] = *mixSchedule
	}
	if *onlineOn {
		report["online"] = map[string]int64{
			"learned":      metricValue(page, "dopia_online_learned_total"),
			"explorations": metricValue(page, "dopia_online_explorations_total"),
		}
	}
	if quality != nil {
		report["quality"] = quality
	}
	if ring != nil {
		report["cluster"] = ringStats
		report["chaos"] = *chaosSpec
		report["client_retries"] = client.Retries()
		delete(report, "server") // single-daemon counters live on the members
	}
	raw, _ := json.MarshalIndent(report, "", "  ")
	fmt.Println(string(raw))
	if *out != "" {
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			fail("writing %s: %v", *out, err)
		}
		fmt.Printf("dopia-load: report written to %s\n", *out)
	}

	if embedded != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := embedded.Shutdown(sctx); err != nil {
			fail("drain: %v", err)
		}
		_ = mixed.Shutdown(sctx)
	}
	if ring != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := ring.Shutdown(sctx); err != nil {
			fail("cluster drain: %v", err)
		}
	}

	switch {
	case mismatches.Load() > 0:
		fail("FAIL: %d bit-exactness mismatches", mismatches.Load())
	case reqErrors.Load() > 0:
		fail("FAIL: %d request errors", reqErrors.Load())
	case panics > 0:
		fail("FAIL: server contained %d panics", panics)
	case launches.Load() == 0:
		fail("FAIL: no launches completed")
	case ring != nil && ringStats["sessions_lost"] != 0:
		fail("FAIL: router lost %d sessions", ringStats["sessions_lost"])
	case ring != nil && ringStats["replica_divergence"] != 0:
		fail("FAIL: %d replica divergences", ringStats["replica_divergence"])
	}
	if ring != nil {
		fmt.Printf("dopia-load: PASS — %d launches verified bit-identical across %d/%d healthy nodes "+
			"(%d failovers, %d migrations, 0 sessions lost, %d client retries)\n",
			launches.Load(), ringStats["nodes_healthy"], ringStats["nodes"],
			ringStats["failovers"], ringStats["migrations"], client.Retries())
		return
	}
	fmt.Printf("dopia-load: PASS — %d launches verified bit-identical (%d retries, %d health polls)\n",
		launches.Load(), retries.Load(), healthPolls)
}

// refOracle is the shared, memoized sequential reference for one
// workload. Every tenant of a workload replays the identical launch
// sequence over the identical deterministic inputs, so the expected
// output bytes of launch k are a pure function of (workload, k) — the
// oracle computes each launch's outputs once on its private in-process
// executor and serves every tenant from the memo, instead of each
// tenant re-running the whole sequential replay.
type refOracle struct {
	mu      sync.Mutex
	exec    *interp.Exec
	outputs map[string]*interp.Buffer // live local buffers, by wire name
	steps   []map[string][]byte       // per launch index: name -> raw LE bytes
}

func newRefOracle(w *workloads.Workload) (*refOracle, error) {
	inst, err := w.Setup()
	if err != nil {
		return nil, err
	}
	k, err := w.CompileKernel()
	if err != nil {
		return nil, err
	}
	ex, err := interp.NewExec(k)
	if err != nil {
		return nil, err
	}
	if err := ex.Bind(inst.Args...); err != nil {
		return nil, err
	}
	if err := ex.Launch(inst.ND); err != nil {
		return nil, err
	}
	o := &refOracle{exec: ex, outputs: map[string]*interp.Buffer{}}
	for _, i := range inst.OutputArgs {
		o.outputs[fmt.Sprintf("b%d", i)] = inst.Args[i].Buf
	}
	return o, nil
}

// get returns the expected output bytes after launch idx (0-based),
// extending the replay as needed. The returned maps are immutable.
func (o *refOracle) get(idx int) (map[string][]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for len(o.steps) <= idx {
		if err := o.exec.Run(); err != nil {
			return nil, fmt.Errorf("reference replay step %d: %w", len(o.steps), err)
		}
		snap := make(map[string][]byte, len(o.outputs))
		for name, b := range o.outputs {
			var raw []byte
			if b.F32 != nil {
				raw = make([]byte, 4*len(b.F32))
				server.F32ToLE(raw, b.F32)
			} else {
				raw = make([]byte, 4*len(b.I32))
				server.I32ToLE(raw, b.I32)
			}
			snap[name] = raw
		}
		o.steps = append(o.steps, snap)
	}
	return o.steps[idx], nil
}

// tenant is one worker's view of one workload inside a shared session,
// verified against the shared oracle. A worker whose mix drifts holds
// several tenants over one session: each workload's buffers live under
// a "<workload>-" name prefix so they coexist.
type tenant struct {
	client     *server.Client    // JSON mode
	bin        *server.BinClient // binary mode
	sid        string
	prefix     string // buffer-name prefix inside the shared session
	progID     string
	kernel     string
	deadlineMS int64
	// idemPrefix, when set (cluster mode), stamps every launch with a
	// unique idempotency key so cross-failover retries dedupe.
	idemPrefix string
	idemSeq    int64

	oracle    *refOracle
	launchIdx int

	nd   interp.NDRange
	args []server.LaunchArg
	read []string // buffer names in the launch's Read set (prefixed)
}

// newTenant uploads the workload's deterministic inputs into the shared
// session sid — base64 over JSON, raw little-endian bytes over the
// binary protocol.
func newTenant(c *server.Client, bin *server.BinClient, w *workloads.Workload, progID string, oracle *refOracle, deadlineMS int64, sid string) (*tenant, error) {
	inst, err := w.Setup()
	if err != nil {
		return nil, err
	}
	k, err := w.CompileKernel()
	if err != nil {
		return nil, err
	}
	t := &tenant{
		client: c, bin: bin, sid: sid, prefix: w.Name + "-", progID: progID, kernel: w.Kernel,
		deadlineMS: deadlineMS, oracle: oracle, nd: inst.ND,
	}

	isOutput := map[int]bool{}
	for _, i := range inst.OutputArgs {
		isOutput[i] = true
	}
	for i, a := range inst.Args {
		if !a.IsBuf {
			param := k.Params[i]
			wa := server.LaunchArg{}
			if param.Type.Kind.IsFloat() {
				v := a.Val.F
				wa.Float = &v
			} else {
				v := a.Val.I
				wa.Int = &v
			}
			t.args = append(t.args, wa)
			continue
		}
		name := fmt.Sprintf("%sb%d", t.prefix, i)
		if err := t.uploadBuffer(name, a.Buf); err != nil {
			return nil, fmt.Errorf("arg %d: %w", i, err)
		}
		t.args = append(t.args, server.LaunchArg{Buf: name})
		if isOutput[i] {
			t.read = append(t.read, name)
		}
	}
	return t, nil
}

func (t *tenant) uploadBuffer(name string, b *interp.Buffer) error {
	if t.bin != nil {
		var raw []byte
		kind := byte('f')
		if b.F32 != nil {
			raw = make([]byte, 4*len(b.F32))
			server.F32ToLE(raw, b.F32)
		} else {
			kind = 'i'
			raw = make([]byte, 4*len(b.I32))
			server.I32ToLE(raw, b.I32)
		}
		return t.bin.CreateBufferRaw(t.sid, name, kind, raw)
	}
	req := &server.BufferRequest{Name: name}
	switch {
	case b.F32 != nil:
		req.Kind = "float32"
		req.F32B64 = server.EncodeF32(b.F32)
	case b.I32 != nil:
		req.Kind = "int32"
		req.I32B64 = server.EncodeI32(b.I32)
	default:
		return fmt.Errorf("unsupported buffer element type")
	}
	return t.client.CreateBuffer(t.sid, req)
}

// launchResult is the protocol-neutral slice of a launch outcome the
// load loop cares about.
type launchResult struct {
	rung     string
	decision *server.DecisionInfo
}

// launchOnce fires one launch and verifies its outputs bit-identical
// against the shared oracle. mismatch is non-empty on a verification
// failure; err reports request failures (possibly retryable).
func (t *tenant) launchOnce() (res launchResult, mismatch string, err error) {
	var idem string
	if t.idemPrefix != "" {
		idem = t.idemPrefix + "-" + strconv.FormatInt(t.idemSeq, 10)
		t.idemSeq++
	}
	if t.bin != nil {
		resp, err := t.bin.Launch(&server.BinLaunch{
			SessionID: t.sid, ProgramID: t.progID, Kernel: t.kernel,
			Args:       t.args,
			Global:     t.nd.Global[:t.nd.Dims],
			Local:      t.nd.Local[:t.nd.Dims],
			Read:       t.read,
			DeadlineMS: uint32(t.deadlineMS),
			IdemKey:    idem,
		})
		if err != nil {
			return launchResult{}, "", err
		}
		want, err := t.oracle.get(t.launchIdx)
		if err != nil {
			return launchResult{}, "", err
		}
		t.launchIdx++
		got := map[string][]byte{}
		for _, bv := range resp.Bufs {
			got[bv.Name] = bv.Raw
		}
		for name, w := range want {
			g, ok := got[t.prefix+name]
			if !ok {
				return launchResult{}, fmt.Sprintf("response missing buffer %q", t.prefix+name), nil
			}
			if !bytes.Equal(g, w) {
				return launchResult{}, fmt.Sprintf("buffer %q differs from reference (rung %s, engine %s)",
					t.prefix+name, resp.Rung, resp.Engine), nil
			}
		}
		return launchResult{rung: resp.Rung, decision: resp.Decision}, "", nil
	}

	resp, err := t.client.Launch(&server.LaunchRequest{
		SessionID: t.sid, ProgramID: t.progID, Kernel: t.kernel,
		Args:       t.args,
		Global:     t.nd.Global[:t.nd.Dims],
		Local:      t.nd.Local[:t.nd.Dims],
		Read:       t.read,
		DeadlineMS: t.deadlineMS,
		IdemKey:    idem,
	})
	if err != nil {
		return launchResult{}, "", err
	}
	// Advance the oracle only after the server launch succeeded, so a
	// retried 429 doesn't desynchronize accumulating kernels.
	want, err := t.oracle.get(t.launchIdx)
	if err != nil {
		return launchResult{}, "", err
	}
	t.launchIdx++
	for name, w := range want {
		remote, ok := resp.Buffers[t.prefix+name]
		if !ok {
			return launchResult{}, fmt.Sprintf("response missing buffer %q", t.prefix+name), nil
		}
		b64 := remote.F32B64
		if b64 == "" {
			b64 = remote.I32B64
		}
		g, derr := base64.StdEncoding.DecodeString(b64)
		if derr != nil || !bytes.Equal(g, w) {
			return launchResult{}, fmt.Sprintf("buffer %q differs from reference (rung %s, engine %s)",
				t.prefix+name, resp.Rung, resp.Engine), nil
		}
	}
	return launchResult{rung: resp.Rung, decision: resp.Decision}, "", nil
}

// mixSched is the piecewise workload mix of a run: segments ordered by
// activation offset. With a single segment it reduces to the classic
// fixed -mix behavior.
type mixSched []mixSegment

type mixSegment struct {
	atMS  int64
	names []string
	wls   []*workloads.Workload
}

// mixAliases are the drifting-mix shorthands of the headline scenario:
// a Polybench-heavy phase and an irregular SpMV/PageRank-heavy phase.
var mixAliases = map[string]string{
	"poly": "GESUMMV+ATAX1+BICG1+MVT1",
	"spmv": "SpMV+PageRank",
}

// buildSchedule resolves -mix / -mix-schedule into a schedule. spec
// segments look like "poly@0,spmv@2000": alias-or-name@offsetMS, with
// explicit multi-workload segments joined by '+'.
func buildSchedule(mix, spec string, n, wg int) (mixSched, error) {
	all, err := workloads.RealWorkloads(n, wg)
	if err != nil {
		return nil, err
	}
	byName := map[string]*workloads.Workload{}
	var names []string
	for i, d := range workloads.RealDescs() {
		byName[d.Name] = all[i]
		names = append(names, d.Name)
	}
	resolve := func(joined string) ([]string, []*workloads.Workload, error) {
		var segNames []string
		var wls []*workloads.Workload
		for _, name := range strings.FieldsFunc(joined, func(r rune) bool { return r == '+' || r == ',' }) {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			w, ok := byName[name]
			if !ok {
				return nil, nil, fmt.Errorf("unknown workload %q; available: %s", name, strings.Join(names, ", "))
			}
			segNames = append(segNames, name)
			wls = append(wls, w)
		}
		if len(wls) == 0 {
			return nil, nil, fmt.Errorf("empty workload mix")
		}
		return segNames, wls, nil
	}

	if spec == "" {
		segNames, wls, err := resolve(mix)
		if err != nil {
			return nil, err
		}
		return mixSched{{names: segNames, wls: wls}}, nil
	}
	var sched mixSched
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		token, at, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("mix-schedule segment %q: want name@offsetMS", part)
		}
		ms, err := strconv.ParseInt(strings.TrimSpace(at), 10, 64)
		if err != nil || ms < 0 {
			return nil, fmt.Errorf("mix-schedule segment %q: bad offset %q", part, at)
		}
		if alias, ok := mixAliases[strings.ToLower(strings.TrimSpace(token))]; ok {
			token = alias
		}
		segNames, wls, err := resolve(token)
		if err != nil {
			return nil, err
		}
		sched = append(sched, mixSegment{atMS: ms, names: segNames, wls: wls})
	}
	if len(sched) == 0 {
		return nil, fmt.Errorf("empty -mix-schedule")
	}
	sort.Slice(sched, func(i, j int) bool { return sched[i].atMS < sched[j].atMS })
	if sched[0].atMS != 0 {
		return nil, fmt.Errorf("-mix-schedule must have a segment at offset 0 (first is at %dms)", sched[0].atMS)
	}
	return sched, nil
}

// at returns worker's workload under the segment active at elapsed.
func (s mixSched) at(elapsed time.Duration, worker int) *workloads.Workload {
	cur := s[0]
	el := elapsed.Milliseconds()
	for _, seg := range s[1:] {
		if el < seg.atMS {
			break
		}
		cur = seg
	}
	return cur.wls[worker%len(cur.wls)]
}

// unique lists each distinct workload once, in first-use order.
func (s mixSched) unique() []*workloads.Workload {
	seen := map[string]bool{}
	var out []*workloads.Workload
	for _, seg := range s {
		for _, w := range seg.wls {
			if !seen[w.Name] {
				seen[w.Name] = true
				out = append(out, w)
			}
		}
	}
	return out
}

func (s mixSched) String() string {
	var parts []string
	for _, seg := range s {
		p := strings.Join(seg.names, "+")
		if len(s) > 1 {
			p += fmt.Sprintf("@%dms", seg.atMS)
		}
		parts = append(parts, p)
	}
	return strings.Join(parts, ",")
}

// embedServer starts an in-process daemon on a loopback listener. The
// mixed server sniffs each connection's first byte, so the same port
// serves both HTTP/JSON and the binary protocol.
func embedServer(cfg server.Config) (string, *server.Server, *server.MixedServer, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return "", nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	ms := server.NewMixedServer(srv)
	go func() { _ = ms.Serve(ln) }()
	return "http://" + ln.Addr().String(), srv, ms, nil
}

// metricValue extracts one un-labeled sample from a text metrics page.
func metricValue(page, name string) int64 {
	for _, line := range strings.Split(page, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return int64(v)
			}
		}
	}
	return -1
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dopia-load: "+format+"\n", args...)
	os.Exit(1)
}
