// Command dopia-serve runs the Dopia-as-a-service daemon: an HTTP/JSON
// front end over the full management stack (program analysis, malleable
// transform, model-driven DoP selection, co-execution simulation, and
// the fail-open ladder), multi-tenant by construction. Sessions own
// their buffers and command queues; compiled artifacts — program dedup
// and each kernel's analysis, malleable code and compiled forms — are
// shared process-wide.
//
// The model is either trained at startup on core.DefaultTrainingSet
// (-model names the family) or loaded from -model-file, such as the
// copy of that DT dopia-train -save-model writes. With -model none and
// no model file the daemon serves with the ALL heuristic (no model),
// which still exercises co-execution.
//
// SIGINT/SIGTERM drain gracefully: the listener closes, admitted
// launches finish (bounded by their deadlines, then -drain-timeout),
// new work is refused with 503.
//
// Any daemon can be a ring member: GET /healthz carries its readiness
// and session count, which is all a dopia-router needs to place
// sessions on it and detect its failure.
// Register it with `dopia-router -nodes <id>=<addr>`.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dopia/internal/core"
	"dopia/internal/ml"
	"dopia/internal/server"
	"dopia/internal/sim"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8034", "listen address")
		machineName  = flag.String("machine", "Kaveri", "machine model: any zoo machine (Kaveri, Skylake, BigLittle, DiscretePCIe, AppleM)")
		modelName    = flag.String("model", "DT", "model family trained at startup: LIN, SVR, DT, RF, or none (ALL heuristic)")
		modelFile    = flag.String("model-file", "", "load a model saved by dopia-train -save-model instead of training")
		queueDepth   = flag.Int("queue-depth", 256, "admission queue capacity")
		workers      = flag.Int("workers", 0, "launch worker pool size (0 = GOMAXPROCS)")
		deadline     = flag.Duration("deadline", 30*time.Second, "default per-request deadline")
		maxDeadline  = flag.Duration("max-deadline", 5*time.Minute, "cap on client-requested deadlines")
		drainTimeout = flag.Duration("drain-timeout", 60*time.Second, "bound on graceful drain after SIGTERM")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		onlineOn = flag.Bool("online", false, "enable the closed-loop online learner (per-session answers from a memo of oracle sweeps, ε-greedy exploration)")
	)
	flag.Parse()

	m, err := sim.MachineByName(*machineName)
	if err != nil {
		log.Fatal(err)
	}

	t0 := time.Now()
	model, err := core.BootstrapModel(m, *modelName, *modelFile)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("dopia-serve: model %s ready in %v", modelDesc(model), time.Since(t0).Round(time.Millisecond))

	scfg := server.Config{
		Machine:         m,
		Model:           model,
		QueueDepth:      *queueDepth,
		Workers:         *workers,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		Online:          *onlineOn,
	}
	if *onlineOn {
		log.Printf("dopia-serve: online learner on")
	}
	srv, err := server.New(scfg)
	if err != nil {
		log.Fatal(err)
	}

	handler := srv.Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		mountPprof(mux)
		log.Printf("dopia-serve: pprof mounted at /debug/pprof/")
		mux.Handle("/", handler)
		handler = mux
	}

	// One listener serves both protocols: the first byte of each
	// connection routes it to the binary handler or the HTTP server.
	ms := server.NewMixedServer(srv)
	ms.HTTPServer().Handler = handler
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("dopia-serve: listen: %v", err)
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("dopia-serve: listening on %s (HTTP/JSON + binary; machine %s, model %s)",
			*addr, m.Name, modelDesc(model))
		errCh <- ms.Serve(ln)
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("dopia-serve: %v received, draining (bound %v)...", s, *drainTimeout)
	case err := <-errCh:
		log.Fatalf("dopia-serve: listener failed: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Refuse new launches first. /healthz keeps answering through the
	// drain with ready=false, but a router does not wait for its probe:
	// the 503 "draining" its next launch here gets reads to it as a node
	// failure, so it condemns this member and fails its sessions over to
	// their replicas (none is lost, none is handed over as a drain would)
	// while admitted work finishes.
	drainErr := srv.Shutdown(ctx)
	if err := ms.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("dopia-serve: shutdown: %v", err)
	}
	if drainErr != nil {
		log.Fatalf("dopia-serve: %v", drainErr)
	}
	log.Printf("dopia-serve: drained cleanly; final ladder: %s", srv.Framework().Stats.Snapshot())
}

// mountPprof registers the net/http/pprof handlers on mux — opt-in
// (behind -pprof) so the profiling surface is never exposed by default.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

func modelDesc(model ml.Model) string {
	if model == nil {
		return "none/ALL"
	}
	return model.Name()
}
