// Command dopia-router runs the cluster front door: a stateless-ish
// routing tier that places tenant sessions on a ring of dopia-serve
// members by consistent hashing, probes member health, replicates
// every session to a successor node, and fails sessions over — with
// idempotency keys making retried launches apply exactly once — when a
// member dies mid-launch. Clients speak the ordinary dopia-serve
// HTTP/JSON protocol to the router; the cluster is invisible to them
// except for surviving node failures.
//
// Two ways to form a ring:
//
//   - -local N boots N in-process member nodes on loopback listeners
//     (the zero-setup mode: `dopia-router -local 4` is a whole cluster).
//     -chaos injects a deterministic fault schedule against them.
//   - -nodes id=addr,... registers externally running dopia-serve
//     daemons; the router needs nothing from a member but its address.
//
// SIGINT/SIGTERM drain gracefully: the router listener closes, then
// local members (if any) drain their admitted launches.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dopia/internal/cluster"
	"dopia/internal/server"
	"dopia/internal/sim"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8040", "router listen address")
		nodeSpec     = flag.String("nodes", "", "comma-separated id=addr dopia-serve members to register")
		local        = flag.Int("local", 0, "boot N in-process member nodes instead of joining external ones")
		machineName  = flag.String("machine", "Kaveri", "machine model for -local members: any zoo machine")
		chaosSpec    = flag.String("chaos", "", "fault schedule against -local members, e.g. kill:n1@3s,slow:n2@1s:2s:30ms")
		janitorEvery = flag.Duration("janitor-interval", 100*time.Millisecond, "probe-and-repair loop period")
		callTimeout  = flag.Duration("call-timeout", 15*time.Second, "per-request timeout on member calls")
		drainTimeout = flag.Duration("drain-timeout", 60*time.Second, "bound on graceful drain after SIGTERM")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()

	if *local <= 0 && *nodeSpec == "" {
		log.Fatal("dopia-router: need members: -local N or -nodes id=addr,...")
	}
	if *chaosSpec != "" && *local <= 0 {
		log.Fatal("dopia-router: -chaos needs -local members to inject into")
	}

	router := cluster.NewRouter(cluster.RouterConfig{
		CallTimeout:     *callTimeout,
		JanitorInterval: *janitorEvery,
	})

	// Local members serve with the ALL heuristic: DoP choice never
	// affects results, which are bit-exact by construction, so they skip
	// model training.
	members := &cluster.Local{}
	if *local > 0 {
		m, err := sim.MachineByName(*machineName)
		if err != nil {
			log.Fatalf("dopia-router: %v", err)
		}
		if members, err = cluster.StartNodes(*local, server.Config{Machine: m}); err != nil {
			log.Fatalf("dopia-router: %v", err)
		}
	}
	for _, n := range members.Nodes {
		if err := router.AddNode(n.ID, n.URL); err != nil {
			log.Fatalf("dopia-router: register %s: %v", n.ID, err)
		}
		log.Printf("dopia-router: member %s at %s (local)", n.ID, n.URL)
	}
	external, err := parseNodeSpec(*nodeSpec)
	if err != nil {
		log.Fatalf("dopia-router: %v", err)
	}
	for _, m := range external {
		if err := router.AddNode(m.id, m.addr); err != nil {
			log.Fatalf("dopia-router: register %s: %v", m.id, err)
		}
		log.Printf("dopia-router: member %s at %s", m.id, m.addr)
	}
	router.Start()

	if *chaosSpec != "" {
		events, err := cluster.ParseChaosSpec(*chaosSpec)
		if err != nil {
			log.Fatalf("dopia-router: %v", err)
		}
		ctrl := cluster.NewChaosController(events, members.Node, log.Printf)
		go func() { _ = ctrl.Run(context.Background()) }()
	}

	handler := router.Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("dopia-router: pprof mounted at /debug/pprof/")
	}
	hs := &http.Server{Addr: *addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("dopia-router: listening on http://%s (%d members)",
			*addr, len(members.Nodes)+len(external))
		errCh <- hs.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("dopia-router: %v received, draining (bound %v)...", s, *drainTimeout)
	case err := <-errCh:
		log.Fatalf("dopia-router: listener failed: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("dopia-router: http shutdown: %v", err)
	}
	router.Close()
	for _, n := range members.Nodes {
		if err := n.Shutdown(ctx); err != nil {
			log.Printf("dopia-router: member %s drain: %v", n.ID, err)
		}
	}
	log.Printf("dopia-router: drained cleanly")
}

type member struct{ id, addr string }

// parseNodeSpec parses "id=addr,id=addr" member lists.
func parseNodeSpec(spec string) ([]member, error) {
	var out []member
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -nodes entry %q: want id=addr", part)
		}
		if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
			addr = "http://" + addr
		}
		out = append(out, member{id: id, addr: addr})
	}
	return out, nil
}
