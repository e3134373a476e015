package cluster

// A cluster Node is one dopia-serve daemon bound to a real loopback
// listener. The router and the chaos controller treat it as a full
// network peer: killing it closes the TCP listener mid-request
// (in-flight connections drop, exactly like a crashed process), slowing
// it injects latency in front of every request, and partitioning it
// fails the router's /healthz probe while the data path stays up.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"dopia/internal/server"
)

// NodeConfig parameterizes one simulated cluster member.
type NodeConfig struct {
	// ID names the member on the ring (required).
	ID string
	// Server configures the embedded daemon (Machine required).
	Server server.Config
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
}

// Node is one running cluster member.
type Node struct {
	ID  string
	URL string

	Srv *server.Server

	ln          net.Listener
	hs          *http.Server
	slowNS      atomic.Int64
	partitioned atomic.Bool
	killed      atomic.Bool
}

// StartNode boots a member: daemon core and loopback HTTP listener. It
// is born ready; a router routes to it from its first answered probe.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster: NodeConfig.ID is required")
	}
	srv, err := server.New(cfg.Server)
	if err != nil {
		return nil, err
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %s: %w", cfg.ID, err)
	}
	n := &Node{
		ID:  cfg.ID,
		URL: "http://" + ln.Addr().String(),
		Srv: srv,
		ln:  ln,
	}
	n.hs = &http.Server{Handler: n.faultMiddleware(srv.Handler())}
	go func() { _ = n.hs.Serve(ln) }()
	return n, nil
}

// faultMiddleware applies the node's injected faults in front of every
// request: the node.slow latency, and the node.partition probe blackout.
func (n *Node) faultMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d := time.Duration(n.slowNS.Load()); d > 0 {
			time.Sleep(d)
		}
		if r.URL.Path == "/healthz" && n.partitioned.Load() {
			http.Error(w, "partitioned", http.StatusServiceUnavailable)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// Kill simulates a crash: the listener closes immediately, dropping
// in-flight connections. The daemon core is not drained — exactly like
// a killed process, whatever was mid-launch is simply gone from the
// caller's perspective.
func (n *Node) Kill() {
	if n.killed.Swap(true) {
		return
	}
	_ = n.hs.Close()
}

// SetSlow sets the per-request injected latency (0 clears it).
func (n *Node) SetSlow(d time.Duration) { n.slowNS.Store(int64(d)) }

// SetPartitioned toggles a partition from the failure detector: the
// member keeps serving launches but stops answering the router's probe,
// so the router ages it to dead.
func (n *Node) SetPartitioned(p bool) { n.partitioned.Store(p) }

// BeginDrain flips the member unready. The router's next probe reads
// the flag and it hands the node's sessions to their replicas, after
// which Shutdown completes the drain.
func (n *Node) BeginDrain() { n.Srv.SetReady(false) }

// Shutdown drains and stops a live member gracefully. A killed member
// just has its daemon core reaped.
func (n *Node) Shutdown(ctx context.Context) error {
	if !n.killed.Swap(true) {
		defer func() { _ = n.hs.Close() }()
	}
	return n.Srv.Shutdown(ctx)
}
