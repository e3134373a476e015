package cluster

// A cluster Node is one dopia-serve daemon plus a gossip agent, bound
// to a real loopback listener. The router and the chaos controller
// treat it as a full network peer: killing it closes the TCP listener
// mid-request (in-flight connections drop, exactly like a crashed
// process), slowing it injects latency in front of every request, and
// partitioning it silences its gossip while the data path stays up.

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
	// StartUnready is forced: a member is born unready and flips ready
	// when it joins the mesh.
	Server server.Config
	// Gossip configures the member's agent.
	Gossip GossipConfig
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
}

// Node is one running cluster member.
type Node struct {
	ID  string
	URL string

	Srv   *server.Server
	Agent *Agent

	ln     net.Listener
	hs     *http.Server
	slowNS atomic.Int64
	killed atomic.Bool
}

// StartNode boots a member: daemon core, gossip agent, loopback HTTP
// listener. The node is serving but unready until Join.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID == "" {
		return nil, fmt.Errorf("cluster: NodeConfig.ID is required")
	}
	cfg.Server.StartUnready = true
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
	n.Agent = NewAgent(cfg.ID, n.URL, cfg.Gossip, func() (bool, int, []string) {
		return srv.Ready(), srv.SessionCount(), srv.ProgramIDs()
	})

	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/v1/gossip", n.Agent.Handler())
	mux.Handle("/", srv.Handler())
	n.hs = &http.Server{Handler: n.slowMiddleware(mux)}
	go func() { _ = n.hs.Serve(ln) }()
	return n, nil
}

// slowMiddleware injects the node's current artificial latency in
// front of every request — the node.slow fault class.
func (n *Node) slowMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d := time.Duration(n.slowNS.Load()); d > 0 {
			time.Sleep(d)
		}
		next.ServeHTTP(w, r)
	})
}

// Join connects the member to the mesh: seed the agent with peer
// addresses, flip ready, start gossiping, and run one synchronous round
// so the view is primed. Ready flips before the first round so the
// member never announces itself unready: an unready record that a peer
// relays after a router's own readiness probe outranks the probe, and
// the router's janitor then drains a healthy member.
func (n *Node) Join(peers []string) {
	n.Agent.SeedPeers(peers)
	n.Srv.SetReady(true)
	n.Agent.Start()
	n.Agent.GossipNow()
}

// Kill simulates a crash: gossip stops and the listener closes
// immediately, dropping in-flight connections. The daemon core is not
// drained — exactly like a killed process, whatever was mid-launch is
// simply gone from the caller's perspective.
func (n *Node) Kill() {
	if n.killed.Swap(true) {
		return
	}
	n.Agent.Stop()
	_ = n.hs.Close()
}

// SetSlow sets the per-request injected latency (0 clears it).
func (n *Node) SetSlow(d time.Duration) { n.slowNS.Store(int64(d)) }

// SetPartitioned toggles a gossip partition: the member keeps serving
// launches but falls silent on the mesh, so observers age it to dead.
func (n *Node) SetPartitioned(p bool) { n.Agent.SetPartitioned(p) }

// BeginDrain flips the member unready. Gossip spreads the flag; the
// router reacts by migrating the node's primaries away, after which
// Shutdown completes the drain.
func (n *Node) BeginDrain() { n.Srv.SetReady(false) }

// Shutdown drains and stops a live member gracefully. A killed member
// just has its daemon core reaped.
func (n *Node) Shutdown(ctx context.Context) error {
	if !n.killed.Swap(true) {
		n.Agent.Stop()
		defer func() { _ = n.hs.Close() }()
	}
	return n.Srv.Shutdown(ctx)
}
