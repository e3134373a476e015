package cluster

// Local boots a whole cluster in one process on loopback listeners —
// a router plus N member nodes ("n0".."nN-1") — for tests, the
// cluster-smoke CI job, and dopia-load's multi-node mode. Every
// component is the real thing (real HTTP, real probes, real daemon
// cores); only the machine is simulated, same as single-node dopia.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"dopia/internal/server"
)

// LocalConfig parameterizes a local cluster.
type LocalConfig struct {
	// Nodes is the member count (default 4).
	Nodes int
	// Server templates each member's daemon config (Machine required).
	Server server.Config
	// Router configures the front door.
	Router RouterConfig
}

// Local is a running in-process cluster.
type Local struct {
	Router    *Router
	RouterURL string
	Nodes     []*Node

	hs *http.Server
	ln net.Listener
}

// StartLocal boots the members, registers them with the router, and
// serves the router on loopback.
func StartLocal(cfg LocalConfig) (*Local, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	l, err := StartNodes(cfg.Nodes, cfg.Server)
	if err != nil {
		return nil, err
	}

	l.Router = NewRouter(cfg.Router)
	for _, n := range l.Nodes {
		if err := l.Router.AddNode(n.ID, n.URL); err != nil {
			l.shutdownNodes()
			return nil, err
		}
	}
	l.Router.Start()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		l.Router.Close()
		l.shutdownNodes()
		return nil, err
	}
	l.ln = ln
	l.RouterURL = "http://" + ln.Addr().String()
	l.hs = &http.Server{Handler: l.Router.Handler()}
	go func() { _ = l.hs.Serve(ln) }()
	return l, nil
}

// StartNodes boots count members, "n0".."n<count-1>", each serving cfg
// with a private Machine: identical parameters (bit-exactness needs
// that), independent object. The Local it returns has no router. On an
// error it shuts down the members it started.
func StartNodes(count int, cfg server.Config) (*Local, error) {
	l := &Local{}
	for i := 0; i < count; i++ {
		id := fmt.Sprintf("n%d", i)
		scfg := cfg
		var err error
		if cfg.Machine != nil {
			scfg.Machine, err = cfg.Machine.ToJSON().Build()
		}
		var n *Node
		if err == nil {
			n, err = StartNode(NodeConfig{ID: id, Server: scfg})
		}
		if err != nil {
			l.shutdownNodes()
			return nil, fmt.Errorf("member %s: %w", id, err)
		}
		l.Nodes = append(l.Nodes, n)
	}
	return l, nil
}

// Node returns the member with the given ID (nil if unknown).
func (l *Local) Node(id string) *Node {
	for _, n := range l.Nodes {
		if n.ID == id {
			return n
		}
	}
	return nil
}

// Client returns an API client pointed at the router.
func (l *Local) Client() *server.Client {
	return server.NewClient(l.RouterURL, nil)
}

// Shutdown stops the router and every member. ctx bounds each
// member's drain.
func (l *Local) Shutdown(ctx context.Context) error {
	if l.hs != nil {
		_ = l.hs.Close()
	}
	if l.Router != nil {
		l.Router.Close()
	}
	var firstErr error
	for _, n := range l.Nodes {
		if err := n.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (l *Local) shutdownNodes() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, n := range l.Nodes {
		_ = n.Shutdown(ctx)
	}
}
