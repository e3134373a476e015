package cluster

// Router is the cluster front door. It speaks the same HTTP/JSON
// protocol as a single dopia-serve node, so every existing client
// (dopia-load included) points at it unchanged; behind it, sessions
// are placed on the ring by consistent hash, every state-changing
// request is applied to a primary and mirrored to a replica node, and
// node failures are absorbed by promoting the replica and retrying
// under the same idempotency key — one logical launch applies exactly
// once per node no matter how many times the wire saw it.
//
// Failure policy follows the fail-open ladder philosophy of the
// single-node stack: any healthy node can serve any session (programs
// are content-addressed and re-pushable, session state is replicated),
// so the router degrades by moving work, not by refusing it. Only when
// the whole ring is unhealthy does it answer 503 with Retry-After.
//
// Lock ordering: a placement's mu may be held while briefly taking
// router.mu (node/source snapshots); never the reverse. Launches of
// one session serialize on placement.mu, which is also what makes a
// drain's hand-over atomic with respect to in-flight launches.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dopia/internal/faults"
	"dopia/internal/lru"
	"dopia/internal/server"
)

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// CallTimeout bounds one proxied node call (default 15s).
	CallTimeout time.Duration
	// JanitorInterval paces the repair loop: one /healthz probe of every
	// member, then dead-node failover and drain hand-over off the answers
	// (default 100ms). The member table's thresholds are multiples of it
	// (members.go).
	JanitorInterval time.Duration
}

func (c *RouterConfig) fillDefaults() {
	if c.CallTimeout <= 0 {
		c.CallTimeout = 15 * time.Second
	}
	if c.JanitorInterval <= 0 {
		c.JanitorInterval = 100 * time.Millisecond
	}
}

const (
	// ringVnodes is each member's virtual node count on the placement ring.
	ringVnodes = 64
	// ringDownRetryAfter is the Retry-After hint on ring-down 503s.
	ringDownRetryAfter = time.Second
)

// placement is one logical session's location: a primary node serving
// it and a replica node holding a bit-identical copy. placement.mu
// serializes launches, migration, and failover of the session.
type placement struct {
	mu      sync.Mutex
	id      string
	primary string
	replica string
	// lost marks a session whose primary died with no live replica —
	// the zero-loss invariant violated. Counted, never silently dropped.
	lost bool
}

type routerMetrics struct {
	launches          atomic.Int64
	launchErrors      atomic.Int64
	failovers         atomic.Int64
	migrations        atomic.Int64
	replicaRebuilds   atomic.Int64
	replicaDivergence atomic.Int64
	programPushes     atomic.Int64
	programRepushes   atomic.Int64
	ringDown          atomic.Int64
	nodeDeaths        atomic.Int64
	drains            atomic.Int64
	sessionsLost      atomic.Int64
}

// sourceRegistryCap bounds the router's source registry at the members'
// own program-registry bound. A launch touches its program here, so the
// router forgets the least recently launched source first; a launch of a
// forgotten program fails with the member's 404 until it is registered
// again.
const sourceRegistryCap = 256

// Router places sessions, mirrors state, and repairs the ring.
type Router struct {
	cfg    RouterConfig
	ring   *Ring
	hc     *http.Client // data path
	hzc    *http.Client // probes
	limits server.BodyLimits
	mux    *http.ServeMux
	start  time.Time

	mu         sync.Mutex
	members    map[string]*member
	placements map[string]*placement
	// sources holds program ID -> source for (re-)push, least recently
	// launched first out. Locks itself; not guarded by mu.
	sources *lru.Cache[string, string]

	nextSession atomic.Int64
	nextIdem    atomic.Int64
	met         routerMetrics

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewRouter builds a router with an empty ring; add members with
// AddNode, then Start the repair loop.
func NewRouter(cfg RouterConfig) *Router {
	cfg.fillDefaults()
	r := &Router{
		cfg:        cfg,
		ring:       NewRing(ringVnodes),
		hc:         &http.Client{Timeout: cfg.CallTimeout},
		hzc:        &http.Client{Timeout: probeTimeoutTicks * cfg.JanitorInterval},
		limits:     server.DefaultBodyLimits(),
		start:      time.Now(),
		members:    map[string]*member{},
		placements: map[string]*placement{},
		sources:    lru.New[string, string](sourceRegistryCap, nil),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}

	m := http.NewServeMux()
	m.HandleFunc("POST /v1/programs", r.handleProgram)
	m.HandleFunc("POST /v1/sessions", r.handleCreateSession)
	m.HandleFunc("DELETE /v1/sessions/{id}", r.handleCloseSession)
	m.HandleFunc("POST /v1/sessions/{id}/buffers", r.handleCreateBuffer)
	m.HandleFunc("GET /v1/sessions/{id}/buffers/{name}", r.handleReadBuffer)
	m.HandleFunc("POST /v1/launch", r.handleLaunch)
	m.HandleFunc("GET /healthz", r.handleHealthz)
	m.HandleFunc("GET /readyz", r.handleReadyz)
	m.HandleFunc("GET /metrics", r.handleMetrics)
	m.HandleFunc("GET /cluster/v1/ring", r.handleRing)
	m.HandleFunc("POST /cluster/v1/drain/{id}", r.handleDrain)
	r.mux = m
	return r
}

// Handler returns the router's HTTP handler.
func (r *Router) Handler() http.Handler { return r.mux }

// AddNode registers a member: probe it once (so a ready member is
// routable without waiting for a janitor tick) and add it to the ring.
// It gets a program when a launch first needs one there.
func (r *Router) AddNode(id, addr string) error {
	if id == "" || addr == "" {
		return fmt.Errorf("cluster: AddNode needs id and addr")
	}
	m := &member{addr: addr, c: server.NewClient(addr, r.hc), hz: server.NewClient(addr, r.hzc)}
	m.observe(m.hz.Healthz())

	r.mu.Lock()
	r.members[id] = m
	r.mu.Unlock()
	r.ring.Add(id)
	return nil
}

// Start launches the janitor.
func (r *Router) Start() {
	r.startOnce.Do(func() {
		go func() {
			defer close(r.done)
			tick := time.NewTicker(r.cfg.JanitorInterval)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					r.janitor()
				case <-r.stop:
					return
				}
			}
		}()
	})
}

// Close stops the janitor.
func (r *Router) Close() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.startOnce.Do(func() { close(r.done) })
	<-r.done
}

// client returns the member's API client.
func (r *Router) client(id string) *server.Client {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.members[id]; ok {
		return m.c
	}
	return nil
}

func (r *Router) placement(sid string) (*placement, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.placements[sid]
	return p, ok
}

// isNodeFailure classifies a proxied-call error: transport errors and
// 5xx (except the request-scoped 504 deadline) mean the node cannot
// serve the session and the router should fail over. 4xx and 429 are
// the caller's problem and pass through.
func isNodeFailure(err error) bool {
	apiErr, ok := err.(*server.APIError)
	if !ok {
		return true // transport: connection refused/reset, timeout
	}
	return apiErr.Status >= 500 && apiErr.Status != http.StatusGatewayTimeout
}

// isMissingProgram detects a 404 caused by an evicted/never-pushed
// program — repaired inline by pushing the stored source. That is the
// only way a program reaches a member after its registration.
func isMissingProgram(err error) bool {
	apiErr, ok := err.(*server.APIError)
	return ok && apiErr.Status == http.StatusNotFound && strings.Contains(apiErr.Message, "no program")
}

// isMissingSession detects a 404 for a session the router believes the
// node holds — state lost on that node (restart, eviction, a direct
// close). That placement fails over; the node itself is not at fault.
func isMissingSession(err error) bool {
	apiErr, ok := err.(*server.APIError)
	return ok && apiErr.Status == http.StatusNotFound && strings.Contains(apiErr.Message, "no session")
}

// pushProgram registers a stored source on one node that a launch found
// without it.
func (r *Router) pushProgram(nodeID, progID string) bool {
	src, ok := r.sources.Get(progID)
	if !ok {
		return false
	}
	c := r.client(nodeID)
	if c == nil {
		return false
	}
	if _, err := c.Compile(src); err != nil {
		return false
	}
	r.met.programRepushes.Add(1)
	return true
}

// failoverLocked moves a placement off a node that can no longer serve
// it. It passes no verdict on the node: callers condemn it first when
// the failure was the node's. Caller holds p.mu. Returns false when the
// session is unrecoverable (primary gone with no replica).
func (r *Router) failoverLocked(p *placement, dead string) bool {
	if p.replica == dead {
		p.replica = ""
	}
	if p.primary != dead {
		return true
	}
	if p.replica != "" {
		p.primary, p.replica = p.replica, ""
		r.met.failovers.Add(1)
		r.rebuildReplicaLocked(p)
		return true
	}
	if !p.lost {
		p.lost = true
		r.met.sessionsLost.Add(1)
	}
	p.primary = ""
	return false
}

// rebuildReplicaLocked re-establishes the second copy: snapshot the
// primary, import on the ring successor. Best-effort — on any failure
// the placement runs replica-less until the janitor's next pass.
// Caller holds p.mu.
func (r *Router) rebuildReplicaLocked(p *placement) {
	p.replica = ""
	if p.primary == "" {
		return
	}
	var target string
	for _, cand := range r.ring.Place(p.id, 3, r.healthy) {
		if cand != p.primary {
			target = cand
			break
		}
	}
	if target == "" {
		return
	}
	pc, tc := r.client(p.primary), r.client(target)
	if pc == nil || tc == nil {
		return
	}
	exp, err := pc.ExportSession(p.id)
	if err != nil {
		return
	}
	if err := tc.ImportSession(exp); err != nil {
		return
	}
	p.replica = target
	r.met.replicaRebuilds.Add(1)
}

// applyReplicaLaunch mirrors a successful launch onto the replica
// under the same idempotency key; determinism makes the copies
// bit-identical, which the router spot-checks via the read-set.
// Caller holds p.mu.
func (r *Router) applyReplicaLaunch(p *placement, req *server.LaunchRequest, raw []byte, primary *server.LaunchResponse) {
	if p.replica == "" {
		return
	}
	c := r.client(p.replica)
	if c == nil {
		p.replica = ""
		return
	}
	// raw carries the idem-key-stamped launch encoded once by
	// handleLaunch — the same bytes the primary saw, no re-encode.
	resp, _, err := c.LaunchRaw(raw)
	if err != nil && isMissingProgram(err) && r.pushProgram(p.replica, req.ProgramID) {
		resp, _, err = c.LaunchRaw(raw)
	}
	if err != nil {
		// A broken mirror is repaired by re-snapshotting, not retried
		// blind: missing session → rebuild in place; node failure →
		// condemn the node and rebuild elsewhere.
		if isNodeFailure(err) {
			r.condemn(p.replica)
		}
		r.rebuildReplicaLocked(p)
		return
	}
	for name, want := range primary.Buffers {
		if got, ok := resp.Buffers[name]; ok && (got.F32B64 != want.F32B64 || got.I32B64 != want.I32B64) {
			r.met.replicaDivergence.Add(1)
		}
	}
}

// ---------- HTTP handlers ----------

func (r *Router) writeError(w http.ResponseWriter, status int, err error) {
	resp := server.ErrorResponse{Error: err.Error()}
	if apiErr, ok := err.(*server.APIError); ok {
		resp.Error, resp.Stage, resp.RetryAfterMS = apiErr.Message, apiErr.Stage, apiErr.RetryAfterMS
	}
	if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
		if resp.RetryAfterMS == 0 {
			resp.RetryAfterMS = ringDownRetryAfter.Milliseconds()
		}
		w.Header().Set("Retry-After", strconv.Itoa(int((time.Duration(resp.RetryAfterMS)*time.Millisecond+time.Second-1)/time.Second)))
	}
	writeJSON(w, status, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeBody answers 200 with a member's JSON body, relayed unchanged.
func writeBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// passThrough relays a proxied-call error with its original status.
func (r *Router) passThrough(w http.ResponseWriter, err error) {
	if apiErr, ok := err.(*server.APIError); ok {
		r.writeError(w, apiErr.Status, err)
		return
	}
	r.writeError(w, http.StatusBadGateway, err)
}

// ringDown answers 503 + Retry-After: every member is dead or unready.
func (r *Router) ringDown(w http.ResponseWriter) {
	r.met.ringDown.Add(1)
	r.writeError(w, http.StatusServiceUnavailable, faults.ErrRingDown)
}

// handleProgram registers source with the router and compiles it on the
// first healthy member that answers; every other member gets it from the
// first launch that needs it there.
func (r *Router) handleProgram(w http.ResponseWriter, req *http.Request) {
	var pr server.ProgramRequest
	if !server.DecodeBody(w, req, r.limits.Program, &pr) {
		return
	}
	if pr.Source == "" {
		r.writeError(w, http.StatusBadRequest, fmt.Errorf("bad program request"))
		return
	}
	id := server.ProgramID(pr.Source)
	_, known := r.sources.Get(id)

	var lastErr error
	for _, nid := range r.memberIDs() {
		if !r.healthy(nid) {
			continue
		}
		out, err := r.client(nid).Compile(pr.Source)
		if err != nil {
			if lastErr = err; isNodeFailure(err) {
				continue
			}
			break
		}
		r.met.programPushes.Add(1)
		r.sources.Put(id, pr.Source)
		out.Cached = known
		writeJSON(w, http.StatusOK, out)
		return
	}
	if lastErr != nil {
		r.passThrough(w, lastErr)
	} else {
		r.ringDown(w)
	}
}

// handleCreateSession places a new session: primary from the ring,
// replica on the successor, both created under one global ID.
func (r *Router) handleCreateSession(w http.ResponseWriter, req *http.Request) {
	var sr server.SessionRequest
	if req.ContentLength != 0 && !server.DecodeBody(w, req, r.limits.Session, &sr) {
		return
	}
	sid := sr.SessionID
	if sid == "" {
		sid = fmt.Sprintf("g-%d", r.nextSession.Add(1))
	}
	r.mu.Lock()
	if _, exists := r.placements[sid]; exists {
		r.mu.Unlock()
		r.writeError(w, http.StatusConflict, fmt.Errorf("session %q already exists", sid))
		return
	}
	total := len(r.members)
	r.mu.Unlock()

	p := &placement{id: sid}
	placed := false
	for attempt := 0; attempt <= total; attempt++ {
		members := r.ring.Place(sid, 2, r.healthy)
		if len(members) == 0 {
			break
		}
		c := r.client(members[0])
		if c == nil {
			break
		}
		if err := c.NewSessionWithID(sid); err != nil {
			if isNodeFailure(err) {
				r.condemn(members[0])
				continue
			}
			r.passThrough(w, err)
			return
		}
		p.primary = members[0]
		if len(members) > 1 {
			if rc := r.client(members[1]); rc != nil && rc.NewSessionWithID(sid) == nil {
				p.replica = members[1]
			}
		}
		placed = true
		break
	}
	if !placed {
		r.ringDown(w)
		return
	}

	r.mu.Lock()
	r.placements[sid] = p
	r.mu.Unlock()
	writeJSON(w, http.StatusOK, server.SessionResponse{SessionID: sid})
}

func (r *Router) handleCloseSession(w http.ResponseWriter, req *http.Request) {
	sid := req.PathValue("id")
	p, ok := r.placement(sid)
	if !ok {
		r.writeError(w, http.StatusNotFound, fmt.Errorf("no session %q", sid))
		return
	}
	p.mu.Lock()
	for _, id := range []string{p.primary, p.replica} {
		if id == "" {
			continue
		}
		if c := r.client(id); c != nil {
			_ = c.CloseSession(sid)
		}
	}
	p.primary, p.replica = "", ""
	p.mu.Unlock()
	r.mu.Lock()
	delete(r.placements, sid)
	r.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"closed": sid})
}

// onPrimary runs call against the placement's primary, failing over and
// calling again for as long as the primary is what failed — condemning
// it when the failure was the node's, leaving it alone when it merely
// lost this session. It reports whether call succeeded; when it did not,
// the error response has been written. Caller holds p.mu.
func (r *Router) onPrimary(p *placement, w http.ResponseWriter, call func(*server.Client) error) bool {
	for {
		if p.primary == "" || p.lost {
			r.ringDown(w)
			return false
		}
		c := r.client(p.primary)
		if c == nil {
			r.ringDown(w)
			return false
		}
		err := call(c)
		if err == nil {
			return true
		}
		switch {
		case isNodeFailure(err):
			r.condemn(p.primary)
		case isMissingSession(err):
			// The member is fine; only this session is gone from it.
		default:
			r.passThrough(w, err)
			return false
		}
		if !r.failoverLocked(p, p.primary) {
			r.ringDown(w)
			return false
		}
	}
}

// handleCreateBuffer applies a buffer create to the primary (with
// failover) and mirrors it to the replica. Buffer fills are
// deterministic (fill_seed) or literal bytes, so both copies are
// bit-identical by construction.
func (r *Router) handleCreateBuffer(w http.ResponseWriter, req *http.Request) {
	sid := req.PathValue("id")
	p, ok := r.placement(sid)
	if !ok {
		r.writeError(w, http.StatusNotFound, fmt.Errorf("no session %q", sid))
		return
	}
	var br server.BufferRequest
	if !server.DecodeBody(w, req, r.limits.Buffer, &br) {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	attempts := 0
	ok = r.onPrimary(p, w, func(c *server.Client) error {
		err := c.CreateBuffer(sid, &br)
		// A failover retry can land on a replica that already applied
		// the mirror write; the duplicate-name 400 is success then.
		if attempts++; attempts > 1 {
			if apiErr, ok := err.(*server.APIError); ok && apiErr.Status == http.StatusBadRequest &&
				strings.Contains(apiErr.Message, "already exists") {
				return nil
			}
		}
		return err
	})
	if !ok {
		return
	}
	if p.replica != "" {
		if c := r.client(p.replica); c != nil {
			if err := c.CreateBuffer(sid, &br); err != nil {
				if isNodeFailure(err) {
					r.condemn(p.replica)
				}
				r.rebuildReplicaLocked(p)
			}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": br.Name, "len": br.Len})
}

func (r *Router) handleReadBuffer(w http.ResponseWriter, req *http.Request) {
	sid, name := req.PathValue("id"), req.PathValue("name")
	p, ok := r.placement(sid)
	if !ok {
		r.writeError(w, http.StatusNotFound, fmt.Errorf("no session %q", sid))
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var body []byte
	ok = r.onPrimary(p, w, func(c *server.Client) (err error) {
		_, body, err = c.ReadBufferRaw(sid, name)
		return err
	})
	if ok {
		writeBody(w, body)
	}
}

// handleLaunch is the hot path: stamp an idempotency key, forward to
// the primary, fail over on node death and retry under the same key
// (exactly-once by the per-session idem cache), then mirror onto the
// replica. Session launches serialize on placement.mu so the replica
// sees the identical order.
func (r *Router) handleLaunch(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(io.LimitReader(req.Body, r.limits.Launch))
	if err != nil {
		r.writeError(w, http.StatusBadRequest, fmt.Errorf("bad launch request"))
		return
	}
	var lr server.LaunchRequest
	if err := json.Unmarshal(body, &lr); err != nil {
		r.writeError(w, http.StatusBadRequest, fmt.Errorf("bad launch request"))
		return
	}
	p, ok := r.placement(lr.SessionID)
	if !ok {
		r.writeError(w, http.StatusNotFound, fmt.Errorf("no session %q", lr.SessionID))
		return
	}
	// Encode the forwarded launch exactly once per logical request: a
	// client-stamped idem key lets the incoming bytes pass through
	// verbatim; otherwise the router stamps a key and re-encodes here,
	// and the same bytes then serve the primary, every failover retry,
	// and the replica mirror.
	raw := body
	if lr.IdemKey == "" {
		lr.IdemKey = "r-" + strconv.FormatInt(r.nextIdem.Add(1), 10)
		if raw, err = json.Marshal(&lr); err != nil {
			r.writeError(w, http.StatusInternalServerError, err)
			return
		}
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	// Mark the program used, as the member running the launch does.
	r.sources.Get(lr.ProgramID)
	var resp *server.LaunchResponse
	var out []byte
	ok = r.onPrimary(p, w, func(c *server.Client) (err error) {
		resp, out, err = c.LaunchRaw(raw)
		if err != nil && isMissingProgram(err) && r.pushProgram(p.primary, lr.ProgramID) {
			resp, out, err = c.LaunchRaw(raw)
		}
		return err
	})
	if !ok {
		r.met.launchErrors.Add(1)
		return
	}
	r.met.launches.Add(1)
	r.applyReplicaLaunch(p, &lr, raw, resp)
	writeBody(w, out)
}

// ---------- repair loop ----------

// janitor is one tick of the repair loop: probe every member, then act
// on the table — dead members are failed over, alive-but-unready members
// are drained (sessions handed to their replicas), and single-copy
// placements are re-replicated.
func (r *Router) janitor() {
	r.probeAll()
	for _, id := range r.memberIDs() {
		var failover, drain bool
		r.mu.Lock()
		m := r.members[id]
		switch st := m.status(); {
		case st == StatusDead:
			failover, m.deadHandled = !m.deadHandled, true
		case st == StatusAlive && m.ready:
			m.deadHandled, m.drainHandled = false, false
		case st == StatusAlive && !m.lastOK.IsZero():
			// Answered and said unready; a member that has never
			// answered has nothing to drain.
			drain, m.drainHandled = !m.drainHandled, true
		}
		r.mu.Unlock()

		switch {
		case failover:
			r.met.nodeDeaths.Add(1)
			r.failoverNode(id)
		case drain:
			r.met.drains.Add(1)
			r.drainNode(id)
		}
	}

	// A placement left with one copy — created while a single member was
	// routable, or a rebuild that found no target — gets its replica
	// here once one is available.
	for _, p := range r.snapshotPlacements() {
		p.mu.Lock()
		if p.primary != "" && p.replica == "" {
			r.rebuildReplicaLocked(p)
		}
		p.mu.Unlock()
	}
}

// failoverNode moves every placement that touches a dead node:
// primaries promote their replica, orphaned replicas are rebuilt.
func (r *Router) failoverNode(dead string) {
	for _, p := range r.snapshotPlacements() {
		p.mu.Lock()
		if p.primary == dead {
			r.failoverLocked(p, dead)
		} else if p.replica == dead {
			p.replica = ""
			r.rebuildReplicaLocked(p)
		}
		p.mu.Unlock()
	}
}

// drainNode moves every session off an alive-but-unready member while it
// still serves. A primary hands over to its replica, which holds every
// launch and buffer write mirrored under placement.mu: the replica is
// promoted, a new one is rebuilt, and the drained member's copy is
// closed. A placement without a healthy replica first gets one copied
// from the primary; if no member can take that copy, the session stays
// on the drained member, which still serves it. Each hand-over holds
// placement.mu, so it is atomic against in-flight launches.
func (r *Router) drainNode(id string) {
	for _, p := range r.snapshotPlacements() {
		p.mu.Lock()
		switch {
		case p.primary == id:
			if p.replica == "" || !r.healthy(p.replica) {
				r.rebuildReplicaLocked(p)
			}
			if p.replica == "" {
				break
			}
			p.primary = p.replica
			r.rebuildReplicaLocked(p)
			// A member whose readiness flapped back may have just been
			// picked as the new replica: its copy is then live.
			if c := r.client(id); c != nil && p.replica != id {
				_ = c.CloseSession(p.id)
			}
			r.met.migrations.Add(1)
		case p.replica == id:
			r.rebuildReplicaLocked(p)
		}
		p.mu.Unlock()
	}
}

func (r *Router) snapshotPlacements() []*placement {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*placement, 0, len(r.placements))
	for _, p := range r.placements {
		out = append(out, p)
	}
	return out
}

// ---------- observability ----------

// healthyCount tallies routable members.
func (r *Router) healthyCount() (healthy, total int) {
	ids := r.memberIDs()
	for _, id := range ids {
		if r.healthy(id) {
			healthy++
		}
	}
	return healthy, len(ids)
}

// RouterHealth is the router's /healthz body (key-compatible with the
// node HealthResponse where it overlaps).
type RouterHealth struct {
	Status       string  `json:"status"`
	Ready        bool    `json:"ready"`
	UptimeSec    float64 `json:"uptime_sec"`
	Nodes        int     `json:"nodes"`
	HealthyNodes int     `json:"healthy_nodes"`
	Sessions     int     `json:"sessions"`
	Launches     int64   `json:"launches_total"`
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	healthy, total := r.healthyCount()
	r.mu.Lock()
	sessions := len(r.placements)
	r.mu.Unlock()
	status := "ok"
	if healthy == 0 {
		status = "ring-down"
	} else if healthy < total {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, RouterHealth{
		Status: status, Ready: healthy > 0,
		UptimeSec: time.Since(r.start).Seconds(),
		Nodes:     total, HealthyNodes: healthy,
		Sessions: sessions, Launches: r.met.launches.Load(),
	})
}

func (r *Router) handleReadyz(w http.ResponseWriter, req *http.Request) {
	healthy, _ := r.healthyCount()
	if healthy == 0 {
		r.writeError(w, http.StatusServiceUnavailable, faults.ErrRingDown)
		return
	}
	writeJSON(w, http.StatusOK, server.ReadyResponse{Ready: true, Status: "ready"})
}

// handleRing dumps placement + membership state for debugging and the
// load generator's failover assertions.
func (r *Router) handleRing(w http.ResponseWriter, req *http.Request) {
	type placementInfo struct {
		Primary string `json:"primary"`
		Replica string `json:"replica,omitempty"`
		Lost    bool   `json:"lost,omitempty"`
	}
	placements := map[string]placementInfo{}
	for _, p := range r.snapshotPlacements() {
		p.mu.Lock()
		placements[p.id] = placementInfo{Primary: p.primary, Replica: p.replica, Lost: p.lost}
		p.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"members":    r.ring.Members(),
		"view":       r.Members(),
		"placements": placements,
	})
}

// handleDrain moves every session off a member (the operator's
// pre-shutdown step; the member should already be unready).
func (r *Router) handleDrain(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if r.client(id) == nil {
		r.writeError(w, http.StatusNotFound, fmt.Errorf("no node %q", id))
		return
	}
	r.met.drains.Add(1)
	r.drainNode(id)
	writeJSON(w, http.StatusOK, map[string]string{"drained": id})
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	var b strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	healthy, total := r.healthyCount()
	r.mu.Lock()
	sessions := len(r.placements)
	r.mu.Unlock()

	gauge("dopia_router_nodes", "Registered ring members.", int64(total))
	gauge("dopia_router_nodes_healthy", "Members currently alive and ready.", int64(healthy))
	gauge("dopia_router_sessions", "Placed logical sessions.", int64(sessions))
	counter("dopia_router_launches_total", "Launches proxied successfully.", r.met.launches.Load())
	counter("dopia_router_launch_errors_total", "Launches that failed through the router.", r.met.launchErrors.Load())
	counter("dopia_router_failovers_total", "Primary promotions after node failure.", r.met.failovers.Load())
	counter("dopia_router_migrations_total", "Sessions a drain handed to their replicas.", r.met.migrations.Load())
	counter("dopia_router_replica_rebuilds_total", "Replica re-establishments via export/import.", r.met.replicaRebuilds.Load())
	counter("dopia_router_replica_divergence_total", "Replica responses that differed bit-wise from the primary.", r.met.replicaDivergence.Load())
	counter("dopia_router_program_pushes_total", "Program registrations pushed to members.", r.met.programPushes.Load())
	counter("dopia_router_program_repushes_total", "Programs pushed to a member when a launch found it missing.", r.met.programRepushes.Load())
	counter("dopia_router_ring_down_total", "Requests refused because no member was healthy.", r.met.ringDown.Load())
	counter("dopia_router_node_deaths_total", "Members declared dead.", r.met.nodeDeaths.Load())
	counter("dopia_router_drains_total", "Member drains executed.", r.met.drains.Load())
	counter("dopia_router_sessions_lost_total", "Sessions lost with no live replica (zero-loss violations).", r.met.sessionsLost.Load())

	fmt.Fprintf(&b, "# HELP dopia_router_node_healthy Per-member health (1 alive+ready, 0 otherwise).\n# TYPE dopia_router_node_healthy gauge\n")
	for _, id := range r.memberIDs() {
		hv := 0
		if r.healthy(id) {
			hv = 1
		}
		fmt.Fprintf(&b, "dopia_router_node_healthy{node=%q} %d\n", id, hv)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(b.String()))
}
