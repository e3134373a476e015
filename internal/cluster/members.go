package cluster

// The router's member table. The router is the only party that ever
// reads cluster membership, and it already holds an HTTP client to every
// member, so it asks: once per janitor tick it probes every registered
// member's GET /healthz (200 even while draining; the body carries the
// readiness gate and the session count) and keeps the answers in one
// row per member. A member's verdict is a function of its row alone —
// consecutive missed probes age it alive → suspect → dead, and a hard
// failure on the data path condemns it until it has answered
// readmitProbes probes in a row.

import (
	"sort"
	"sync"
	"time"

	"dopia/internal/server"
)

// Thresholds, in janitor ticks (RouterConfig.JanitorInterval is the one
// timing value of the tier).
const (
	// suspectAfterMisses consecutive failed probes take a member out of
	// new placements; its sessions stay put (no flapping on a lost probe).
	suspectAfterMisses = 3
	// deadAfterMisses consecutive failed probes declare it dead: the
	// janitor fails its sessions over.
	deadAfterMisses = 8
	// readmitProbes consecutive good probes re-admit a condemned member.
	// One answered probe proves little about a member whose data path
	// just failed; a run of them does.
	readmitProbes = 5
	// probeTimeoutTicks bounds one probe, so a member that accepts the
	// connection and never answers cannot stall the tick.
	probeTimeoutTicks = 4
)

// NodeStatus is the router's verdict about a member.
type NodeStatus string

const (
	// StatusAlive: fewer than suspectAfterMisses probes missed in a row.
	StatusAlive NodeStatus = "alive"
	// StatusSuspect: stays in the ring, receives no new placements.
	StatusSuspect NodeStatus = "suspect"
	// StatusDead: deadAfterMisses probes missed, or condemned after a
	// hard request failure. The janitor fails its sessions over.
	StatusDead NodeStatus = "dead"
)

// member is one row of the table: the router's handle on a ring member
// plus everything its probes have learned. The probe fields and the
// janitor's dedupe flags are guarded by Router.mu.
type member struct {
	addr string
	c    *server.Client // data path, bounded by CallTimeout
	hz   *server.Client // probe path, bounded by probeTimeoutTicks

	// misses counts consecutive failed probes; lastOK is when one last
	// succeeded (zero: never), and ready/sessions are what it said.
	misses   int
	lastOK   time.Time
	ready    bool
	sessions int
	// condemned pins the member dead after a hard data-path failure
	// until good consecutive probes reach readmitProbes.
	condemned bool
	good      int
	// deadHandled/drainHandled dedupe the janitor's reaction until the
	// member is back to alive and ready.
	deadHandled  bool
	drainHandled bool
}

// observe folds one probe result into the row.
func (m *member) observe(h *server.HealthResponse, err error) {
	if err != nil {
		m.misses++
		m.good = 0
		return
	}
	m.misses = 0
	m.lastOK = time.Now()
	m.ready, m.sessions = h.Ready, h.Sessions
	if m.condemned {
		if m.good++; m.good >= readmitProbes {
			m.condemned, m.good = false, 0
		}
	}
}

func (m *member) status() NodeStatus {
	switch {
	case m.condemned || m.misses >= deadAfterMisses:
		return StatusDead
	case m.misses >= suspectAfterMisses:
		return StatusSuspect
	default:
		return StatusAlive
	}
}

// MemberView is one rendered row of the member table.
type MemberView struct {
	Addr         string     `json:"addr"`
	Status       NodeStatus `json:"status"`
	Ready        bool       `json:"ready"`
	Sessions     int        `json:"sessions"`
	MissedProbes int        `json:"missed_probes"`
	Condemned    bool       `json:"condemned,omitempty"`
	LastOK       time.Time  `json:"last_ok"`
}

// Members renders the member table.
func (r *Router) Members() map[string]MemberView {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]MemberView, len(r.members))
	for id, m := range r.members {
		out[id] = MemberView{
			Addr: m.addr, Status: m.status(), Ready: m.ready, Sessions: m.sessions,
			MissedProbes: m.misses, Condemned: m.condemned, LastOK: m.lastOK,
		}
	}
	return out
}

// memberIDs lists the registered members in ID order.
func (r *Router) memberIDs() []string {
	r.mu.Lock()
	ids := make([]string, 0, len(r.members))
	for id := range r.members {
		ids = append(ids, id)
	}
	r.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// healthy is the ring placement filter: alive and ready per the table.
func (r *Router) healthy(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[id]
	return ok && m.status() == StatusAlive && m.ready
}

// condemn pins a member dead after a hard request failure, so the next
// placement skips it at once instead of waiting out deadAfterMisses.
func (r *Router) condemn(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.members[id]; ok {
		m.condemned, m.good = true, 0
	}
}

// probeAll probes every member concurrently and folds the answers into
// the table. It returns once the slowest probe has answered or timed out.
func (r *Router) probeAll() {
	r.mu.Lock()
	ms := make([]*member, 0, len(r.members))
	for _, m := range r.members {
		ms = append(ms, m)
	}
	r.mu.Unlock()

	type answer struct {
		h   *server.HealthResponse
		err error
	}
	answers := make([]answer, len(ms))
	var wg sync.WaitGroup
	for i, m := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			answers[i].h, answers[i].err = m.hz.Healthz()
		}()
	}
	wg.Wait()

	r.mu.Lock()
	for i, m := range ms {
		m.observe(answers[i].h, answers[i].err)
	}
	r.mu.Unlock()
}
