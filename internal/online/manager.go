// Package online closes the Dopia loop: it turns every served launch
// into a training signal and answers the tenant's later launches from
// it. The paper trains its models offline and freezes them; a serving
// system under a drifting tenant mix decays toward the static baseline
// the paper argues against. This package is the production counterpart:
// a streaming collector, a bounded memo of oracle sweeps (one
// 44-configuration sweep per launch signature) whose argmax answers a
// tenant's launch of a signature it launched recently, and an ε-greedy
// exploration layer with a regret budget enforced against the memoized
// sweep.
package online

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dopia/internal/core"
	"dopia/internal/lru"
	"dopia/internal/ml"
	"dopia/internal/sim"
)

// The learner's tuning.
const (
	// tenantSigs is how many of its most recently launched signatures a
	// tenant is answered for from the memo.
	tenantSigs = 128
	// epsilon is the probability that an eligible launch is given to the
	// bandit instead of the exploited configuration.
	epsilon = 0.05
	// regretBudget bounds the cumulative relative regret (sum over
	// explored launches of (t_arm - t_best)/t_best) each tenant may spend
	// on exploration over its lifetime. The charge is computed from the
	// memoized oracle sweep at decision time, so the budget can never be
	// exceeded retroactively.
	regretBudget = 2.0
	// queueDepth bounds the collector queue between launch workers and
	// the learner goroutine; a full queue drops samples rather than
	// blocking the launch path.
	queueDepth = 256
	// seed makes exploration deterministic.
	seed = 1
)

// OracleRowCap bounds the memo of oracle sweeps, in signatures: eight
// tenants' recent signatures. A row is 44 float64s.
const OracleRowCap = 8 * tenantSigs

// tenantState is the learner's view of one tenant. sigs is filled by
// the learner goroutine and read by Advise; everything else is guarded by
// mu.
type tenantState struct {
	sigs *lru.Cache[sig, struct{}] // the tenantSigs most recently launched signatures

	mu       sync.Mutex
	regret   float64 // cumulative exploration regret spent
	explores int64
	launches int64
	learned  int64
}

// event is one item of the learner queue: a launch sample or, with
// closed set, the end of the sample tenant's session. Both travel one
// queue so a close is applied after every sample queued before it.
type event struct {
	core.LaunchSample
	closed bool
}

// Manager implements core.Advisor: the complete online-learning loop.
// Create with New, set as a framework's Advisor, stop with Close.
type Manager struct {
	cfgs []sim.Config

	// tenants holds the state of every tenant with a live session; Forget
	// deletes from it.
	mu      sync.RWMutex
	tenants map[string]*tenantState

	rows *lru.Cache[sig, *oracleRow]

	rngMu sync.Mutex
	rng   *rand.Rand

	ch    chan event
	stopc chan struct{}
	done  chan struct{}

	queued       atomic.Int64 // events accepted into ch
	processed    atomic.Int64 // events the learner has finished
	ingested     atomic.Int64
	dropped      atomic.Int64
	sweeps       atomic.Int64
	sweepErrs    atomic.Int64
	learned      atomic.Int64
	explorations atomic.Int64
}

// New creates a Manager over the DoP configuration space of machine and
// starts its learner goroutine.
func New(machine *sim.Machine) *Manager {
	m := &Manager{
		cfgs:    machine.Configs(),
		tenants: map[string]*tenantState{},
		rows:    lru.New[sig, *oracleRow](OracleRowCap, nil),
		rng:     rand.New(rand.NewSource(seed)),
		ch:      make(chan event, queueDepth),
		stopc:   make(chan struct{}),
		done:    make(chan struct{}),
	}
	go m.run()
	return m
}

// Close stops the learner goroutine. Samples still queued are dropped;
// call Sync first to drain. Observe after Close is a no-op.
func (m *Manager) Close() {
	select {
	case <-m.stopc:
		return
	default:
	}
	close(m.stopc)
	<-m.done
}

// Sync blocks until every sample and close accepted so far has been
// processed by the learner, or the timeout elapses. Test and shutdown
// helper.
func (m *Manager) Sync(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if m.processed.Load() >= m.queued.Load() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// Advise implements core.Advisor. A launch whose signature the tenant
// launched recently, and whose oracle row the memo holds, is answered
// with the row's argmax (Learned). Then the ε-greedy bandit may explore:
// a launch is eligible only when its signature has a memoized row (so the
// regret charge is exact, never estimated) and the tenant has regret
// budget left. The charge is applied at decision time.
func (m *Manager) Advise(tenant, kernel string, base ml.Features, dec core.Decision) core.Decision {
	sg := sig{Kernel: kernel, Base: base}
	row, ok := m.rows.Get(sg)
	if !ok {
		return dec
	}
	ts := m.lookup(tenant)
	if ts == nil {
		return dec
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, ok := ts.sigs.Get(sg); ok {
		// 1 is the oracle argmax's normalized performance.
		dec.Config, dec.Predicted, dec.Learned = m.cfgs[row.best], 1, true
		ts.learned++
		m.learned.Add(1)
	}
	m.rngMu.Lock()
	coin, pick := m.rng.Float64(), m.rng.Intn(len(m.cfgs))
	m.rngMu.Unlock()
	if coin >= epsilon || m.cfgs[pick] == dec.Config {
		return dec
	}
	regret := row.regretOf(pick)
	if regret > regretBudget-ts.regret {
		return dec
	}
	ts.regret += regret
	ts.explores++
	m.explorations.Add(1)
	dec.Config, dec.Explored = m.cfgs[pick], true
	return dec
}

// Observe implements core.Advisor: the streaming collector. Never
// blocks the launch path — a full queue drops the sample and counts it.
func (m *Manager) Observe(s core.LaunchSample) {
	select {
	case <-m.stopc:
		return
	default:
	}
	m.queued.Add(1) // before the send, so Sync never sees an event processed but not counted
	select {
	case m.ch <- event{LaunchSample: s}:
		m.ingested.Add(1)
	default:
		m.queued.Add(-1)
		m.dropped.Add(1)
	}
}

// Forget drops everything the learner holds for tenant once the samples
// already queued for it are processed. The caller must have stopped
// launching as tenant: a later sample would start its state afresh.
// Unlike Observe it waits for room in the queue, since a lost close
// would keep the state forever.
func (m *Manager) Forget(tenant string) {
	m.queued.Add(1)
	select {
	case m.ch <- event{LaunchSample: core.LaunchSample{Tenant: tenant}, closed: true}:
	case <-m.stopc:
		m.queued.Add(-1)
	}
}

func (m *Manager) lookup(tenant string) *tenantState {
	m.mu.RLock()
	ts := m.tenants[tenant]
	m.mu.RUnlock()
	return ts
}

// tenantState returns tenant's state, creating it on first sight. Only
// the learner goroutine adds or deletes tenants.
func (m *Manager) tenantState(tenant string) *tenantState {
	if ts := m.lookup(tenant); ts != nil {
		return ts
	}
	ts := &tenantState{sigs: lru.New[sig, struct{}](tenantSigs, nil)}
	m.mu.Lock()
	m.tenants[tenant] = ts
	m.mu.Unlock()
	return ts
}

// run is the learner goroutine: it drains the collector queue, ingesting
// samples and dropping the state of closed tenants.
func (m *Manager) run() {
	defer close(m.done)
	for {
		select {
		case <-m.stopc:
			return
		case ev := <-m.ch:
			if ev.closed {
				m.mu.Lock()
				delete(m.tenants, ev.Tenant)
				m.mu.Unlock()
			} else {
				m.ingest(ev.LaunchSample)
			}
			m.processed.Add(1)
		}
	}
}

// oracleRowFor returns the memoized ground-truth sweep of a signature,
// running (and memoizing) the sample's sweep closure when the memo does
// not hold it. Only the learner goroutine fills the memo.
func (m *Manager) oracleRowFor(sg sig, sweep func() ([]core.ConfigTime, error)) *oracleRow {
	if row, ok := m.rows.Get(sg); ok || sweep == nil {
		return row
	}
	cts, err := sweep()
	m.sweeps.Add(1)
	if err != nil || len(cts) != len(m.cfgs) {
		m.sweepErrs.Add(1)
		return nil
	}
	times := make([]float64, len(cts))
	for i, ct := range cts {
		if ct.Config != m.cfgs[i] || ct.Time <= 0 || math.IsNaN(ct.Time) || math.IsInf(ct.Time, 0) {
			m.sweepErrs.Add(1)
			return nil
		}
		times[i] = ct.Time
	}
	row := newOracleRow(times)
	m.rows.Put(sg, row)
	return row
}

// ingest makes one sample's signature its tenant's most recently
// launched, once the memo holds the signature's row.
func (m *Manager) ingest(s core.LaunchSample) {
	sg := sig{Kernel: s.Kernel, Base: s.Base}
	if m.oracleRowFor(sg, s.Sweep) == nil {
		return
	}
	ts := m.tenantState(s.Tenant)
	ts.sigs.Put(sg, struct{}{})
	ts.mu.Lock()
	ts.launches++
	ts.mu.Unlock()
}

// OracleRows reports the occupancy and traffic of the oracle-sweep memo,
// which holds at most OracleRowCap signatures.
func (m *Manager) OracleRows() lru.Stats { return m.rows.Stats() }

// TenantStatus is one tenant's learner state for /v1/models and tests.
type TenantStatus struct {
	Tenant       string  `json:"tenant"`
	Signatures   int     `json:"signatures"`
	Launches     int64   `json:"launches"`
	Learned      int64   `json:"learned"`
	Explores     int64   `json:"explores"`
	Regret       float64 `json:"regret"`
	RegretBudget float64 `json:"regret_budget"`
}

// Status is a snapshot of the whole learner for /v1/models and the
// metrics endpoint.
type Status struct {
	Epsilon         float64        `json:"epsilon"`
	RegretBudget    float64        `json:"regret_budget"`
	SamplesIngested int64          `json:"samples_ingested"`
	SamplesDropped  int64          `json:"samples_dropped"`
	SamplesPending  int64          `json:"samples_pending"`
	Sweeps          int64          `json:"sweeps"`
	SweepErrors     int64          `json:"sweep_errors"`
	Learned         int64          `json:"learned"`
	Explorations    int64          `json:"explorations"`
	Tenants         []TenantStatus `json:"tenants"`
}

// Status snapshots the manager. Safe to call concurrently with serving.
func (m *Manager) Status() Status {
	st := Status{
		Epsilon:         epsilon,
		RegretBudget:    regretBudget,
		SamplesIngested: m.ingested.Load(),
		SamplesDropped:  m.dropped.Load(),
		SamplesPending:  m.queued.Load() - m.processed.Load(),
		Sweeps:          m.sweeps.Load(),
		SweepErrors:     m.sweepErrs.Load(),
		Learned:         m.learned.Load(),
		Explorations:    m.explorations.Load(),
	}
	m.mu.RLock()
	for name, ts := range m.tenants {
		ts.mu.Lock()
		st.Tenants = append(st.Tenants, TenantStatus{
			Tenant:       name,
			Signatures:   ts.sigs.Stats().Entries,
			Launches:     ts.launches,
			Learned:      ts.learned,
			Explores:     ts.explores,
			Regret:       ts.regret,
			RegretBudget: regretBudget,
		})
		ts.mu.Unlock()
	}
	m.mu.RUnlock()
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Tenant < st.Tenants[j].Tenant })
	return st
}
