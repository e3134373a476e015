package online

import (
	"fmt"
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

// Config names what one Manager learns over. Its tuning is fixed: see
// the constants below.
type Config struct {
	// Machine is the DoP configuration space (required).
	Machine *sim.Machine
	// Base is the global offline model every tenant's table is published
	// over. It may be nil: a tenant then decides by the ALL baseline until
	// its first publish, and afterwards predicts 0 for any signature its
	// table lacks.
	Base ml.Model
}

// The learner's tuning.
const (
	// tenantSigs is how many of its most recently launched signatures a
	// tenant's published table covers.
	tenantSigs = 128
	// minLaunches is how many launches a tenant makes before its first
	// publish.
	minLaunches = 4
	// retrainEvery is how many launches since the last swap, at least one
	// of them with a signature the published table lacks, trigger a
	// retrain.
	retrainEvery = 8
	// epsilon is the probability that an eligible launch is given to the
	// bandit instead of the model argmax.
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
// tenants' full tables. A row is 44 float64s.
const OracleRowCap = 8 * tenantSigs

// published is one immutable (model, generation) snapshot for a tenant.
type published struct {
	model ml.Model
	gen   uint64
	prov  ml.Provenance
}

// tenantState is the learner's view of one tenant. pub is read on the
// decision hot path (atomic); everything else is guarded by mu and
// touched by the learner goroutine and the Explore hook.
type tenantState struct {
	name string
	pub  atomic.Pointer[published]

	mu         sync.Mutex
	sigs       *lru.Cache[sig, struct{}] // the tenantSigs most recently launched signatures
	pubSigs    map[sig]bool              // the signatures the published table covers
	regret     float64                   // cumulative exploration regret spent
	explores   int64
	launches   int64
	sinceSwap  int
	pendingNew int
}

// event is one item of the learner queue: a launch sample or, with
// closed set, the end of the sample tenant's session. Both travel one
// queue so a close is applied after every sample queued before it.
type event struct {
	core.LaunchSample
	closed bool
}

// Manager implements core.Advisor: the complete online-learning loop.
// Create with New, attach with Attach, stop with Close.
type Manager struct {
	machine *sim.Machine
	base    ml.Model
	cfgs    []sim.Config

	gen atomic.Uint64 // generation counter; 1 = the shared base model

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
	retrains     atomic.Int64
	swaps        atomic.Int64
	explorations atomic.Int64
}

// New creates a Manager and starts its learner goroutine.
func New(cfg Config) (*Manager, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("online: Config.Machine is required")
	}
	m := &Manager{
		machine: cfg.Machine,
		base:    ml.Unwrap(cfg.Base),
		cfgs:    cfg.Machine.Configs(),
		tenants: map[string]*tenantState{},
		rows:    lru.New[sig, *oracleRow](OracleRowCap, nil),
		rng:     rand.New(rand.NewSource(seed)),
		ch:      make(chan event, queueDepth),
		stopc:   make(chan struct{}),
		done:    make(chan struct{}),
	}
	m.gen.Store(1) // generation 1 is the shared base model
	go m.run()
	return m, nil
}

// Attach wires the manager into a framework: the framework consults it
// for models and exploration and feeds completed launches back.
func (m *Manager) Attach(fw *core.Framework) {
	fw.SetAdvisor(m)
}

// Close stops the learner goroutine. Samples still queued are dropped;
// call Sync first to drain. The manager must be detached (or the
// framework torn down) before Close so Observe is no longer invoked.
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

// ModelFor implements core.Advisor. Reads only atomics and an RLocked
// map lookup: the decision hot path never contends with the learner.
func (m *Manager) ModelFor(tenant string) (ml.Model, uint64) {
	if ts := m.lookup(tenant); ts != nil {
		if p := ts.pub.Load(); p != nil {
			return p.model, p.gen
		}
	}
	return m.base, 1
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

// Explore implements core.Advisor: the ε-greedy bandit. A launch is
// eligible only when its signature already has a memoized oracle row
// (so the regret charge is exact, never estimated) and the tenant has
// remaining regret budget. The charge is applied at decision time.
func (m *Manager) Explore(tenant, kernel string, base ml.Features, dec core.Decision) (sim.Config, bool) {
	row, ok := m.rows.Get(sig{Kernel: kernel, Base: base})
	if !ok {
		return sim.Config{}, false
	}
	ts := m.lookup(tenant)
	if ts == nil {
		return sim.Config{}, false
	}
	m.rngMu.Lock()
	coin := m.rng.Float64()
	pick := m.rng.Intn(len(m.cfgs))
	m.rngMu.Unlock()
	if coin >= epsilon || m.cfgs[pick] == dec.Config {
		return sim.Config{}, false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	regret := row.regretOf(pick)
	if regret > regretBudget-ts.regret {
		return sim.Config{}, false
	}
	ts.regret += regret
	ts.explores++
	m.explorations.Add(1)
	return m.cfgs[pick], true
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
	ts := &tenantState{
		name:    tenant,
		sigs:    lru.New[sig, struct{}](tenantSigs, nil),
		pubSigs: map[sig]bool{},
	}
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

// ingest folds one sample into its tenant's recent signatures and
// retrains + hot swaps when the cadence says so.
func (m *Manager) ingest(s core.LaunchSample) {
	sg := sig{Kernel: s.Kernel, Base: s.Base}
	row := m.oracleRowFor(sg, s.Sweep)
	if row == nil {
		return
	}
	ts := m.tenantState(s.Tenant)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.sigs.Put(sg, struct{}{})
	ts.launches++
	ts.sinceSwap++
	if !ts.pubSigs[sg] {
		ts.pendingNew++
	}
	if ts.pendingNew > 0 && ts.sinceSwap >= retrainEvery && ts.launches >= minLaunches {
		m.publishLocked(ts)
	}
}

// publishLocked builds the tenant's table from the oracle rows of its
// recent signatures and hot-swaps it in under a fresh generation. Called
// with ts.mu held. The swap is atomic: launches in flight keep the
// (model, generation) pair they resolved.
func (m *Manager) publishLocked(ts *tenantState) {
	perf := make(map[ml.Features]float64, tenantSigs*len(m.cfgs))
	pubSigs := make(map[sig]bool, tenantSigs)
	ts.sigs.Each(func(sg sig, _ struct{}) {
		row, ok := m.rows.Get(sg)
		if !ok {
			return
		}
		for i, cfg := range m.cfgs {
			perf[core.WithConfig(sg.Base, m.machine, cfg)] = row.reward(i)
		}
		pubSigs[sg] = true
	})
	gen := m.gen.Add(1)
	parent := ""
	if m.base != nil {
		parent = m.base.Name()
	}
	prov := ml.Provenance{
		Tenant:        ts.name,
		Generation:    gen,
		Samples:       len(perf),
		Origin:        "online",
		Parent:        parent,
		TrainedUnixMS: time.Now().UnixMilli(),
	}
	ts.pub.Store(&published{model: &tenantModel{perf: perf, base: m.base}, gen: gen, prov: prov})
	ts.pubSigs = pubSigs
	ts.pendingNew = 0
	ts.sinceSwap = 0
	m.retrains.Add(1)
	m.swaps.Add(1)
}

// OracleRows reports the occupancy and traffic of the oracle-sweep memo,
// which holds at most OracleRowCap signatures.
func (m *Manager) OracleRows() lru.Stats { return m.rows.Stats() }

// TenantStatus is one tenant's learner state for /v1/models and tests.
type TenantStatus struct {
	Tenant       string        `json:"tenant"`
	Generation   uint64        `json:"generation"`
	Model        string        `json:"model"`
	Signatures   int           `json:"signatures"`
	Launches     int64         `json:"launches"`
	Explores     int64         `json:"explores"`
	Regret       float64       `json:"regret"`
	RegretBudget float64       `json:"regret_budget"`
	SwapReason   string        `json:"swap_reason,omitempty"`
	Provenance   ml.Provenance `json:"provenance,omitempty"`
}

// Status is a consistent snapshot of the whole learner for /v1/models
// and the metrics endpoint.
type Status struct {
	Epsilon         float64        `json:"epsilon"`
	RegretBudget    float64        `json:"regret_budget"`
	BaseModel       string         `json:"base_model,omitempty"`
	Generation      uint64         `json:"generation"`
	SamplesIngested int64          `json:"samples_ingested"`
	SamplesDropped  int64          `json:"samples_dropped"`
	SamplesPending  int64          `json:"samples_pending"`
	Sweeps          int64          `json:"sweeps"`
	SweepErrors     int64          `json:"sweep_errors"`
	Retrains        int64          `json:"retrains"`
	Swaps           int64          `json:"swaps"`
	Explorations    int64          `json:"explorations"`
	Tenants         []TenantStatus `json:"tenants"`
}

// Status snapshots the manager. Safe to call concurrently with serving.
func (m *Manager) Status() Status {
	st := Status{
		Epsilon:         epsilon,
		RegretBudget:    regretBudget,
		Generation:      m.gen.Load(),
		SamplesIngested: m.ingested.Load(),
		SamplesDropped:  m.dropped.Load(),
		SamplesPending:  m.queued.Load() - m.processed.Load(),
		Sweeps:          m.sweeps.Load(),
		SweepErrors:     m.sweepErrs.Load(),
		Retrains:        m.retrains.Load(),
		Swaps:           m.swaps.Load(),
		Explorations:    m.explorations.Load(),
	}
	if m.base != nil {
		st.BaseModel = m.base.Name()
	}
	m.mu.RLock()
	names := make([]string, 0, len(m.tenants))
	for name := range m.tenants {
		names = append(names, name)
	}
	m.mu.RUnlock()
	sort.Strings(names)
	for _, name := range names {
		ts := m.lookup(name)
		if ts == nil {
			continue
		}
		t := TenantStatus{
			Tenant:       name,
			Generation:   1,
			RegretBudget: regretBudget,
		}
		if m.base != nil {
			t.Model = m.base.Name()
		}
		if p := ts.pub.Load(); p != nil {
			t.Generation = p.gen
			t.Model = p.model.Name()
			t.Provenance = p.prov
			t.SwapReason = "retrain"
		}
		ts.mu.Lock()
		t.Signatures = ts.sigs.Stats().Entries
		t.Launches = ts.launches
		t.Explores = ts.explores
		t.Regret = ts.regret
		ts.mu.Unlock()
		st.Tenants = append(st.Tenants, t)
	}
	return st
}
