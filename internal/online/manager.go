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
	"dopia/internal/ml"
	"dopia/internal/sim"
)

// Config tunes one Manager. The zero value of every knob selects the
// documented default.
type Config struct {
	// Machine is the DoP configuration space (required).
	Machine *sim.Machine
	// Base is the global offline model every tenant warm-starts from
	// (may be nil: tenants then learn from scratch over the ALL
	// baseline).
	Base ml.Model

	// WindowLaunches is the per-tenant sliding-window size in launches;
	// each launch contributes one oracle row (44 training samples).
	// Default 128.
	WindowLaunches int
	// MinLaunches is the smallest window that may be retrained into a
	// published model. Default 4.
	MinLaunches int
	// RetrainEvery retrains after this many launches carrying new
	// signatures since the last swap. Default 8.
	RetrainEvery int
	// WarmupLaunches controls the warm-start blend: the learned ridge
	// layer's weight ramps linearly from 0 to 1 as the window fills to
	// this many launches. Default 32.
	WarmupLaunches int

	// Policy selects the exploration policy (PolicyOff, PolicyEpsilon,
	// PolicyUCB). Default PolicyEpsilon.
	Policy string
	// Epsilon is the exploration rate: the probability that an eligible
	// launch is given to the bandit instead of the model argmax.
	// Default 0.05; <= 0 with DefaultEpsilon semantics only via
	// PolicyOff (set a negative value to force 0).
	Epsilon float64
	// UCBBonus is the UCB1 confidence coefficient. Default 0.5.
	UCBBonus float64
	// RegretBudget bounds the cumulative relative regret
	// (sum over explored launches of (t_arm - t_best)/t_best) each
	// tenant may spend on exploration over its lifetime. The charge is
	// computed from the memoized oracle sweep at decision time, so the
	// budget can never be exceeded retroactively. Default 2.0.
	RegretBudget float64

	// DriftWindow is the per-tenant prediction-error window size.
	// Default 16.
	DriftWindow int
	// DriftThreshold is the mean absolute prediction error (in
	// normalized-performance units) above which a full window signals
	// drift and forces a retrain. Default 0.2.
	DriftThreshold float64

	// QueueDepth bounds the collector channel between launch workers
	// and the learner goroutine; a full queue drops samples rather than
	// blocking the launch path. Default 256.
	QueueDepth int
	// Seed makes exploration deterministic. Default 1.
	Seed int64
	// OnSwap, when set, is called after each hot swap with the tenant
	// and the new generation (test/metrics hook; called with the
	// tenant's lock held — keep it cheap).
	OnSwap func(tenant string, gen uint64)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.WindowLaunches <= 0 {
		out.WindowLaunches = 128
	}
	if out.MinLaunches <= 0 {
		out.MinLaunches = 4
	}
	if out.RetrainEvery <= 0 {
		out.RetrainEvery = 8
	}
	if out.WarmupLaunches <= 0 {
		out.WarmupLaunches = 32
	}
	if out.Policy == "" {
		out.Policy = PolicyEpsilon
	}
	if out.Epsilon == 0 {
		out.Epsilon = 0.05
	}
	if out.Epsilon < 0 {
		out.Epsilon = 0
	}
	if out.UCBBonus <= 0 {
		out.UCBBonus = 0.5
	}
	if out.RegretBudget == 0 {
		out.RegretBudget = 2.0
	}
	if out.DriftWindow <= 0 {
		out.DriftWindow = 16
	}
	if out.DriftThreshold <= 0 {
		out.DriftThreshold = 0.2
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = 256
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	return out
}

// published is one immutable (model, generation) snapshot for a tenant.
type published struct {
	model  ml.Model
	gen    uint64
	prov   ml.Provenance
	reason string
}

// tenantState is the learner's view of one tenant. pub is read on the
// decision hot path (atomic); everything else is guarded by mu and
// touched by the learner goroutine and the Explore hook.
type tenantState struct {
	name string
	pub  atomic.Pointer[published]

	mu         sync.Mutex
	window     []sig       // sliding window of launches, oldest first
	inWindow   map[sig]int // signature refcounts over the window
	pubSigs    map[sig]bool
	ridge      ml.OnlineRidge
	drift      *driftWindow
	arms       map[sig]*armStats
	regret     float64 // cumulative exploration regret spent
	explores   int64
	launches   int64
	sinceSwap  int
	pendingNew int
	drifts     int64
	lastReason string
}

// Manager implements core.Advisor: the complete online-learning loop.
// Create with New, attach with Attach, stop with Close.
type Manager struct {
	cfg      Config
	machine  *sim.Machine
	base     ml.Model
	baseProv ml.Provenance
	cfgs     []sim.Config
	cfgIdx   map[sim.Config]int

	gen atomic.Uint64 // generation counter; 1 = the shared base model

	mu      sync.RWMutex
	tenants map[string]*tenantState

	sigMu  sync.RWMutex
	sigTab map[sig]*oracleRow

	rngMu sync.Mutex
	rng   *rand.Rand

	ch    chan core.LaunchSample
	stopc chan struct{}
	done  chan struct{}

	ingested     atomic.Int64
	dropped      atomic.Int64
	processed    atomic.Int64
	sweeps       atomic.Int64
	sweepErrs    atomic.Int64
	retrains     atomic.Int64
	swaps        atomic.Int64
	explorations atomic.Int64
	driftDet     atomic.Int64
}

// New creates a Manager and starts its learner goroutine.
func New(cfg Config) (*Manager, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("online: Config.Machine is required")
	}
	c := cfg.withDefaults()
	switch c.Policy {
	case PolicyOff, PolicyEpsilon, PolicyUCB:
	default:
		return nil, fmt.Errorf("online: unknown exploration policy %q", c.Policy)
	}
	m := &Manager{
		cfg:     c,
		machine: c.Machine,
		base:    ml.Unwrap(c.Base),
		cfgs:    c.Machine.Configs(),
		tenants: map[string]*tenantState{},
		sigTab:  map[sig]*oracleRow{},
		rng:     rand.New(rand.NewSource(c.Seed)),
		ch:      make(chan core.LaunchSample, c.QueueDepth),
		stopc:   make(chan struct{}),
		done:    make(chan struct{}),
	}
	if p, ok := ml.ProvenanceOf(c.Base); ok {
		m.baseProv = p
	}
	m.cfgIdx = configIndex(m.cfgs)
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

// Sync blocks until every sample accepted so far has been processed by
// the learner, or the timeout elapses. Test and shutdown helper.
func (m *Manager) Sync(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if m.processed.Load() >= m.ingested.Load() {
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
	select {
	case m.ch <- s:
		m.ingested.Add(1)
	default:
		m.dropped.Add(1)
	}
}

// Explore implements core.Advisor: the guarded bandit. A launch is
// eligible only when its signature already has a memoized oracle row
// (so the regret charge is exact, never estimated) and the tenant has
// remaining regret budget. The charge is applied at decision time.
func (m *Manager) Explore(tenant, kernel string, base ml.Features, dec core.Decision) (sim.Config, bool) {
	if m.cfg.Policy == PolicyOff || m.cfg.Epsilon <= 0 {
		return sim.Config{}, false
	}
	sg := sig{Kernel: kernel, Base: base}
	m.sigMu.RLock()
	row := m.sigTab[sg]
	m.sigMu.RUnlock()
	if row == nil || row.best < 0 {
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
	if coin >= m.cfg.Epsilon {
		return sim.Config{}, false
	}
	exclude := -1
	if i, ok := m.cfgIdx[dec.Config]; ok {
		exclude = i
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	remaining := m.cfg.RegretBudget - ts.regret
	if remaining <= 0 {
		return sim.Config{}, false
	}
	arm := -1
	switch m.cfg.Policy {
	case PolicyEpsilon:
		if pick != exclude && row.regretOf(pick) <= remaining {
			arm = pick
		}
	case PolicyUCB:
		as := ts.arms[sg]
		if as == nil {
			as = newArmStats(len(m.cfgs))
			ts.arms[sg] = as
		}
		arm = pickUCB(as, row, m.cfg.UCBBonus, remaining, exclude)
	}
	if arm < 0 {
		return sim.Config{}, false
	}
	ts.regret += row.regretOf(arm)
	ts.explores++
	m.explorations.Add(1)
	return m.cfgs[arm], true
}

func (m *Manager) lookup(tenant string) *tenantState {
	m.mu.RLock()
	ts := m.tenants[tenant]
	m.mu.RUnlock()
	return ts
}

func (m *Manager) tenantState(tenant string) *tenantState {
	if ts := m.lookup(tenant); ts != nil {
		return ts
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if ts := m.tenants[tenant]; ts != nil {
		return ts
	}
	ts := &tenantState{
		name:     tenant,
		inWindow: map[sig]int{},
		pubSigs:  map[sig]bool{},
		drift:    newDriftWindow(m.cfg.DriftWindow),
		arms:     map[sig]*armStats{},
	}
	m.tenants[tenant] = ts
	return ts
}

// run is the learner goroutine: it drains the collector queue and, per
// sample, memoizes the oracle sweep, updates the tenant's window /
// ridge statistics / bandit arms / drift detector, and retrains + hot
// swaps when warranted.
func (m *Manager) run() {
	defer close(m.done)
	for {
		select {
		case <-m.stopc:
			return
		case s := <-m.ch:
			m.ingest(s)
			m.processed.Add(1)
		}
	}
}

// oracleRowFor returns the memoized ground-truth sweep of a signature,
// running (and memoizing) the sample's sweep closure on first sight.
func (m *Manager) oracleRowFor(sg sig, sweep func() ([]core.ConfigTime, error)) *oracleRow {
	m.sigMu.RLock()
	row := m.sigTab[sg]
	m.sigMu.RUnlock()
	if row != nil || sweep == nil {
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
	row = newOracleRow(times)
	m.sigMu.Lock()
	if prev, ok := m.sigTab[sg]; ok {
		row = prev
	} else {
		m.sigTab[sg] = row
	}
	m.sigMu.Unlock()
	return row
}

func (m *Manager) ingest(s core.LaunchSample) {
	sg := sig{Kernel: s.Kernel, Base: s.Base}
	row := m.oracleRowFor(sg, s.Sweep)
	if row == nil || row.best < 0 {
		return
	}
	ts := m.tenantState(s.Tenant)
	ts.mu.Lock()
	defer ts.mu.Unlock()

	// Bandit reward for the configuration that actually executed.
	if idx, ok := m.cfgIdx[s.Decision.Config]; ok {
		as := ts.arms[sg]
		if as == nil {
			as = newArmStats(len(m.cfgs))
			ts.arms[sg] = as
		}
		as.observe(idx, row.reward(idx))

		// Drift statistic: how far the published model's prediction for
		// the exploited choice was from the realized normalized
		// performance. Explored and model-less launches carry no
		// prediction to judge.
		if !s.Decision.Explored && !s.Decision.ModelDiscarded && s.Decision.Evaluated > 0 {
			if ts.drift.push(s.Decision.Predicted-row.reward(idx), m.cfg.DriftThreshold) {
				ts.drifts++
				m.driftDet.Add(1)
				m.publishLocked(ts, "drift")
			}
		}
	}

	// Slide the window: the new launch contributes one oracle row (44
	// training samples) to the ridge statistics; the evicted launch is
	// Forgotten exactly.
	ts.window = append(ts.window, sg)
	ts.inWindow[sg]++
	m.foldRow(&ts.ridge, sg, row, +1)
	for len(ts.window) > m.cfg.WindowLaunches {
		old := ts.window[0]
		ts.window = ts.window[1:]
		if ts.inWindow[old]--; ts.inWindow[old] <= 0 {
			delete(ts.inWindow, old)
		}
		m.sigMu.RLock()
		oldRow := m.sigTab[old]
		m.sigMu.RUnlock()
		if oldRow != nil {
			m.foldRow(&ts.ridge, old, oldRow, -1)
		}
	}
	ts.launches++
	ts.sinceSwap++
	if !ts.pubSigs[sg] {
		ts.pendingNew++
	}
	if ts.pendingNew > 0 && ts.sinceSwap >= m.cfg.RetrainEvery && len(ts.window) >= m.cfg.MinLaunches {
		m.publishLocked(ts, "retrain")
	}
}

// foldRow adds (sign=+1) or removes (sign=-1) one signature's oracle
// row from the tenant's ridge statistics: one training sample per DoP
// configuration, y = normalized performance.
func (m *Manager) foldRow(r *ml.OnlineRidge, sg sig, row *oracleRow, sign int) {
	for i, cfg := range m.cfgs {
		x := core.WithConfig(sg.Base, m.machine, cfg)
		y := row.reward(i)
		if sign > 0 {
			r.Observe(x, y)
		} else {
			r.Forget(x, y)
		}
	}
}

// publishLocked retrains the tenant's model from the current window and
// hot-swaps it in under a fresh generation. Called with ts.mu held. The
// swap is atomic: launches in flight keep the (model, generation) pair
// they resolved.
func (m *Manager) publishLocked(ts *tenantState, reason string) {
	if len(ts.window) == 0 {
		return
	}
	perf := make(map[ml.Features]float64, len(ts.inWindow)*len(m.cfgs))
	for sg := range ts.inWindow {
		m.sigMu.RLock()
		row := m.sigTab[sg]
		m.sigMu.RUnlock()
		if row == nil {
			continue
		}
		for i, cfg := range m.cfgs {
			perf[core.WithConfig(sg.Base, m.machine, cfg)] = row.reward(i)
		}
	}
	var ridgeM ml.Model
	if ts.ridge.Len() >= 2*len(m.cfgs) {
		if fit, err := ts.ridge.Fit(); err == nil {
			ridgeM = fit
		}
	}
	alpha := float64(len(ts.window)) / float64(m.cfg.WarmupLaunches)
	if alpha > 1 {
		alpha = 1
	}
	gen := m.gen.Add(1)
	parent := ""
	if m.base != nil {
		parent = m.base.Name()
	}
	tm := &tenantModel{
		name:  "ONLINE",
		perf:  perf,
		ridge: ridgeM,
		alpha: alpha,
		base:  m.base,
	}
	prov := ml.Provenance{
		Tenant:        ts.name,
		Generation:    gen,
		Samples:       ts.ridge.Len(),
		Origin:        "online",
		Parent:        parent,
		TrainedUnixMS: time.Now().UnixMilli(),
	}
	ts.pub.Store(&published{model: tm, gen: gen, prov: prov, reason: reason})
	ts.pubSigs = make(map[sig]bool, len(ts.inWindow))
	for sg := range ts.inWindow {
		ts.pubSigs[sg] = true
	}
	ts.pendingNew = 0
	ts.sinceSwap = 0
	ts.lastReason = reason
	ts.drift.reset()
	m.retrains.Add(1)
	m.swaps.Add(1)
	if m.cfg.OnSwap != nil {
		m.cfg.OnSwap(ts.name, gen)
	}
}

// TenantStatus is one tenant's learner state for /v1/models and tests.
type TenantStatus struct {
	Tenant         string        `json:"tenant"`
	Generation     uint64        `json:"generation"`
	Model          string        `json:"model"`
	WindowLaunches int           `json:"window_launches"`
	Signatures     int           `json:"signatures"`
	RidgeSamples   int           `json:"ridge_samples"`
	Launches       int64         `json:"launches"`
	Explores       int64         `json:"explores"`
	Regret         float64       `json:"regret"`
	RegretBudget   float64       `json:"regret_budget"`
	MeanAbsErr     float64       `json:"mean_abs_err"`
	Drifts         int64         `json:"drifts"`
	SwapReason     string        `json:"swap_reason,omitempty"`
	Provenance     ml.Provenance `json:"provenance,omitempty"`
}

// Status is a consistent snapshot of the whole learner for /v1/models
// and the metrics endpoint.
type Status struct {
	Policy          string         `json:"policy"`
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
	DriftDetections int64          `json:"drift_detections"`
	Tenants         []TenantStatus `json:"tenants"`
}

// Status snapshots the manager. Safe to call concurrently with serving.
func (m *Manager) Status() Status {
	st := Status{
		Policy:          m.cfg.Policy,
		Epsilon:         m.cfg.Epsilon,
		RegretBudget:    m.cfg.RegretBudget,
		Generation:      m.gen.Load(),
		SamplesIngested: m.ingested.Load(),
		SamplesDropped:  m.dropped.Load(),
		SamplesPending:  m.ingested.Load() - m.processed.Load(),
		Sweeps:          m.sweeps.Load(),
		SweepErrors:     m.sweepErrs.Load(),
		Retrains:        m.retrains.Load(),
		Swaps:           m.swaps.Load(),
		Explorations:    m.explorations.Load(),
		DriftDetections: m.driftDet.Load(),
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
			RegretBudget: m.cfg.RegretBudget,
		}
		if m.base != nil {
			t.Model = m.base.Name()
		}
		if p := ts.pub.Load(); p != nil {
			t.Generation = p.gen
			t.Model = p.model.Name()
			t.Provenance = p.prov
		}
		ts.mu.Lock()
		t.WindowLaunches = len(ts.window)
		t.Signatures = len(ts.inWindow)
		t.RidgeSamples = ts.ridge.Len()
		t.Launches = ts.launches
		t.Explores = ts.explores
		t.Regret = ts.regret
		t.MeanAbsErr = ts.drift.mean()
		t.Drifts = ts.drifts
		t.SwapReason = ts.lastReason
		ts.mu.Unlock()
		st.Tenants = append(st.Tenants, t)
	}
	return st
}
