package core

// The online-learning loop. The paper trains its models offline and
// freezes them; a serving system under a drifting tenant mix decays
// toward the static baseline the paper argues against. A Learner set as
// Framework.Learner closes the loop on the launch itself: after a
// tenant's managed launch runs, its signature's oracle sweep (one
// timing-only simulation of every DoP configuration) is memoized, and the
// tenant's next launch of a signature it launched recently executes the
// memoized argmax. A launch's signature is its kernel model (modelKey).
// An ε-greedy exploration layer spends a per-tenant regret budget charged
// against the memoized sweep.

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"dopia/internal/lru"
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
	// learnerSeed makes exploration deterministic.
	learnerSeed = 1
)

// OracleRowCap bounds the memo of oracle sweeps, in signatures: eight
// tenants' recent signatures. A row is 44 float64s.
const OracleRowCap = 8 * tenantSigs

// modelKey is the signature of a launch whose kernel model is km: every
// field of the model, each float by its bits, in an encoding that can be
// read back unambiguously. A row depends on nothing else — each entry is
// sim.Simulate(machine, km, cfg, dist) — so launches with equal
// signatures have identical rows by construction, and, with no hash, two
// different models never share one.
func modelKey(km *sim.KernelModel) string {
	k := make([]byte, 0, 64+48*len(km.Sites))
	i := func(v int64) { k = binary.AppendVarint(k, v) }
	f := func(v float64) { k = binary.AppendUvarint(k, math.Float64bits(v)) }
	b := func(v bool) {
		if v {
			k = append(k, 1)
		} else {
			k = append(k, 0)
		}
	}
	i(int64(len(km.Name)))
	k = append(k, km.Name...)
	i(int64(km.WorkDim))
	i(int64(km.NumWGs))
	i(int64(km.WGSize))
	i(int64(km.GroupsPerRow))
	f(km.AluIntPerWG)
	f(km.AluFloatPerWG)
	for _, st := range km.Sites {
		i(int64(st.Site))
		b(st.Write)
		i(st.ElemSize)
		f(st.AccPerWG)
		i(int64(st.Iter))
		i(st.IterStride)
		i(int64(st.Lane))
		i(st.LaneStride)
		f(st.BufBytes)
		f(st.DistinctPerWI)
		b(st.SharedAcrossWI)
	}
	return string(k)
}

// oracleRow is the memoized ground-truth sweep of one signature: the
// simulated time of every DoP configuration, indexed like
// Machine.Configs(), with the oracle-best configuration precomputed.
// Rows are immutable once built — the simulator is deterministic, so one
// sweep per signature is the whole truth.
type oracleRow struct {
	times    []float64
	best     int // index of the first fastest configuration
	bestTime float64
}

// regretOf returns the relative regret of executing arm i instead of
// the oracle best: (t_i - t_best) / t_best, >= 0.
func (r *oracleRow) regretOf(i int) float64 { return (r.times[i] - r.bestTime) / r.bestTime }

// tenantState is the learner's view of one tenant. sigs is safe for
// concurrent use on its own; everything else is guarded by mu.
type tenantState struct {
	sigs *lru.Cache[string, struct{}] // the tenantSigs most recently launched signatures

	mu       sync.Mutex
	regret   float64 // cumulative exploration regret spent
	explores int64
	launches int64
	learned  int64
}

// Learner is the online-learning loop of a Framework. The framework calls
// it on the launching goroutine, before and after the launch's execution;
// it starts no goroutine of its own, and all its methods are safe for
// concurrent use.
type Learner struct {
	cfgs []sim.Config

	// tenants holds the state of every tenant with a live session; Forget
	// deletes from it.
	mu      sync.Mutex
	tenants map[string]*tenantState

	rows *lru.Cache[string, *oracleRow]

	rngMu sync.Mutex
	rng   *rand.Rand

	ingested     atomic.Int64
	sweeps       atomic.Int64
	sweepErrs    atomic.Int64
	learned      atomic.Int64
	explorations atomic.Int64
}

// NewLearner creates a Learner over the DoP configuration space of
// machine.
func NewLearner(machine *sim.Machine) *Learner {
	return &Learner{
		cfgs:    machine.Configs(),
		tenants: map[string]*tenantState{},
		rows:    lru.New[string, *oracleRow](OracleRowCap, nil),
		rng:     rand.New(rand.NewSource(learnerSeed)),
	}
}

// advise returns the decision to execute for a managed launch whose
// kernel model is km and whose model decision is dec. A launch whose
// signature the tenant launched
// recently, and whose oracle row the memo holds, is answered with the
// row's argmax (Learned). Then the ε-greedy bandit may explore: a launch
// is eligible only when its signature has a memoized row (so the regret
// charge is exact, never estimated) and the tenant has regret budget
// left. The charge is applied at decision time.
func (l *Learner) advise(tenant string, km *sim.KernelModel, dec Decision) Decision {
	sg := modelKey(km)
	row, ok := l.rows.Get(sg)
	if !ok {
		return dec
	}
	l.mu.Lock()
	ts := l.tenants[tenant]
	l.mu.Unlock()
	if ts == nil {
		return dec
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, ok := ts.sigs.Get(sg); ok {
		// 1 is the oracle argmax's normalized performance.
		dec.Config, dec.Predicted, dec.Learned = l.cfgs[row.best], 1, true
		ts.learned++
		l.learned.Add(1)
	}
	l.rngMu.Lock()
	coin, pick := l.rng.Float64(), l.rng.Intn(len(l.cfgs))
	l.rngMu.Unlock()
	if coin >= epsilon || l.cfgs[pick] == dec.Config {
		return dec
	}
	regret := row.regretOf(pick)
	if regret > regretBudget-ts.regret {
		return dec
	}
	ts.regret += regret
	ts.explores++
	l.explorations.Add(1)
	dec.Config, dec.Explored = l.cfgs[pick], true
	return dec
}

// observe makes a completed launch's signature, its kernel model km, its
// tenant's most recently launched. On a memo miss it first runs sweep,
// which returns the simulated result of every configuration in
// Machine.Configs() order, and memoizes the row; a failed sweep leaves
// the tenant as it was.
func (l *Learner) observe(tenant string, km *sim.KernelModel, sweep func() ([]*sim.Result, error)) {
	l.ingested.Add(1)
	sg := modelKey(km)
	if l.oracleRow(sg, sweep) == nil {
		return
	}
	l.mu.Lock()
	ts := l.tenants[tenant]
	if ts == nil {
		ts = &tenantState{sigs: lru.New[string, struct{}](tenantSigs, nil)}
		l.tenants[tenant] = ts
	}
	l.mu.Unlock()
	ts.sigs.Put(sg, struct{}{})
	ts.mu.Lock()
	ts.launches++
	ts.mu.Unlock()
}

// oracleRow returns the memoized sweep of a signature, running (and
// memoizing) sweep when the memo does not hold it. Two tenants missing
// one signature at once may both sweep it; the rows are equal.
func (l *Learner) oracleRow(sg string, sweep func() ([]*sim.Result, error)) *oracleRow {
	if row, ok := l.rows.Get(sg); ok {
		return row
	}
	rs, err := sweep()
	l.sweeps.Add(1)
	if err != nil || len(rs) != len(l.cfgs) {
		l.sweepErrs.Add(1)
		return nil
	}
	row := &oracleRow{times: make([]float64, len(rs)), bestTime: math.Inf(1)}
	for i, r := range rs {
		if r.Time <= 0 || math.IsNaN(r.Time) || math.IsInf(r.Time, 0) {
			l.sweepErrs.Add(1)
			return nil
		}
		row.times[i] = r.Time
		if r.Time < row.bestTime {
			row.best, row.bestTime = i, r.Time
		}
	}
	l.rows.Put(sg, row)
	return row
}

// Forget drops everything the learner holds for tenant. The caller must
// have stopped launching as tenant: a later launch would start its state
// afresh.
func (l *Learner) Forget(tenant string) {
	l.mu.Lock()
	delete(l.tenants, tenant)
	l.mu.Unlock()
}

// OracleRows reports the occupancy and traffic of the oracle-sweep memo,
// which holds at most OracleRowCap signatures.
func (l *Learner) OracleRows() lru.Stats { return l.rows.Stats() }

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

// LearnerStatus is a snapshot of the whole learner for /v1/models and
// the metrics endpoint.
type LearnerStatus struct {
	Epsilon         float64        `json:"epsilon"`
	RegretBudget    float64        `json:"regret_budget"`
	SamplesIngested int64          `json:"samples_ingested"`
	Sweeps          int64          `json:"sweeps"`
	SweepErrors     int64          `json:"sweep_errors"`
	Learned         int64          `json:"learned"`
	Explorations    int64          `json:"explorations"`
	Tenants         []TenantStatus `json:"tenants"`
}

// Status snapshots the learner. Safe to call concurrently with serving.
// The totals are read after the tenants: advise bumps a tenant's count
// and the total together under the tenant's lock, so a snapshot's totals
// are never below the sum over its live tenants.
func (l *Learner) Status() LearnerStatus {
	st := LearnerStatus{Epsilon: epsilon, RegretBudget: regretBudget}
	l.mu.Lock()
	for name, ts := range l.tenants {
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
	l.mu.Unlock()
	st.SamplesIngested, st.Sweeps, st.SweepErrors = l.ingested.Load(), l.sweeps.Load(), l.sweepErrs.Load()
	st.Learned, st.Explorations = l.learned.Load(), l.explorations.Load()
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Tenant < st.Tenants[j].Tenant })
	return st
}

// tenantKey is the context key carrying the tenant identity of a launch.
type tenantKey struct{}

// WithTenant tags a context with the tenant identity that owns the
// launches executed under it. The serving layer sets it per session. An
// empty tenant leaves the context untagged, and an untagged launch is
// neither advised nor learned from.
func WithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// TenantFrom extracts the tenant identity from a context ("" if unset).
func TenantFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	if t, ok := ctx.Value(tenantKey{}).(string); ok {
		return t
	}
	return ""
}
