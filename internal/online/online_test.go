package online

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"dopia/internal/clc"
	"dopia/internal/core"
	"dopia/internal/interp"
	"dopia/internal/ml"
	"dopia/internal/sim"
)

// fakeBase is a deterministic stand-in for the global offline model.
type fakeBase struct{ v float64 }

func (f fakeBase) Name() string                { return "FAKE" }
func (f fakeBase) Predict(ml.Features) float64 { return f.v }

// testSample fabricates one launch of a synthetic signature whose
// oracle-best configuration is cfgs[bestIdx]: config i costs
// 1 + 0.01*|i-bestIdx| simulated seconds.
func testSample(m *Manager, tenant, kernel string, bestIdx int, dec core.Decision) core.LaunchSample {
	var base ml.Features
	base[ml.FGlobalSize] = float64(1000 + len(kernel))
	base[ml.FWorkDim] = 1
	return core.LaunchSample{
		Tenant:       tenant,
		Kernel:       kernel,
		Base:         base,
		Decision:     dec,
		ObservedTime: 1,
		Sweep: func() ([]core.ConfigTime, error) {
			cts := make([]core.ConfigTime, len(m.cfgs))
			for i, cfg := range m.cfgs {
				d := i - bestIdx
				if d < 0 {
					d = -d
				}
				cts[i] = core.ConfigTime{Config: cfg, Time: 1 + 0.01*float64(d)}
			}
			return cts, nil
		},
	}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	cfg.Machine = sim.Kaveri()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestManagerRetrainsAndSwapsToOracleArgmax(t *testing.T) {
	m := newTestManager(t, Config{Base: fakeBase{0.5}})
	if mdl, gen := m.ModelFor("s-1"); mdl != (fakeBase{0.5}) || gen != 1 {
		t.Fatalf("cold tenant should get base model at gen 1, got %v gen %d", mdl, gen)
	}
	const bestIdx = 17
	dec := core.Decision{Config: m.cfgs[0], Predicted: 0.5, Evaluated: len(m.cfgs), ModelGen: 1}
	for i := 0; i < retrainEvery; i++ {
		m.Observe(testSample(m, "s-1", "gesummv", bestIdx, dec))
	}
	if !m.Sync(5 * time.Second) {
		t.Fatal("learner did not drain")
	}
	st := m.Status()
	if st.Swaps < 1 || st.Retrains < 1 {
		t.Fatalf("expected at least one retrain+swap, got %+v", st)
	}
	mdl, gen := m.ModelFor("s-1")
	if gen < 2 {
		t.Fatalf("published generation %d, want >= 2", gen)
	}
	// The published model must reproduce the oracle argmax for the
	// learned signature.
	sample := testSample(m, "s-1", "gesummv", bestIdx, dec)
	argmax, bestV := -1, 0.0
	for i, cfg := range m.cfgs {
		v := mdl.Predict(core.WithConfig(sample.Base, m.machine, cfg))
		if argmax < 0 || v > bestV {
			argmax, bestV = i, v
		}
	}
	if argmax != bestIdx {
		t.Fatalf("published model argmax = config %d, oracle best is %d", argmax, bestIdx)
	}
	// Feature vectors the table lacks are scored by the base model.
	var far ml.Features
	far[ml.FGlobalSize] = 1e7
	if v := mdl.Predict(far); v != 0.5 {
		t.Fatalf("unseen signature predicted %v, want the base model's 0.5", v)
	}
}

// TestHotSwapReachesTheNextDecision attaches a manager to a framework and
// swaps a tenant's model: the decision before the swap is scored by the
// base generation, the one after it by the published one. The manager
// holds no reference to the framework and tells it nothing — a decision
// asks for its model every time, so there is no per-generation state on
// the decision path to retire.
func TestHotSwapReachesTheNextDecision(t *testing.T) {
	m := newTestManager(t, Config{Base: fakeBase{0.5}})
	fw := core.New(m.machine, nil)
	m.Attach(fw)

	prog, err := clc.Compile(`__kernel void k(__global float* a, int n) {
		int i = get_global_id(0);
		if (i < n) a[i] = a[i] + 1.0f;
	}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fw.Analysis(prog.Kernel("k"))
	if err != nil {
		t.Fatal(err)
	}
	nd := interp.ND1(1024, 64)

	before := fw.Decide(res, nd)
	if before.ModelGen != 1 || before.Evaluated != len(m.cfgs) {
		t.Fatalf("cold decision: %+v, want a full sweep by generation 1", before)
	}
	// Decide launches as the anonymous tenant.
	for i := 0; i < retrainEvery; i++ {
		m.Observe(testSample(m, "", "k", 17, before))
	}
	if !m.Sync(5 * time.Second) {
		t.Fatal("learner did not drain")
	}
	after := fw.Decide(res, nd)
	if after.ModelGen < 2 || after.Evaluated != len(m.cfgs) || after.ModelDiscarded {
		t.Fatalf("decision after the swap: %+v, want a full sweep by generation >= 2", after)
	}
}

func TestGenerationsMonotonicAcrossSwaps(t *testing.T) {
	m := newTestManager(t, Config{})
	dec := core.Decision{Config: m.cfgs[0], Evaluated: len(m.cfgs)}
	const rounds = 3
	last := uint64(1)
	for r := 0; r < rounds; r++ {
		for i := 0; i < retrainEvery; i++ {
			// A fresh kernel name per launch keeps pendingNew > 0, so every
			// retrainEvery boundary actually swaps.
			k := r*retrainEvery + i
			m.Observe(testSample(m, "s-1", fmt.Sprintf("k%d", k), k%len(m.cfgs), dec))
		}
		if !m.Sync(5 * time.Second) {
			t.Fatal("learner did not drain")
		}
		st := m.Status()
		if _, gen := m.ModelFor("s-1"); gen <= last || gen != st.Generation {
			t.Fatalf("round %d: tenant generation %d (learner %d), want it past %d and the learner's newest",
				r, gen, st.Generation, last)
		}
		last = st.Generation
		if st.Swaps != int64(r+1) {
			t.Fatalf("round %d: %d swaps, want %d", r, st.Swaps, r+1)
		}
	}
}

func TestExploreRespectsRegretBudget(t *testing.T) {
	m := newTestManager(t, Config{})
	var base ml.Features
	base[ml.FGlobalSize] = 1000 + float64(len("gesummv"))
	base[ml.FWorkDim] = 1
	dec := core.Decision{Config: m.cfgs[3], Predicted: 0.9, Evaluated: len(m.cfgs)}

	// Before any sample lands, the signature has no oracle row: the
	// bandit must refuse to explore blind.
	if _, ok := m.Explore("s-1", "gesummv", base, dec); ok {
		t.Fatal("explored without an oracle row")
	}
	m.Observe(testSample(m, "s-1", "gesummv", 7, dec))
	if !m.Sync(5 * time.Second) {
		t.Fatal("learner did not drain")
	}
	explored := 0
	for i := 0; i < 10000; i++ {
		if _, ok := m.Explore("s-1", "gesummv", base, dec); ok {
			explored++
		}
	}
	if explored == 0 {
		t.Fatal("10000 eligible launches never explored")
	}
	st := m.Status()
	if len(st.Tenants) != 1 {
		t.Fatalf("want 1 tenant, got %+v", st.Tenants)
	}
	if r := st.Tenants[0].Regret; r > regretBudget {
		t.Fatalf("regret %v exceeded budget %v", r, regretBudget)
	}
	// Budget exhausted (or no affordable arm left): exploration stops.
	if _, ok := m.Explore("s-1", "gesummv", base, dec); ok {
		st := m.Status()
		if st.Tenants[0].Regret > regretBudget {
			t.Fatalf("post-exhaustion explore overdrew budget: %+v", st.Tenants[0])
		}
	}
}

func TestCollectorNeverBlocksLaunchPath(t *testing.T) {
	m := newTestManager(t, Config{})
	gate := make(chan struct{})
	blocked := core.LaunchSample{
		Tenant: "s-1", Kernel: "slow",
		Decision: core.Decision{Config: m.cfgs[0]},
		Sweep: func() ([]core.ConfigTime, error) {
			<-gate
			return nil, fmt.Errorf("aborted")
		},
	}
	m.Observe(blocked) // learner picks this up and parks in Sweep
	deadline := time.Now().Add(2 * time.Second)
	for m.ingested.Load() > 0 && m.ch != nil && len(m.ch) > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Saturate the queue; every further Observe must return immediately
	// and count a drop.
	start := time.Now()
	for i := 0; i < queueDepth+50; i++ {
		m.Observe(blocked)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("Observe blocked the launch path for %v", el)
	}
	if m.dropped.Load() == 0 {
		t.Fatal("saturated collector did not drop samples")
	}
	close(gate)
	if !m.Sync(5 * time.Second) {
		t.Fatal("learner did not drain after unblocking")
	}
	if m.Status().SweepErrors == 0 {
		t.Fatal("aborted sweeps were not counted")
	}
}

// TestForgetDropsClosedTenants closes half the tenants while all of them
// launch, explore and read status from their own goroutines. Each close
// is applied after the samples its tenant queued before it, so once the
// learner drains, only the tenants never closed are left. Run under
// -race: Explore, Forget and the learner goroutine share tenant state.
func TestForgetDropsClosedTenants(t *testing.T) {
	m := newTestManager(t, Config{Base: fakeBase{0.5}})
	const tenants, launches = 8, 2 * retrainEvery
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("s-%d", i)
			dec := core.Decision{Config: m.cfgs[0], Evaluated: len(m.cfgs)}
			for j := 0; j < launches; j++ {
				s := testSample(m, name, fmt.Sprintf("k%d", j%3), j%len(m.cfgs), dec)
				m.ModelFor(name)
				m.Explore(name, s.Kernel, s.Base, dec)
				m.Observe(s)
				m.Status()
			}
			if i%2 == 0 {
				m.Forget(name)
			}
		}(i)
	}
	wg.Wait()
	if !m.Sync(5 * time.Second) {
		t.Fatal("learner did not drain")
	}
	var got []string
	for _, ts := range m.Status().Tenants {
		got = append(got, ts.Tenant)
	}
	if want := []string{"s-1", "s-3", "s-5", "s-7"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("tenants after closing the even ones: %v, want %v", got, want)
	}
}
