package online

import (
	"context"
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

// fakeBase is a deterministic stand-in for the global offline model: it
// scores every configuration alike, so its argmax is Configs()[0].
type fakeBase struct{ v float64 }

func (f fakeBase) Name() string                { return "FAKE" }
func (f fakeBase) Predict(ml.Features) float64 { return f.v }

// testSample fabricates one launch of a synthetic signature whose
// oracle-best configuration is cfgs[bestIdx]: config i costs
// 1 + 0.01*|i-bestIdx| simulated seconds. Kernels with names of equal
// length share one feature vector.
func testSample(m *Manager, tenant, kernel string, bestIdx int) core.LaunchSample {
	var base ml.Features
	base[ml.FGlobalSize] = float64(1000 + len(kernel))
	base[ml.FWorkDim] = 1
	return core.LaunchSample{
		Tenant: tenant,
		Kernel: kernel,
		Base:   base,
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

func newTestManager(t *testing.T) *Manager {
	t.Helper()
	m := New(sim.Kaveri())
	t.Cleanup(m.Close)
	return m
}

func syncLearner(t *testing.T, m *Manager) {
	t.Helper()
	if !m.Sync(5 * time.Second) {
		t.Fatal("learner did not drain")
	}
}

// exploit advises dec for s's tenant and signature until the bandit
// leaves a call alone, so a test sees the exploited answer whatever the
// coin says.
func exploit(m *Manager, s core.LaunchSample, dec core.Decision) core.Decision {
	for {
		if got := m.Advise(s.Tenant, s.Kernel, s.Base, dec); !got.Explored {
			return got
		}
	}
}

// TestManagerRetrainsAndSwapsToOracleArgmax: once one sample of a
// signature is ingested, the memo answers the tenant's next launch of it
// with the oracle argmax. A tenant that never launched the signature and
// a signature the memo lacks keep the model's decision.
func TestManagerRetrainsAndSwapsToOracleArgmax(t *testing.T) {
	m := newTestManager(t)
	const bestIdx = 17
	dec := core.Decision{Config: m.cfgs[0], Predicted: 0.5, Evaluated: len(m.cfgs)}
	s := testSample(m, "s-1", "gesummv", bestIdx)
	if got := m.Advise(s.Tenant, s.Kernel, s.Base, dec); got != dec {
		t.Fatalf("cold signature advised %+v, want the model's %+v", got, dec)
	}
	m.Observe(s)
	m.Observe(testSample(m, "s-2", "spmv", 3))
	syncLearner(t, m)

	got := exploit(m, s, dec)
	if !got.Learned || got.Config != m.cfgs[bestIdx] || got.Predicted != 1 || got.Evaluated != len(m.cfgs) {
		t.Fatalf("after one sample: %+v, want the oracle argmax %v, learned", got, m.cfgs[bestIdx])
	}
	// s-2 has learner state and the memo holds gesummv's row, but s-2
	// never launched gesummv.
	other := s
	other.Tenant = "s-2"
	if got := exploit(m, other, dec); got.Learned || got.Config != dec.Config {
		t.Fatalf("another tenant's launch advised %+v, want the model's %v", got, dec.Config)
	}
	unseen := testSample(m, "s-1", "a-much-longer-kernel", bestIdx)
	if got := m.Advise(unseen.Tenant, unseen.Kernel, unseen.Base, dec); got != dec {
		t.Fatalf("unseen signature advised %+v, want the model's %+v", got, dec)
	}
	if st := m.Status(); st.Learned < 1 || st.Tenants[0].Learned < 1 {
		t.Fatalf("learned answers not counted: %+v", st)
	}
}

// incSrc is the kernel the framework-level tests launch.
const incSrc = `__kernel void k(__global float* a, int n) {
	int i = get_global_id(0);
	if (i < n) a[i] = a[i] + 1.0f;
}`

// launcher returns a function that runs incSrc as tenant through fw's
// managed rung at global size n.
func launcher(t *testing.T, fw *core.Framework) func(tenant string, n int) core.Decision {
	t.Helper()
	prog, err := clc.Compile(incSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.Kernel("k")
	return func(tenant string, n int) core.Decision {
		t.Helper()
		args := []interp.Arg{interp.BufArg(interp.NewFloatBuffer(n)), interp.IntArg(int64(n))}
		ex, err := fw.ExecuteCtx(core.WithTenant(context.Background(), tenant), k, args, interp.ND1(n, 64))
		if err != nil {
			t.Fatal(err)
		}
		return ex.Decision
	}
}

// TestHotSwapReachesTheNextDecision sets a manager as a framework's
// advisor: the tenant's first launch is decided by the model, and once
// the learner has ingested it, the next launch of the same signature
// executes the memoized row's argmax. The model still ran: the answer
// replaces its argmax, not its sweep.
func TestHotSwapReachesTheNextDecision(t *testing.T) {
	m := newTestManager(t)
	fw := core.New(sim.Kaveri(), fakeBase{0.5})
	fw.Advisor = m
	launch := launcher(t, fw)

	before := launch("s-1", 1024)
	if before.Learned || before.Config != m.cfgs[0] || before.Evaluated != len(m.cfgs) {
		t.Fatalf("first launch: %+v, want the model's argmax %v over a full sweep", before, m.cfgs[0])
	}
	syncLearner(t, m)
	if len(m.Status().Tenants) != 1 || m.OracleRows().Entries != 1 {
		t.Fatalf("the first launch was not ingested: %+v", m.Status())
	}
	var row *oracleRow
	m.rows.Each(func(_ sig, r *oracleRow) { row = r })
	want := m.cfgs[row.best]
	if want == before.Config {
		t.Fatalf("the oracle best %v is the model's argmax: the test cannot tell them apart", want)
	}
	after := launch("s-1", 1024)
	for after.Explored {
		after = launch("s-1", 1024)
	}
	if !after.Learned || after.Config != want || after.Evaluated != len(m.cfgs) || after.ModelDiscarded {
		t.Fatalf("launch after the sample: %+v, want the oracle best %v, learned, over a full sweep", after, want)
	}
}

// TestLearnerNeverReplacesAMissingModel: with no model the framework
// decides ALL, and a learner that has learned one of the tenant's
// signatures still leaves every other signature on ALL.
func TestLearnerNeverReplacesAMissingModel(t *testing.T) {
	m := newTestManager(t)
	machine := sim.Kaveri()
	fw := core.New(machine, nil)
	fw.Advisor = m
	launch := launcher(t, fw)

	if dec := launch("", 1024); dec.Config != machine.AllResources() || dec.Learned {
		t.Fatalf("model-less first launch: %+v, want ALL", dec)
	}
	syncLearner(t, m)
	if dec := launch("", 1024); !dec.Learned && !dec.Explored {
		t.Fatalf("learned signature: %+v, want the memo's answer", dec)
	}
	if dec := launch("", 2048); dec.Config != machine.AllResources() || dec.Learned || dec.Explored {
		t.Fatalf("unseen signature: %+v, want ALL %v", dec, machine.AllResources())
	}
}

// TestAdviseKeysByKernel: two kernels with one feature vector have
// their own oracle rows, and each gets its own argmax.
func TestAdviseKeysByKernel(t *testing.T) {
	m := newTestManager(t)
	a, b := testSample(m, "s-1", "ka", 5), testSample(m, "s-1", "kb", 30)
	if a.Base != b.Base {
		t.Fatal("the two kernels must share a feature vector")
	}
	m.Observe(a)
	m.Observe(b)
	syncLearner(t, m)
	dec := core.Decision{Config: m.cfgs[0], Evaluated: len(m.cfgs)}
	for _, c := range []struct {
		s    core.LaunchSample
		best int
	}{{a, 5}, {b, 30}} {
		if got := exploit(m, c.s, dec); !got.Learned || got.Config != m.cfgs[c.best] {
			t.Errorf("kernel %s advised %+v, want its own argmax %v", c.s.Kernel, got, m.cfgs[c.best])
		}
	}
}

func TestExploreRespectsRegretBudget(t *testing.T) {
	m := newTestManager(t)
	s := testSample(m, "s-1", "gesummv", 7)
	dec := core.Decision{Config: m.cfgs[3], Predicted: 0.9, Evaluated: len(m.cfgs)}

	// Before any sample lands, the signature has no oracle row: the
	// bandit must refuse to explore blind.
	if got := m.Advise(s.Tenant, s.Kernel, s.Base, dec); got.Explored {
		t.Fatal("explored without an oracle row")
	}
	m.Observe(s)
	syncLearner(t, m)
	explored := 0
	for i := 0; i < 10000; i++ {
		if m.Advise(s.Tenant, s.Kernel, s.Base, dec).Explored {
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
	if m.Advise(s.Tenant, s.Kernel, s.Base, dec).Explored {
		st := m.Status()
		if st.Tenants[0].Regret > regretBudget {
			t.Fatalf("post-exhaustion explore overdrew budget: %+v", st.Tenants[0])
		}
	}
}

func TestCollectorNeverBlocksLaunchPath(t *testing.T) {
	m := newTestManager(t)
	gate := make(chan struct{})
	blocked := core.LaunchSample{
		Tenant: "s-1", Kernel: "slow",
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
// launch, are advised and read status from their own goroutines. Each
// close is applied after the samples its tenant queued before it, so once
// the learner drains, only the tenants never closed are left. Run under
// -race: Advise, Forget and the learner goroutine share tenant state.
func TestForgetDropsClosedTenants(t *testing.T) {
	m := newTestManager(t)
	const tenants, launches = 8, 16
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("s-%d", i)
			dec := core.Decision{Config: m.cfgs[0], Evaluated: len(m.cfgs)}
			for j := 0; j < launches; j++ {
				s := testSample(m, name, fmt.Sprintf("k%d", j%3), j%len(m.cfgs))
				m.Advise(name, s.Kernel, s.Base, dec)
				m.Observe(s)
				m.Status()
			}
			if i%2 == 0 {
				m.Forget(name)
			}
		}(i)
	}
	wg.Wait()
	syncLearner(t, m)
	var got []string
	for _, ts := range m.Status().Tenants {
		got = append(got, ts.Tenant)
	}
	if want := []string{"s-1", "s-3", "s-5", "s-7"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("tenants after closing the even ones: %v, want %v", got, want)
	}
}
