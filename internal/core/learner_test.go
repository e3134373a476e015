package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dopia/internal/clc"
	"dopia/internal/interp"
	"dopia/internal/ml"
	"dopia/internal/sched"
	"dopia/internal/sim"
	"dopia/internal/workloads"
)

// fakeBase is a deterministic stand-in for the global offline model: it
// scores every configuration alike, so its argmax is Configs()[0].
type fakeBase struct{ v float64 }

func (f fakeBase) Name() string                { return "FAKE" }
func (f fakeBase) Predict(ml.Features) float64 { return f.v }

// sample is one fabricated launch of a synthetic signature.
type sample struct {
	tenant string
	km     *sim.KernelModel
	sweep  func() ([]*sim.Result, error)
}

// testSample fabricates one launch of a synthetic signature, a model of a
// kernel named kernel, whose oracle-best configuration is cfgs[bestIdx]:
// config i costs 1 + 0.01*|i-bestIdx| simulated seconds.
func testSample(l *Learner, tenant, kernel string, bestIdx int) sample {
	return sample{
		tenant: tenant,
		km: &sim.KernelModel{Name: kernel, WorkDim: 1, NumWGs: 16, WGSize: 64, GroupsPerRow: 1,
			Sites: []sim.SiteModel{{Site: 1, ElemSize: 4, AccPerWG: 64}}},
		sweep: func() ([]*sim.Result, error) {
			rs := make([]*sim.Result, len(l.cfgs))
			for i := range l.cfgs {
				d := i - bestIdx
				if d < 0 {
					d = -d
				}
				rs[i] = &sim.Result{Time: 1 + 0.01*float64(d)}
			}
			return rs, nil
		},
	}
}

func (s sample) observe(l *Learner) { l.observe(s.tenant, s.km, s.sweep) }

func (s sample) advise(l *Learner, dec Decision) Decision { return l.advise(s.tenant, s.km, dec) }

// exploit advises dec for s's tenant and signature until the bandit
// leaves a call alone, so a test sees the exploited answer whatever the
// coin says.
func exploit(l *Learner, s sample, dec Decision) Decision {
	for {
		if got := s.advise(l, dec); !got.Explored {
			return got
		}
	}
}

// TestManagerRetrainsAndSwapsToOracleArgmax: once one launch of a
// signature is observed, the memo answers the tenant's next launch of it
// with the oracle argmax. A tenant that never launched the signature and
// a signature the memo lacks keep the model's decision.
func TestManagerRetrainsAndSwapsToOracleArgmax(t *testing.T) {
	l := NewLearner(sim.Kaveri())
	const bestIdx = 17
	dec := Decision{Config: l.cfgs[0], Predicted: 0.5, Evaluated: len(l.cfgs)}
	s := testSample(l, "s-1", "gesummv", bestIdx)
	if got := s.advise(l, dec); got != dec {
		t.Fatalf("cold signature advised %+v, want the model's %+v", got, dec)
	}
	s.observe(l)
	testSample(l, "s-2", "spmv", 3).observe(l)

	got := exploit(l, s, dec)
	if !got.Learned || got.Config != l.cfgs[bestIdx] || got.Predicted != 1 || got.Evaluated != len(l.cfgs) {
		t.Fatalf("after one launch: %+v, want the oracle argmax %v, learned", got, l.cfgs[bestIdx])
	}
	// s-2 has learner state and the memo holds gesummv's row, but s-2
	// never launched gesummv.
	other := s
	other.tenant = "s-2"
	if got := exploit(l, other, dec); got.Learned || got.Config != dec.Config {
		t.Fatalf("another tenant's launch advised %+v, want the model's %v", got, dec.Config)
	}
	unseen := testSample(l, "s-1", "a-much-longer-kernel", bestIdx)
	if got := unseen.advise(l, dec); got != dec {
		t.Fatalf("unseen signature advised %+v, want the model's %+v", got, dec)
	}
	if st := l.Status(); st.Learned < 1 || st.Tenants[0].Learned < 1 {
		t.Fatalf("learned answers not counted: %+v", st)
	}
}

// incSrc is the kernel the framework-level tests launch.
const incSrc = `__kernel void k(__global float* a, int n) {
	int i = get_global_id(0);
	if (i < n) a[i] = a[i] + 1.0f;
}`

// launcher returns a function that runs incSrc under ctx through fw's
// managed rung at global size n.
func launcher(t *testing.T, fw *Framework) func(ctx context.Context, n int) Decision {
	t.Helper()
	prog, err := clc.Compile(incSrc)
	if err != nil {
		t.Fatal(err)
	}
	k := prog.Kernel("k")
	return func(ctx context.Context, n int) Decision {
		t.Helper()
		args := []interp.Arg{interp.BufArg(interp.NewFloatBuffer(n)), interp.IntArg(int64(n))}
		ex, err := fw.ExecuteCtx(ctx, k, args, interp.ND1(n, 64))
		if err != nil {
			t.Fatal(err)
		}
		return ex.Decision
	}
}

// tenantLauncher is launcher with every launch tagged as tenant.
func tenantLauncher(t *testing.T, fw *Framework, tenant string) func(n int) Decision {
	t.Helper()
	launch, ctx := launcher(t, fw), WithTenant(context.Background(), tenant)
	return func(n int) Decision { return launch(ctx, n) }
}

// TestHotSwapReachesTheNextDecision sets a learner on a framework: the
// tenant's first launch is decided by the model, and the next launch of
// the same signature executes the memoized row's argmax. The model still
// ran: the answer replaces its argmax, not its sweep.
func TestHotSwapReachesTheNextDecision(t *testing.T) {
	fw := New(sim.Kaveri(), fakeBase{0.5})
	l := NewLearner(fw.Machine)
	fw.Learner = l
	launch := tenantLauncher(t, fw, "s-1")

	before := launch(1024)
	if before.Learned || before.Config != l.cfgs[0] || before.Evaluated != len(l.cfgs) {
		t.Fatalf("first launch: %+v, want the model's argmax %v over a full sweep", before, l.cfgs[0])
	}
	if len(l.Status().Tenants) != 1 || l.OracleRows().Entries != 1 {
		t.Fatalf("the first launch was not learned from: %+v", l.Status())
	}
	var row *oracleRow
	l.rows.Each(func(_ string, r *oracleRow) { row = r })
	want := l.cfgs[row.best]
	if want == before.Config {
		t.Fatalf("the oracle best %v is the model's argmax: the test cannot tell them apart", want)
	}
	after := launch(1024)
	for after.Explored {
		after = launch(1024)
	}
	if !after.Learned || after.Config != want || after.Evaluated != len(l.cfgs) || after.ModelDiscarded {
		t.Fatalf("launch after the first: %+v, want the oracle best %v, learned, over a full sweep", after, want)
	}
}

// TestLearnedOnTheNextLaunch runs 200 back-to-back pairs of launches at
// distinct geometries: the learner learns from a launch before the launch
// returns, so the second launch of every pair is answered from the memo.
func TestLearnedOnTheNextLaunch(t *testing.T) {
	fw := New(sim.Kaveri(), fakeBase{0.5})
	fw.Learner = NewLearner(fw.Machine)
	launch := tenantLauncher(t, fw, "s-1")
	const pairs = 200
	learned := 0
	for i := 0; i < pairs; i++ {
		n := 64 * (i + 1)
		if first := launch(n); first.Learned {
			t.Fatalf("pair %d: the first launch at n=%d was learned", i, n)
		}
		if launch(n).Learned {
			learned++
		}
	}
	if learned != pairs {
		t.Fatalf("the second launch was learned in %d of %d pairs", learned, pairs)
	}
}

// TestLearnerNeverReplacesAMissingModel: with no model the framework
// decides ALL, and a learner that has learned one of the tenant's
// signatures still leaves every other signature on ALL.
func TestLearnerNeverReplacesAMissingModel(t *testing.T) {
	machine := sim.Kaveri()
	fw := New(machine, nil)
	fw.Learner = NewLearner(machine)
	launch := tenantLauncher(t, fw, "s-1")

	if dec := launch(1024); dec.Config != machine.AllResources() || dec.Learned {
		t.Fatalf("model-less first launch: %+v, want ALL", dec)
	}
	if dec := launch(1024); !dec.Learned && !dec.Explored {
		t.Fatalf("learned signature: %+v, want the memo's answer", dec)
	}
	if dec := launch(2048); dec.Config != machine.AllResources() || dec.Learned || dec.Explored {
		t.Fatalf("unseen signature: %+v, want ALL %v", dec, machine.AllResources())
	}
}

// TestUntaggedLaunchIsNotLearned: a launch whose context names no tenant
// is neither advised nor learned from, so it leaves no tenant behind that
// no Forget could ever remove.
func TestUntaggedLaunchIsNotLearned(t *testing.T) {
	fw := New(sim.Kaveri(), fakeBase{0.5})
	l := NewLearner(fw.Machine)
	fw.Learner = l
	launch := launcher(t, fw)
	for i := 0; i < 3; i++ {
		if dec := launch(context.Background(), 1024); dec.Learned || dec.Explored {
			t.Fatalf("untagged launch %d: %+v, want the model's decision", i, dec)
		}
	}
	if st := l.Status(); len(st.Tenants) != 0 || st.SamplesIngested != 0 || st.Sweeps != 0 {
		t.Fatalf("untagged launches left learner state: %+v", st)
	}
}

// TestAdviseKeysByModel: two models of one kernel that differ in one
// site's access count have their own oracle rows, and each gets its own
// argmax.
func TestAdviseKeysByModel(t *testing.T) {
	l := NewLearner(sim.Kaveri())
	a, b := testSample(l, "s-1", "k", 5), testSample(l, "s-1", "k", 30)
	b.km.Sites[0].AccPerWG++
	a.observe(l)
	b.observe(l)
	dec := Decision{Config: l.cfgs[0], Evaluated: len(l.cfgs)}
	for _, c := range []struct {
		s    sample
		best int
	}{{a, 5}, {b, 30}} {
		if got := exploit(l, c.s, dec); !got.Learned || got.Config != l.cfgs[c.best] {
			t.Errorf("model %+v advised %+v, want its own argmax %v", c.s.km.Sites, got, l.cfgs[c.best])
		}
	}
}

// TestModelKeyCoversEveryField: changing any one field of a kernel model,
// or of one of its sites, changes its signature.
func TestModelKeyCoversEveryField(t *testing.T) {
	km := testSample(NewLearner(sim.Kaveri()), "s-1", "k", 0).km
	key := modelKey(km)
	perturb := func(v reflect.Value) {
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 1)
		default:
			t.Fatalf("no perturbation for a %v field", v.Kind())
		}
	}
	check := func(v reflect.Value, where string) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if f.Kind() == reflect.Slice {
				continue
			}
			old := reflect.New(f.Type()).Elem()
			old.Set(f)
			perturb(f)
			if modelKey(km) == key {
				t.Errorf("changing %s.%s leaves the signature unchanged", where, v.Type().Field(i).Name)
			}
			f.Set(old)
		}
	}
	check(reflect.ValueOf(km).Elem(), "KernelModel")
	check(reflect.ValueOf(&km.Sites[0]).Elem(), "SiteModel")
	km.Sites = append(km.Sites, km.Sites[0])
	if modelKey(km) == key {
		t.Error("adding a site leaves the signature unchanged")
	}
}

func TestExploreRespectsRegretBudget(t *testing.T) {
	l := NewLearner(sim.Kaveri())
	s := testSample(l, "s-1", "gesummv", 7)
	dec := Decision{Config: l.cfgs[3], Predicted: 0.9, Evaluated: len(l.cfgs)}

	// Before any launch is observed, the signature has no oracle row: the
	// bandit must refuse to explore blind.
	if got := s.advise(l, dec); got.Explored {
		t.Fatal("explored without an oracle row")
	}
	s.observe(l)
	explored := 0
	for i := 0; i < 10000; i++ {
		if s.advise(l, dec).Explored {
			explored++
		}
	}
	if explored == 0 {
		t.Fatal("10000 eligible launches never explored")
	}
	st := l.Status()
	if len(st.Tenants) != 1 {
		t.Fatalf("want 1 tenant, got %+v", st.Tenants)
	}
	if r := st.Tenants[0].Regret; r > regretBudget {
		t.Fatalf("regret %v exceeded budget %v", r, regretBudget)
	}
	// Budget exhausted (or no affordable arm left): exploration stops.
	if s.advise(l, dec).Explored {
		st := l.Status()
		if st.Tenants[0].Regret > regretBudget {
			t.Fatalf("post-exhaustion explore overdrew budget: %+v", st.Tenants[0])
		}
	}
}

// TestForgetDropsClosedTenants closes half the tenants while all of them
// launch, are advised and read status from their own goroutines. A
// tenant's close follows its last launch, so only the tenants never
// closed are left. Run under -race: advise, observe, Forget and Status
// share the memo and the tenant map.
func TestForgetDropsClosedTenants(t *testing.T) {
	l := NewLearner(sim.Kaveri())
	const tenants, launches = 8, 16
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("s-%d", i)
			dec := Decision{Config: l.cfgs[0], Evaluated: len(l.cfgs)}
			for j := 0; j < launches; j++ {
				s := testSample(l, name, fmt.Sprintf("k%d", j%3), j%len(l.cfgs))
				s.advise(l, dec)
				s.observe(l)
				l.Status()
			}
			if i%2 == 0 {
				l.Forget(name)
			}
		}(i)
	}
	wg.Wait()
	var got []string
	for _, ts := range l.Status().Tenants {
		got = append(got, ts.Tenant)
	}
	if want := []string{"s-1", "s-3", "s-5", "s-7"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("tenants after closing the even ones: %v, want %v", got, want)
	}
}

// TestStatusIsConsistent: a snapshot taken while tenants are advised
// never counts more learned answers or explorations in its live tenants
// than in the learner's totals. Run under -race.
func TestStatusIsConsistent(t *testing.T) {
	l := NewLearner(sim.Kaveri())
	const tenants, launches = 4, 2000
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		s := testSample(l, fmt.Sprintf("s-%d", i), "k", i)
		s.observe(l)
		wg.Add(1)
		go func() {
			defer wg.Done()
			dec := Decision{Config: l.cfgs[0], Evaluated: len(l.cfgs)}
			for j := 0; j < launches; j++ {
				s.advise(l, dec)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for snaps := 0; ; snaps++ {
		st := l.Status()
		var learned, explores int64
		for _, ts := range st.Tenants {
			learned += ts.Learned
			explores += ts.Explores
		}
		if st.Learned < learned || st.Explorations < explores {
			t.Fatalf("snapshot %d: learned %d < Σ tenants %d or explorations %d < Σ tenants %d",
				snaps, st.Learned, learned, st.Explorations, explores)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

// pollCounter counts its Err polls. A functional run's watchdog polls its
// context once before every work-group the run's plan executes; the
// sampled profile behind the model is not polled.
type pollCounter struct {
	context.Context
	n atomic.Int64
}

func (c *pollCounter) Err() error {
	c.n.Add(1)
	return c.Context.Err()
}

// TestLearnerFirstLaunchRunsEachGroupOnce: a tenant's first launch of a
// never-profiled kernel on a framework with a Learner builds its model
// before the run (the learner keys on it), and still runs each work-group
// once: the run's plan leaves out the ProfileSampleWGs groups the profile
// kept, and the buffers hold the bytes of a plain run.
func TestLearnerFirstLaunchRunsEachGroupOnce(t *testing.T) {
	const src = `__kernel void axpy(__global float* x, __global float* y, int n) {
    int i = get_global_id(0);
    if (i < n) {
        y[i] = 2.0f * x[i] + y[i];
    }
}`
	const n, wg = 4096, 64
	prog, err := clc.Compile(src) // private: its model memo is empty
	if err != nil {
		t.Fatal(err)
	}
	k := prog.Kernel("axpy")
	x, y := workloads.NewFilledFloat(n, 3), workloads.NewFilledFloat(n, 5)
	want := []interp.Arg{interp.BufArg(x.Clone()), interp.BufArg(y.Clone()), interp.IntArg(n)}
	ref, err := interp.NewExec(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Bind(want...); err != nil {
		t.Fatal(err)
	}
	if err := ref.Launch(interp.ND1(n, wg)); err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	m := sim.Kaveri()
	f := New(m, nil)
	f.Learner = NewLearner(m)
	f.WatchdogTimeout = -1 // the run polls the caller's context itself
	polls := &pollCounter{Context: context.Background()}
	exec, err := f.ExecuteCtx(WithTenant(polls, "t-1"), k,
		[]interp.Arg{interp.BufArg(x), interp.BufArg(y), interp.IntArg(n)}, interp.ND1(n, wg))
	if err != nil {
		t.Fatal(err)
	}
	if !exec.Profiled {
		t.Fatal("the first launch did not profile: the kept-groups path is not under test")
	}
	if got, want := polls.n.Load(), int64(n/wg-sched.ProfileSampleWGs); got != want {
		t.Errorf("the run executed %d work-groups after the profile's %d, want %d (of %d)",
			got, sched.ProfileSampleWGs, want, n/wg)
	}
	if !x.Equal(want[0].Buf) || !y.Equal(want[1].Buf) {
		t.Error("the launch's buffers differ from a plain run's")
	}
}
