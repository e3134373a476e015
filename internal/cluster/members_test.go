package cluster

// Tests of the router's member table, driven tick by tick: the janitor
// never runs on its own here, so every probe and every reaction happens
// exactly when the test calls tick.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dopia/internal/server"
	"dopia/internal/sim"
)

type tickedRing struct {
	t     *testing.T
	r     *Router
	nodes []*Node
	c     *server.Client // through the router
}

// newTickedRing boots n real members ("n0"…) behind a router that is
// never Started; the members indexed by unready are registered unready.
func newTickedRing(t *testing.T, n int, unready ...int) *tickedRing {
	t.Helper()
	tr := &tickedRing{t: t, r: NewRouter(RouterConfig{})}
	for i := 0; i < n; i++ {
		node, err := StartNode(NodeConfig{ID: fmt.Sprintf("n%d", i), Server: server.Config{Machine: sim.Kaveri()}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = node.Shutdown(ctx)
		})
		tr.nodes = append(tr.nodes, node)
	}
	for _, i := range unready {
		tr.nodes[i].BeginDrain()
	}
	for _, node := range tr.nodes {
		if err := tr.r.AddNode(node.ID, node.URL); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(tr.r.Handler())
	t.Cleanup(ts.Close)
	tr.c = server.NewClient(ts.URL, nil)
	return tr
}

func (tr *tickedRing) tick(n int) {
	for i := 0; i < n; i++ {
		tr.r.janitor()
	}
}

func (tr *tickedRing) node(id string) *Node {
	for _, n := range tr.nodes {
		if n.ID == id {
			return n
		}
	}
	tr.t.Fatalf("no node %q", id)
	return nil
}

func (tr *tickedRing) status(id string) NodeStatus { return tr.r.Members()[id].Status }

// placed reports where the router holds session sid.
func (tr *tickedRing) placed(sid string) (primary, replica string) {
	tr.t.Helper()
	p, ok := tr.r.placement(sid)
	if !ok {
		tr.t.Fatalf("no placement for %s", sid)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.primary, p.replica
}

func (tr *tickedRing) newSession() string {
	tr.t.Helper()
	sid, err := tr.c.NewSession()
	if err != nil {
		tr.t.Fatal(err)
	}
	return sid
}

// Missed probes age a member alive → suspect → dead. A suspect takes no
// new placements but keeps the sessions it has; a dead member's sessions
// are failed over, once.
func TestMemberAgesSuspectThenDead(t *testing.T) {
	tr := newTickedRing(t, 3)
	sid := tr.newSession()
	victim, _ := tr.placed(sid)
	tr.node(victim).SetPartitioned(true)

	tr.tick(suspectAfterMisses - 1)
	if st := tr.status(victim); st != StatusAlive {
		t.Fatalf("after %d missed probes: %s, want alive", suspectAfterMisses-1, st)
	}
	tr.tick(1)
	if st := tr.status(victim); st != StatusSuspect {
		t.Fatalf("after %d missed probes: %s, want suspect", suspectAfterMisses, st)
	}
	for i := 0; i < 12; i++ {
		if pr, rep := tr.placed(tr.newSession()); pr == victim || rep == victim {
			t.Fatalf("new session placed on suspect %s (primary %s, replica %s)", victim, pr, rep)
		}
	}
	if pr, _ := tr.placed(sid); pr != victim {
		t.Fatalf("suspect %s was failed over: %s now on %s", victim, sid, pr)
	}
	if d := tr.r.met.nodeDeaths.Load(); d != 0 {
		t.Fatalf("node deaths = %d while merely suspect", d)
	}

	tr.tick(deadAfterMisses - suspectAfterMisses)
	if st := tr.status(victim); st != StatusDead {
		t.Fatalf("after %d missed probes: %s, want dead", deadAfterMisses, st)
	}
	if pr, rep := tr.placed(sid); pr == victim || rep == victim || pr == "" {
		t.Fatalf("dead %s still holds %s (primary %s, replica %s)", victim, sid, pr, rep)
	}
	tr.tick(3)
	if d := tr.r.met.nodeDeaths.Load(); d != 1 {
		t.Fatalf("node deaths = %d, want exactly 1 for one death", d)
	}
	if lost := tr.r.met.sessionsLost.Load(); lost != 0 {
		t.Fatalf("sessions lost = %d, want 0", lost)
	}
}

// A member that stops answering the probe while its launch path still
// answers is aged to dead and its sessions moved; after the heal its
// first answered probe makes it routable again, and the janitor is
// re-armed: a second partition is a second death.
func TestMemberPartitionHealRejoin(t *testing.T) {
	tr := newTickedRing(t, 3)
	sid := tr.newSession()
	victim, _ := tr.placed(sid)
	node := tr.node(victim)

	node.SetPartitioned(true)
	tr.tick(deadAfterMisses)
	if pr, _ := tr.placed(sid); pr == victim || pr == "" {
		t.Fatalf("partitioned %s still primary of %s (now %q)", victim, sid, pr)
	}
	// The data path was up throughout: nothing condemned it.
	if v := tr.r.Members()[victim]; v.Status != StatusDead || v.Condemned {
		t.Fatalf("partitioned member row = %+v, want dead by missed probes, not condemned", v)
	}
	if _, err := server.NewClient(node.URL, nil).Readyz(); err != nil {
		t.Fatalf("partitioned member's own endpoints stopped answering: %v", err)
	}

	node.SetPartitioned(false)
	tr.tick(1)
	if !tr.r.healthy(victim) {
		t.Fatalf("healed member not routable after one answered probe: %+v", tr.r.Members()[victim])
	}
	node.SetPartitioned(true)
	tr.tick(deadAfterMisses + 2)
	if d := tr.r.met.nodeDeaths.Load(); d != 2 {
		t.Fatalf("node deaths = %d after two partitions, want 2", d)
	}
	if lost := tr.r.met.sessionsLost.Load(); lost != 0 {
		t.Fatalf("sessions lost = %d, want 0", lost)
	}
}

// A condemned member is dead at once, is re-admitted only by
// readmitProbes answered probes in a row, and a new hard failure
// condemns it again from zero.
func TestCondemnedMemberReadmission(t *testing.T) {
	tr := newTickedRing(t, 2)
	tr.r.condemn("n1")
	if st := tr.status("n1"); st != StatusDead || tr.r.healthy("n1") {
		t.Fatalf("condemned member is %s (healthy %v), want dead", st, tr.r.healthy("n1"))
	}
	tr.tick(readmitProbes - 1)
	if st := tr.status("n1"); st != StatusDead {
		t.Fatalf("re-admitted after %d good probes, want %d", readmitProbes-1, readmitProbes)
	}
	tr.tick(1)
	if !tr.r.healthy("n1") {
		t.Fatalf("not re-admitted after %d good probes: %+v", readmitProbes, tr.r.Members()["n1"])
	}

	// A second hard failure part-way through a run of good probes starts
	// the count over.
	tr.r.condemn("n1")
	tr.tick(readmitProbes - 2)
	tr.r.condemn("n1")
	if st := tr.status("n1"); st != StatusDead {
		t.Fatalf("new hard failure did not re-condemn: %s", st)
	}
	tr.tick(readmitProbes - 1)
	if st := tr.status("n1"); st != StatusDead {
		t.Fatal("good probes before the second failure counted toward re-admission")
	}
	tr.tick(1)
	if !tr.r.healthy("n1") {
		t.Fatal("not re-admitted after a full run of good probes")
	}
	// A missed probe breaks a run too.
	tr.r.condemn("n1")
	tr.tick(readmitProbes - 1)
	tr.nodes[1].SetPartitioned(true)
	tr.tick(1)
	tr.nodes[1].SetPartitioned(false)
	tr.tick(readmitProbes - 1)
	if st := tr.status("n1"); st != StatusDead {
		t.Fatal("a run of good probes broken by a miss re-admitted the member")
	}
}

// A probe that answers alive-but-unready triggers exactly one drain, and
// the member's primaries move while it still serves.
func TestUnreadyProbeDrainsOnce(t *testing.T) {
	tr := newTickedRing(t, 3)
	var sids []string
	for i := 0; i < 6; i++ {
		sids = append(sids, tr.newSession())
	}
	victim, _ := tr.placed(sids[0])
	tr.node(victim).BeginDrain()
	tr.tick(4)
	if d := tr.r.met.drains.Load(); d != 1 {
		t.Fatalf("drains = %d over four unready probes, want exactly 1", d)
	}
	for _, sid := range sids {
		if pr, rep := tr.placed(sid); pr == victim || rep == victim || pr == "" || rep == "" {
			t.Errorf("session %s on (%s, %s) after draining %s", sid, pr, rep, victim)
		}
	}
	if st := tr.status(victim); st != StatusAlive {
		t.Errorf("drained member is %s, want alive (it still answers)", st)
	}
	if d := tr.r.met.nodeDeaths.Load(); d != 0 {
		t.Errorf("node deaths = %d for a drain", d)
	}
}

// accSession places a session through the router and gives it acc's
// buffers; launch applies acc to it once under idem key sid-iter and
// returns y as the router answered it.
func (tr *tickedRing) accSession(prog string) (sid string, launch func(iter int) string) {
	tr.t.Helper()
	sid = tr.newSession()
	seed := uint32(5)
	if err := tr.c.CreateBuffer(sid, &server.BufferRequest{Name: "x", Kind: "float32", Len: bufN, FillSeed: &seed}); err != nil {
		tr.t.Fatal(err)
	}
	if err := tr.c.CreateBuffer(sid, &server.BufferRequest{Name: "y", Kind: "float32", Len: bufN}); err != nil {
		tr.t.Fatal(err)
	}
	nn := int64(bufN)
	return sid, func(iter int) string {
		tr.t.Helper()
		resp, err := tr.c.Launch(&server.LaunchRequest{
			SessionID: sid, ProgramID: prog, Kernel: "acc",
			Args:   []server.LaunchArg{{Buf: "x"}, {Buf: "y"}, {Int: &nn}},
			Global: []int{bufN}, Local: []int{32},
			Read: []string{"y"}, IdemKey: fmt.Sprintf("%s-%d", sid, iter),
		})
		if err != nil {
			tr.t.Fatalf("launch %d of %s: %v", iter, sid, err)
		}
		return resp.Buffers["y"].F32B64
	}
}

// holds reads y of session sid straight from member id.
func (tr *tickedRing) holds(id, sid string) string {
	tr.t.Helper()
	b, err := server.NewClient(tr.node(id).URL, nil).ReadBuffer(sid, "y")
	if err != nil {
		tr.t.Fatalf("%s does not hold %s: %v", id, sid, err)
	}
	return b.F32B64
}

// programsOn reads member id's program-registry gauge.
func (tr *tickedRing) programsOn(id string) string {
	tr.t.Helper()
	text, err := server.NewClient(tr.node(id).URL, nil).Metrics()
	if err != nil {
		tr.t.Fatal(err)
	}
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, "dopia_programs_registered "); ok {
			return v
		}
	}
	tr.t.Fatalf("%s exposes no dopia_programs_registered", id)
	return ""
}

// A program reaches a member only when a launch needs it there: a
// registration compiles it on one member, a probe tick pushes nothing,
// and after an eviction the next launch that lands on the member pushes
// it again, whether the member runs the launch as primary or mirrors it.
func TestLaunchRepushesMissingProgram(t *testing.T) {
	tr := newTickedRing(t, 2)
	p, err := tr.c.Compile(clusterAccSrc)
	if err != nil {
		t.Fatal(err)
	}
	pushes, repushes := &tr.r.met.programPushes, &tr.r.met.programRepushes
	if n := pushes.Load(); n != 1 {
		t.Fatalf("program pushes = %d after one registration, want 1", n)
	}
	tr.tick(3)
	if got := tr.programsOn("n0") + "/" + tr.programsOn("n1"); got != "1/0" || pushes.Load() != 1 || repushes.Load() != 0 {
		t.Fatalf("after three ticks: n0/n1 hold %s programs, pushes %d, repushes %d; want 1/0, 1, 0",
			got, pushes.Load(), repushes.Load())
	}

	sid, launch := tr.accSession(p.ProgramID)
	primary, replica := tr.placed(sid)
	launch(0)
	if n := repushes.Load(); n != 1 {
		t.Fatalf("repushes = %d after the first launch, want 1 (n1 had never held the program)", n)
	}
	tr.node(primary).Srv.EvictPrograms()
	launch(1)
	if n := repushes.Load(); n != 2 {
		t.Fatalf("repushes = %d after evicting the primary %s, want 2", n, primary)
	}
	tr.node(replica).Srv.EvictPrograms()
	y := launch(2)
	if n := repushes.Load(); n != 3 {
		t.Fatalf("repushes = %d after evicting the replica %s, want 3", n, replica)
	}
	if pr, rep := tr.placed(sid); pr != primary || rep != replica {
		t.Fatalf("placement moved to (%s, %s): a missing program is not a member failure", pr, rep)
	}
	if tr.holds(primary, sid) != y || tr.holds(replica, sid) != y {
		t.Fatal("primary and replica do not both hold the launched y")
	}
	if d := tr.r.met.replicaDivergence.Load(); d != 0 || pushes.Load() != 1 {
		t.Fatalf("divergence = %d, pushes = %d; want 0 and 1", d, pushes.Load())
	}
}

// A drain of a placement with no replica first copies the primary, which
// still serves, then hands the session to that copy: nothing is lost.
func TestDrainWithoutReplicaCopiesPrimary(t *testing.T) {
	tr := newTickedRing(t, 3)
	p, err := tr.c.Compile(clusterAccSrc)
	if err != nil {
		t.Fatal(err)
	}
	sid, launch := tr.accSession(p.ProgramID)
	y := launch(0)
	victim, _ := tr.placed(sid)
	pl, _ := tr.r.placement(sid)
	pl.mu.Lock()
	pl.replica = ""
	pl.mu.Unlock()

	tr.node(victim).BeginDrain()
	tr.tick(1)
	pr, rep := tr.placed(sid)
	if pr == victim || rep == victim || pr == "" || rep == "" {
		t.Fatalf("after draining %s: primary %q replica %q", victim, pr, rep)
	}
	if tr.holds(pr, sid) != y || tr.holds(rep, sid) != y {
		t.Fatal("the session's two new copies do not hold its y")
	}
	met := &tr.r.met
	if met.sessionsLost.Load() != 0 || met.migrations.Load() != 1 || met.failovers.Load() != 0 || met.replicaRebuilds.Load() != 2 {
		t.Fatalf("lost %d, migrations %d, failovers %d, rebuilds %d; want 0, 1, 0, 2",
			met.sessionsLost.Load(), met.migrations.Load(), met.failovers.Load(), met.replicaRebuilds.Load())
	}
	launch(1)
}

// A drain that finds no member to take a copy leaves the session on the
// drained member, which still serves it, rather than losing it.
func TestDrainWithNoTargetKeepsSession(t *testing.T) {
	tr := newTickedRing(t, 1)
	p, err := tr.c.Compile(clusterAccSrc)
	if err != nil {
		t.Fatal(err)
	}
	sid, launch := tr.accSession(p.ProgramID)
	y := launch(0)
	tr.node("n0").BeginDrain()
	tr.tick(2)
	if pr, rep := tr.placed(sid); pr != "n0" || rep != "" {
		t.Fatalf("after draining the only member: primary %q replica %q, want n0 alone", pr, rep)
	}
	if tr.r.met.drains.Load() != 1 || tr.r.met.sessionsLost.Load() != 0 || tr.r.met.migrations.Load() != 0 {
		t.Fatalf("drains %d, lost %d, migrations %d; want 1, 0, 0",
			tr.r.met.drains.Load(), tr.r.met.sessionsLost.Load(), tr.r.met.migrations.Load())
	}
	if tr.holds("n0", sid) != y {
		t.Fatal("the drained member no longer holds the session's y")
	}
}

// AddNode's own probe makes a ready member routable with no tick, and
// keeps an unready one out.
func TestAddNodeProbePrimesTable(t *testing.T) {
	tr := newTickedRing(t, 2, 1)
	if !tr.r.healthy("n0") {
		t.Fatalf("ready member not routable after AddNode: %+v", tr.r.Members()["n0"])
	}
	if tr.r.healthy("n1") {
		t.Fatal("unready member routable after AddNode")
	}
	if pr, rep := tr.placed(tr.newSession()); pr != "n0" || rep != "" {
		t.Fatalf("session placed on (%q, %q), want (n0, none) before any tick", pr, rep)
	}
	// A member that does not answer at all is registered, not routable,
	// and has nothing to drain.
	if err := tr.r.AddNode("ghost", "http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	tr.tick(1)
	if tr.r.healthy("ghost") || tr.r.met.drains.Load() != 1 {
		t.Fatalf("ghost healthy=%v drains=%d, want unroutable and only n1's drain",
			tr.r.healthy("ghost"), tr.r.met.drains.Load())
	}
}
