package cluster

// Tests of the router's member table, driven tick by tick: the janitor
// never runs on its own here, so every probe and every reaction happens
// exactly when the test calls tick.

import (
	"context"
	"fmt"
	"net/http/httptest"
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

// A program the router holds that is missing from a member's probe is
// re-pushed on that tick.
func TestProbeRepushesMissingProgram(t *testing.T) {
	tr := newTickedRing(t, 2)
	p, err := tr.c.Compile(clusterAccSrc)
	if err != nil {
		t.Fatal(err)
	}
	tr.tick(1)
	if rp := tr.r.met.programRepushes.Load(); rp != 0 {
		t.Fatalf("repushes = %d with every member holding the program", rp)
	}
	if n := tr.nodes[1].Srv.EvictPrograms(); n != 1 {
		t.Fatalf("evicted %d programs, want 1", n)
	}
	tr.tick(1)
	if ids := tr.nodes[1].Srv.ProgramIDs(); len(ids) != 1 || ids[0] != p.ProgramID {
		t.Fatalf("n1 programs after the tick = %v, want [%s]", ids, p.ProgramID)
	}
	if rp := tr.r.met.programRepushes.Load(); rp != 1 {
		t.Fatalf("repushes = %d, want 1", rp)
	}
	if got := tr.r.Members()["n0"].Programs; len(got) != 1 || got[0] != p.ProgramID {
		t.Fatalf("table row for n0 lists programs %v", got)
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
