package interp

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the parallel ND-range execution engine. Every
// run — a whole launch, a sampled profile, or the co-execution plan the
// scheduler simulated — is an ordered list of work-group segments
// (RunSegments). The list is cut into p shards that are balanced by group
// count and contiguous in list order; shard 0 runs on the calling
// goroutine directly against the Exec's statistics, shards 1..p-1 run on
// a process-wide worker pool (or inline, when no worker is idle) against
// private per-shard statistics. A work-item never spans two work-groups,
// so merging the per-shard statistics in shard order (RunStats.mergeFrom)
// reproduces the counters and access patterns of a sequential walk of the
// same list bit-for-bit. Output buffers need no merge, because only
// launches whose work-groups are provably independent
// (analysis.Independence: no global atomics, every store index distinct
// across work-groups, every load of a stored buffer at the store's own
// index) are sharded at all; every other launch walks its segments in
// list order on the calling goroutine and records why
// (RunStats.ShardPinReason).

// Sequential is the Parallelism value that forces the single-goroutine
// reference execution path.
const Sequential = 1

func (ex *Exec) parallelism() int {
	if ex.Parallelism > 0 {
		return ex.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Segment is one contiguous span of work-groups of the Exec's launched
// ND range: Count groups starting at linear group id Start.
type Segment struct {
	Start, Count int
}

// abortFlag is the cooperative cancellation state shared by the shards
// of one run: it holds the lowest shard index that failed. Shards after
// it stop within one work-group quantum; shards before it keep going,
// because a sequential walk would have finished them before reaching the
// failure — so the lowest failing shard's error is exactly the error the
// sequential walk reports.
type abortFlag struct {
	first atomic.Int32
}

func (a *abortFlag) reset() { a.first.Store(math.MaxInt32) }

func (a *abortFlag) fail(shard int) {
	for {
		cur := a.first.Load()
		if int32(shard) >= cur || a.first.CompareAndSwap(cur, int32(shard)) {
			return
		}
	}
}

func (a *abortFlag) stops(shard int) bool { return a.first.Load() < int32(shard) }

// shardTask is one shard of a run: the parts of the run's segments that
// fall into it, run on the shard's execution state. Tasks are owned by the
// Exec and reused across runs; done is buffered so pool workers never
// block.
type shardTask struct {
	shard  int
	rs     *runState
	pieces []Segment
	err    error
	pooled bool
	done   chan struct{}

	// claim arbitrates who runs a pooled shard: it holds run<<1 while the
	// shard waits for its pool worker and run<<1|1 once either the worker
	// or — if the worker has not woken up by the time the caller has
	// nothing else to do — the caller has taken it. The run number makes
	// a stale hand-off of a reused task lose the race by construction.
	claim atomic.Uint64
}

// take claims the shard for run id; it succeeds exactly once per run.
func (t *shardTask) take(id uint64) bool { return t.claim.CompareAndSwap(id<<1, id<<1|1) }

// handoff is what travels to a pool worker: the task and the run it was
// handed over for.
type handoff struct {
	t  *shardTask
	id uint64
}

// run executes the shard's pieces in list order.
func (t *shardTask) run() {
	if t.shard > 0 {
		t.rs.ready()
	}
	for _, pc := range t.pieces {
		if t.err = t.rs.runSpanAborting(pc.Start, pc.Count, t.shard); t.err != nil {
			return
		}
	}
}

// The process-wide shard worker pool. Shard tasks are leaves — they never
// submit further tasks — and a caller hands a shard over only when a
// worker is idle at that moment, running it inline otherwise. So a launch
// never waits behind another launch's shards, and concurrent Execs (the
// serving daemon's workers, a parallel training sweep) degrade to what
// they were without the pool instead of queueing on it.
//
// A handed-over shard is not gone: waking a parked worker can take longer
// than a small launch runs, so a caller that finishes its own shards
// first takes back whatever its worker has not started (shardTask.take)
// and only waits for shards that are actually running. A launch is
// therefore never slower than its sequential walk plus the hand-off.
//
// Idle workers are not idle cores, though: with as many launches in
// flight as the machine has cores (two daemon connections on two cores),
// waking a worker only adds a goroutine for the scheduler to juggle. So a
// run hands over no more shards than there are cores beyond the ones
// running launches already occupy (activeRuns), and none at all on a
// saturated host.
//
// poolIdle counts the workers free to take a task. A worker counts itself
// idle before it signals its task done, so a caller that launches again
// the moment it is woken (a tight relaunch loop) still finds it. A worker
// that is still waking up for a shard its caller has since taken back
// stays counted busy until it gets there, which is why the pool has
// GOMAXPROCS workers rather than one fewer: back-to-back small launches
// (the sampled profile, then the plan) would otherwise find the only
// worker of a 2-core host perpetually on its way. One launch still puts at
// most Parallelism goroutines to work.
var (
	poolOnce    sync.Once
	poolCh      chan handoff
	poolWorkers int
	poolIdle    atomic.Int32
	activeRuns  atomic.Int32 // RunSegments calls in flight, each busy on a core
)

func startPool() {
	poolOnce.Do(func() {
		workers := runtime.GOMAXPROCS(0)
		if workers == 1 {
			workers = 0 // no second core to run a shard on: always inline
		}
		// One slot per worker: a task is only sent after taking an idle
		// token, so sends never block and nothing queues behind a busy
		// worker.
		poolCh = make(chan handoff, workers)
		poolWorkers = workers
		poolIdle.Store(int32(workers))
		for i := 0; i < workers; i++ {
			go poolWorker()
		}
	})
}

func poolWorker() {
	for h := range poolCh {
		if !h.t.take(h.id) {
			// The caller got there first (or this is a leftover of a
			// finished run): the task is no longer ours to touch.
			poolIdle.Add(1)
			continue
		}
		h.t.run()
		poolIdle.Add(1)
		h.t.done <- struct{}{}
	}
}

// tryPool hands t to an idle pool worker for run id, or reports that none
// is idle.
func tryPool(t *shardTask, id uint64) bool {
	if poolIdle.Add(-1) < 0 {
		poolIdle.Add(1)
		return false
	}
	t.claim.Store(id << 1)
	poolCh <- handoff{t, id}
	return true
}

// runSeq numbers sharded runs, so a stale hand-off of a reused task can
// tell it is stale (shardTask.take).
var runSeq atomic.Uint64

// runSpanAborting runs count work-groups starting at start, polling the
// run's abort flag between groups. On error it records the shard in the
// flag so the later shards stop promptly. An aborted shard returns nil;
// the shard that failed reports the error.
func (rs *runState) runSpanAborting(start, count, shard int) error {
	for g := start; g < start+count; g++ {
		if rs.abort.stops(shard) {
			return nil
		}
		if err := rs.runGroup(g); err != nil {
			rs.abort.fail(shard)
			return err
		}
	}
	return nil
}

// RunSegments executes the segments, in list order when observed through
// statistics, buffers and traps: the result is bit-identical to walking
// the list group by group on one goroutine. When the receiver's launch is
// work-group independent (see ShardPinned) the list is split across
// Parallelism shard workers; otherwise it is walked exactly that way.
// On failure the error of the earliest failing group in list order is
// returned. Like Run and RunSampled it keeps the per-access pattern
// profile.
func (ex *Exec) RunSegments(segs []Segment) error { return ex.runSegments(segs, true) }

// RunUnprofiled is RunSegments for a caller that wants the segments'
// output and not their access profile: buffers, aggregate counters and
// errors are those of RunSegments, but no work-group runs the
// per-access pattern classifier, so the site profiles stay as they were.
// A managed launch's functional plan runs this way — its profile was
// taken beforehand, by the sampled run behind the model.
func (ex *Exec) RunUnprofiled(segs []Segment) error { return ex.runSegments(segs, false) }

func (ex *Exec) runSegments(segs []Segment, profiled bool) error {
	if !ex.launched {
		return fmt.Errorf("interp: executor not launched")
	}
	total := 0
	for _, s := range segs {
		if s.Count > 0 {
			total += s.Count
		}
	}
	active := int(activeRuns.Add(1))
	defer activeRuns.Add(-1)
	p := ex.parallelism()
	if p > total {
		p = total
	}
	if p <= 1 || ex.shardPinReason() != "" {
		rs := ex.seqState(profiled)
		for _, s := range segs {
			for g := s.Start; g < s.Start+s.Count; g++ {
				if err := rs.runGroup(g); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return ex.runSharded(segs, total, p, active, profiled)
}

// shardState returns the execution state shard uses during a run: the
// live sequential state for shard 0, a private worker state (fresh
// statistics) otherwise. A worker state is only claimed
// here — handed the run's classifier gate; sizing its scratch is left to
// whoever runs the shard (runState.ready), off the caller's critical path.
func (ex *Exec) shardState(shard int, profiled bool) *runState {
	if shard == 0 {
		return ex.seqState(profiled)
	}
	for len(ex.workers) < shard {
		ex.workers = append(ex.workers, &runState{ex: ex, abort: &ex.abort, ownStats: &RunStats{}})
	}
	rs := ex.workers[shard-1]
	rs.claim(profiled)
	return rs
}

// ready prepares a worker state for the run it was claimed for: fresh
// statistics and scratch sized for the launch. It only reads the Exec, so
// it is safe on a pool worker while the caller runs shard 0.
func (rs *runState) ready() {
	rs.ownStats.resetFor(rs.ex.ck)
	rs.prepare(rs.ownStats)
}

// runSharded cuts the total groups of segs into p shards that are
// contiguous in list order. Shard i gets total/p groups plus one of the
// total%p remainder groups (lowest shards first), so shard sizes differ by
// at most one. active is the number of runs in flight, this one included.
func (ex *Exec) runSharded(segs []Segment, total, p, active int, profiled bool) error {
	startPool()
	ex.abort.reset()
	id := runSeq.Add(1)
	// The task and piece scratch is reused across runs, so a steady-state
	// run allocates nothing here. Tasks are held by pointer: a pool worker
	// may still be reading a task's claim for a stale hand-off, so growing
	// the list must not copy them.
	for len(ex.tasks) < p {
		ex.tasks = append(ex.tasks, new(shardTask))
	}
	tasks := ex.tasks[:p]

	base, rem := total/p, total%p
	si, off := 0, 0 // next unassigned group: segs[si], off groups in
	for i := range tasks {
		t := tasks[i]
		t.shard, t.pieces, t.err, t.pooled = i, t.pieces[:0], nil, false
		t.rs = ex.shardState(i, profiled)
		need := base
		if i < rem {
			need++
		}
		for need > 0 {
			s := &segs[si]
			n := s.Count - off
			if n > need {
				n = need
			}
			if n > 0 {
				t.pieces = append(t.pieces, Segment{Start: s.Start + off, Count: n})
				off += n
				need -= n
			}
			if off >= s.Count {
				si, off = si+1, 0
			}
		}
	}

	// Hand shards to idle pool workers only, and only as many as there
	// are cores no launch is running on: otherwise the cores are already
	// taken, and queueing behind (or time-slicing with) another launch's
	// shards would stall this one.
	spare := poolWorkers - active
	for i := 1; i < p && i <= spare; i++ {
		t := tasks[i]
		if t.done == nil {
			t.done = make(chan struct{}, 1)
		}
		t.pooled = tryPool(t, id)
	}
	// Shard 0 runs on the caller, directly into the Exec's statistics, so
	// the chain state (prevAddr/prevWI, lane firsts) continues across
	// repeated runs exactly as on the sequential path.
	for i := range tasks {
		if t := tasks[i]; !t.pooled {
			t.run()
		}
	}
	// Join every shard before looking at errors: task memory is reused
	// on the next run, so no worker may still be running it. A pooled
	// shard its worker has not started yet is run here instead.
	for i := range tasks {
		if t := tasks[i]; t.pooled {
			if t.take(id) {
				t.run()
			} else {
				<-t.done
			}
		}
	}
	for i := range tasks {
		if err := tasks[i].err; err != nil {
			return err
		}
	}

	// Deterministic merge in shard order.
	for i := 1; i < p; i++ {
		ex.stats.mergeFrom(tasks[i].rs.ownStats)
	}
	return nil
}
