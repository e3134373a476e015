package faults

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// This file implements the deterministic fault-injection registry. It is
// off by default and costs one atomic load per instrumented site when
// disarmed, so production code keeps its Hit() calls unconditionally.
//
// Injection points are string-named sites compiled into the pipeline:
//
//	clc.parse          — front-end Parse/Compile (never reached by an enqueue)
//	analysis.analyze   — static feature extraction
//	transform.gpu      — the malleable-form verdict (transform.Check), which
//	                     every managed launch and every generation asks
//	interp.compile     — interpreter kernel layout (NewExec)
//	interp.lower       — bytecode lowering (Exec.Launch)
//	ml.load            — model deserialization
//	ml.predict         — per-launch model inference
//	core.exec          — managed co-execution (Dopia-side only)
//
// Tests arm a point with Inject and a Plan; the site's Hit call then
// returns (or panics with) the planned fault. Plans are deterministic:
// firing is a pure function of the per-point hit counter and, for
// probabilistic plans, of a seeded PRNG.

// Plan describes when and how an armed injection point fires.
type Plan struct {
	// Err is returned by Hit when the plan fires. If nil (and Panic is
	// nil) a generic ErrInjected is synthesized.
	Err error
	// Panic, when non-nil, makes the site panic with this value instead
	// of returning an error — exercising the Recover boundaries.
	Panic any
	// After skips the first After hits before the plan may fire.
	After int
	// Count limits how many times the plan fires (0 = unlimited).
	Count int
	// Rate enables probabilistic firing with the given probability in
	// (0,1]; 0 means fire on every eligible hit. Driven by Seed for
	// reproducibility.
	Rate float64
	// Seed seeds the per-point PRNG used when Rate > 0.
	Seed int64
}

type armedPoint struct {
	plan  Plan
	hits  int
	fired int
	rng   *rand.Rand
}

var (
	// injArmed is the fast-path gate: number of armed points.
	injArmed atomic.Int32

	injMu     sync.Mutex
	injPoints map[string]*armedPoint
)

// Inject arms an injection point with a plan. Re-arming a point replaces
// its previous plan and resets its counters. Injection is process-global
// and intended for tests; call Reset (usually via t.Cleanup) when done.
func Inject(point string, plan Plan) {
	injMu.Lock()
	defer injMu.Unlock()
	if injPoints == nil {
		injPoints = map[string]*armedPoint{}
	}
	ap := &armedPoint{plan: plan}
	if plan.Rate > 0 {
		ap.rng = rand.New(rand.NewSource(plan.Seed))
	}
	if _, existed := injPoints[point]; !existed {
		injArmed.Add(1)
	}
	injPoints[point] = ap
}

// InjectError arms point to return err on every hit.
func InjectError(point string, err error) { Inject(point, Plan{Err: err}) }

// InjectPanic arms point to panic with value on every hit.
func InjectPanic(point string, value any) { Inject(point, Plan{Panic: value}) }

// Disarm removes the plan for one point.
func Disarm(point string) {
	injMu.Lock()
	defer injMu.Unlock()
	if _, ok := injPoints[point]; ok {
		delete(injPoints, point)
		injArmed.Add(-1)
	}
}

// Reset disarms every injection point.
func Reset() {
	injMu.Lock()
	defer injMu.Unlock()
	injArmed.Add(-int32(len(injPoints)))
	injPoints = nil
}

// Active reports whether any injection point is armed. The caching
// layers (program cache, per-kernel artifact memo, launch memo) consult
// it and bypass memoization while faults are armed, so an armed plan
// observes exactly the call sequence of the uncached pipeline.
func Active() bool { return injArmed.Load() != 0 }

// HitCount returns how many times an armed point has been reached (fired
// or not). It returns 0 for disarmed points.
func HitCount(point string) int {
	injMu.Lock()
	defer injMu.Unlock()
	if ap, ok := injPoints[point]; ok {
		return ap.hits
	}
	return 0
}

// Hit is called by instrumented sites. With no plan armed for the point
// it returns nil at the cost of one atomic load. With a plan armed it
// either returns the planned error, panics with the planned value, or
// returns nil when the plan does not fire on this hit.
func Hit(point string) error {
	if injArmed.Load() == 0 {
		return nil
	}
	injMu.Lock()
	ap, ok := injPoints[point]
	if !ok {
		injMu.Unlock()
		return nil
	}
	ap.hits++
	fire := ap.hits > ap.plan.After &&
		(ap.plan.Count == 0 || ap.fired < ap.plan.Count)
	if fire && ap.rng != nil {
		fire = ap.rng.Float64() < ap.plan.Rate
	}
	if !fire {
		injMu.Unlock()
		return nil
	}
	ap.fired++
	plan := ap.plan
	injMu.Unlock()

	if plan.Panic != nil {
		panic(plan.Panic)
	}
	if plan.Err != nil {
		return fmt.Errorf("%w at %s: %w", ErrInjected, point, plan.Err)
	}
	return fmt.Errorf("%w at %s", ErrInjected, point)
}
