package sim

import "math"

// fluidTask is one in-flight unit of work inside the fluid engine.
type fluidTask struct {
	owner   int // agent id
	compute float64
	latency float64
	memB    float64
	peakBW  float64
	demand  float64 // natural DRAM demand, bytes/s
	rate    float64 // currently allocated DRAM rate
}

// Fluid is a processor-sharing model of the shared DRAM: every in-flight
// task has a compute component (depleting in real time on its own
// processor), a latency component (stretching when the memory system is
// congested), and a byte count served from the shared bandwidth by
// water-filling across per-task demand caps. Events occur when a task
// completes; rates are recomputed at each event.
//
// An agent (a CPU core, the GPU) has at most one task in flight, so a
// task is known by its owner: Step reports finished tasks by owner.
type Fluid struct {
	BW   float64
	Time float64
	// tasks holds the in-flight tasks in insertion order, so every
	// floating-point sum over them is taken in one fixed order and a
	// simulation is bit-identical run to run. unsat is waterfill's
	// scratch and done Step's result.
	tasks []fluidTask
	unsat []*fluidTask
	done  []int
}

// NewFluid returns an engine for a memory system with the given peak
// bandwidth (bytes/s).
func NewFluid(bw float64) *Fluid {
	return &Fluid{BW: bw}
}

// reset empties the engine for a memory system of peak bandwidth bw and
// sets its clock to t0, keeping its slices' storage.
func (f *Fluid) reset(bw, t0 float64) {
	f.BW, f.Time = bw, t0
	f.tasks, f.done = f.tasks[:0], f.done[:0]
}

// Active returns the number of in-flight tasks.
func (f *Fluid) Active() int { return len(f.tasks) }

// Add inserts a task for an agent that has none in flight.
func (f *Fluid) Add(owner int, c TaskCost) {
	t := fluidTask{
		owner:   owner,
		compute: c.Compute,
		latency: c.Latency,
		memB:    c.MemBytes,
		peakBW:  c.PeakBW,
	}
	if t.peakBW <= 0 || t.peakBW > f.BW {
		t.peakBW = f.BW
	}
	// Natural demand: a memory-bound task wants its cap; a compute-bound
	// task only needs to stream at its compute pace.
	busy := t.compute + t.latency
	if t.memB <= 0 {
		t.demand = 0
	} else if busy <= 0 || t.memB/t.peakBW >= busy {
		t.demand = t.peakBW
	} else {
		t.demand = t.memB / busy
	}
	f.tasks = append(f.tasks, t)
}

// congestion returns the demand overload factor rho = max(0, D/BW - 1).
func (f *Fluid) congestion() float64 {
	var d float64
	for i := range f.tasks {
		d += f.tasks[i].demand
	}
	if f.BW <= 0 || d <= f.BW {
		return 0
	}
	return d/f.BW - 1
}

// waterfill allocates bandwidth across tasks proportionally to demand,
// capped at each task's demand (max-min fairness).
func (f *Fluid) waterfill() {
	remaining := f.BW
	unsat := f.unsat[:0]
	for i := range f.tasks {
		t := &f.tasks[i]
		t.rate = 0
		if t.demand > 0 && t.memB > 0 {
			unsat = append(unsat, t)
		}
	}
	for len(unsat) > 0 && remaining > 1e-12 {
		share := remaining / float64(len(unsat))
		progressed := false
		rest := unsat[:0]
		for _, t := range unsat {
			if t.demand-t.rate <= share {
				grant := t.demand - t.rate
				t.rate = t.demand
				remaining -= grant
				progressed = true
			} else {
				rest = append(rest, t)
			}
		}
		unsat = rest
		if !progressed {
			// All remaining demands exceed the equal share: split evenly.
			share = remaining / float64(len(unsat))
			for _, t := range unsat {
				t.rate += share
			}
			remaining = 0
			break
		}
	}
	f.unsat = unsat[:0]
}

// Step advances simulated time to the next event and returns the owners
// of the tasks that finished (possibly none, when the event was a task
// draining its memory and freeing bandwidth), valid until the next Step.
// ok is false when no tasks remain in flight.
func (f *Fluid) Step() (done []int, ok bool) {
	if len(f.tasks) == 0 {
		return nil, false
	}
	f.waterfill()
	rho := f.congestion()
	latRate := 1 / (1 + rho)

	// Earliest event: either a task fully completes, or a task drains its
	// memory (which frees bandwidth for the others).
	dt := math.Inf(1)
	for i := range f.tasks {
		t := &f.tasks[i]
		fin := t.compute
		if lt := t.latency / latRate; lt > fin {
			fin = lt
		}
		if t.memB > 0 {
			var mt float64
			if t.rate <= 0 {
				mt = math.Inf(1)
			} else {
				mt = t.memB / t.rate
			}
			if mt < fin {
				// Memory drains before the task finishes: a rate-change
				// event.
				if mt < dt {
					dt = mt
				}
			}
			if mt > fin {
				fin = mt
			}
		}
		if fin < dt {
			dt = fin
		}
	}
	if math.IsInf(dt, 1) {
		// Degenerate: tasks with memory but no bandwidth (BW == 0, or a
		// zero-rate allocation). Their bytes can never drain, so forgive
		// them — otherwise Step would return forever without progress.
		// The tasks still pay their compute and latency on later steps.
		dt = 0
		for i := range f.tasks {
			if t := &f.tasks[i]; t.memB > 0 && t.rate <= 0 {
				t.memB = 0
			}
		}
	}

	f.Time += dt
	done = f.done[:0]
	live := f.tasks[:0]
	for i := range f.tasks {
		t := &f.tasks[i]
		t.compute -= dt
		if t.compute < 0 {
			t.compute = 0
		}
		t.latency -= dt * latRate
		if t.latency < 0 {
			t.latency = 0
		}
		t.memB -= dt * t.rate
		if t.memB < 1e-9 {
			t.memB = 0
		}
		if t.compute <= 1e-15 && t.latency <= 1e-15 && t.memB <= 0 {
			// Simultaneous completions come back in insertion order,
			// so schedules that react to them replay deterministically.
			done = append(done, t.owner)
		} else {
			live = append(live, *t)
		}
	}
	f.tasks = live
	f.done = done
	return done, true
}
