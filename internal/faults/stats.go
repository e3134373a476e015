package faults

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// FallbackStats counts, per framework or per command queue, how launches
// moved through the fail-open ladder:
//
//	Managed      — full Dopia management (malleable co-exec + model DoP)
//	CoExecAll    — degraded: co-execution of the original kernel on ALL
//	               resources (malleable transform unavailable)
//	Plain        — degraded to the plain single-device runtime
//	               (handled=false returned to the OpenCL layer)
//	ModelDiscards— model predictions discarded for a launch (NaN/Inf/
//	               out-of-range or inference fault); the launch itself may
//	               still be Managed or CoExecAll with the ALL config
//	Panics       — panics contained at a pipeline boundary
//	Timeouts     — watchdog deadline hits
//
// ByStage attributes each degradation to the pipeline stage that caused
// it. The zero value is ready to use; all methods are safe for concurrent
// use. A FallbackStats must not be copied after first use.
//
// The hot path (RecordManaged, once per interposed launch, from every
// serving worker at once) is a single uncontended atomic increment. A
// degradation — rare by design — updates its counter, the panic/timeout
// counters and the per-stage attribution as one record under mu, and
// Snapshot reads all of them under the same lock: a record racing with a
// snapshot lands entirely in this snapshot or entirely in the next, so
// by-stage totals never exceed the records that were classified.
type FallbackStats struct {
	managed atomic.Int64

	mu            sync.Mutex // guards everything below
	coExecAll     int64
	plain         int64
	modelDiscards int64
	panics        int64
	timeouts      int64
	byStage       map[Stage]int64
}

// Snapshot is a copyable view of a FallbackStats at one instant.
type Snapshot struct {
	Managed       int64
	CoExecAll     int64
	Plain         int64
	ModelDiscards int64
	Panics        int64
	Timeouts      int64
	ByStage       map[Stage]int64
}

// RecordManaged counts a fully Dopia-managed launch.
func (s *FallbackStats) RecordManaged() {
	if s == nil {
		return
	}
	s.managed.Add(1)
}

// RecordCoExecAll counts a launch degraded to ALL co-execution without
// the malleable kernel, caused by err.
func (s *FallbackStats) RecordCoExecAll(err error) {
	if s == nil {
		return
	}
	s.record(&s.coExecAll, err)
}

// RecordPlain counts a launch handed back to the plain runtime, caused by
// err.
func (s *FallbackStats) RecordPlain(err error) {
	if s == nil {
		return
	}
	s.record(&s.plain, err)
}

// RecordModelDiscard counts a launch whose model prediction was discarded.
func (s *FallbackStats) RecordModelDiscard(err error) {
	if s == nil {
		return
	}
	s.record(&s.modelDiscards, err)
}

// record counts one degradation in counter and, as part of the same
// record, attributes err to its pipeline stage and counts panics and
// timeouts.
func (s *FallbackStats) record(counter *int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	*counter++
	if err == nil {
		return
	}
	if IsPanic(err) {
		s.panics++
	}
	if IsTimeout(err) {
		s.timeouts++
	}
	if s.byStage == nil {
		s.byStage = map[Stage]int64{}
	}
	s.byStage[StageOf(err)]++
}

// Snapshot returns a consistent copy of all counters.
func (s *FallbackStats) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := Snapshot{
		Managed:       s.managed.Load(),
		CoExecAll:     s.coExecAll,
		Plain:         s.plain,
		ModelDiscards: s.modelDiscards,
		Panics:        s.panics,
		Timeouts:      s.timeouts,
		ByStage:       make(map[Stage]int64, len(s.byStage)),
	}
	for st, n := range s.byStage {
		snap.ByStage[st] = n
	}
	return snap
}

// Degradations returns the total number of launches that fell below full
// Dopia management.
func (s Snapshot) Degradations() int64 { return s.CoExecAll + s.Plain }

// Sub returns the per-counter difference s - prev: the records that
// happened between the two snapshots. Taking a snapshot before and after
// one serialized launch attributes exactly that launch's records.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := Snapshot{
		Managed:       s.Managed - prev.Managed,
		CoExecAll:     s.CoExecAll - prev.CoExecAll,
		Plain:         s.Plain - prev.Plain,
		ModelDiscards: s.ModelDiscards - prev.ModelDiscards,
		Panics:        s.Panics - prev.Panics,
		Timeouts:      s.Timeouts - prev.Timeouts,
		ByStage:       map[Stage]int64{},
	}
	for st, n := range s.ByStage {
		if delta := n - prev.ByStage[st]; delta != 0 {
			d.ByStage[st] = delta
		}
	}
	return d
}

// String renders the snapshot compactly for logs and reports.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "managed=%d coexec-all=%d plain=%d model-discards=%d panics=%d timeouts=%d",
		s.Managed, s.CoExecAll, s.Plain, s.ModelDiscards, s.Panics, s.Timeouts)
	if len(s.ByStage) > 0 {
		stages := make([]string, 0, len(s.ByStage))
		for st := range s.ByStage {
			stages = append(stages, string(st))
		}
		sort.Strings(stages)
		b.WriteString(" by-stage={")
		for i, st := range stages {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s:%d", st, s.ByStage[Stage(st)])
		}
		b.WriteString("}")
	}
	return b.String()
}
