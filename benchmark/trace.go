package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public functions. Spans of one op share Op; Parent is the
// ID of the span that caused this one (-1 for an op's root).
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. Only the goroutine
// that runs the passes records (the serving workload turns its
// connections' samples into spans after the pass's barrier), so there is
// no lock.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(op, parent int, name string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, StartNS: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].EndNS = time.Since(t.t0).Nanoseconds()
}

// add records a span whose interval was measured elsewhere (the serving
// workload derives the daemon's queue and exec spans from the response).
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, Op: op, ID: id, Parent: parent,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// opTrace is the handle a decomposed chain records through: every call
// becomes a child of the op's root span.
type opTrace struct {
	t    *tracer
	op   int
	root int
}

func (t *tracer) startOp(op int) opTrace {
	return opTrace{t: t, op: op, root: t.begin(op, -1, rootSpan)}
}

func (o opTrace) finish() time.Duration {
	o.t.end(o.root)
	return o.t.spans[o.root].dur()
}

// call runs f inside a span named name.
func (o opTrace) call(name string, f func() error) error {
	id := o.t.begin(o.op, o.root, name)
	err := f()
	o.t.end(id)
	return err
}

// rootSpan names an op's root. Its self time is the benchmark's own glue
// between layer calls and is not counted as layer time.
const rootSpan = "bench.op"

// selfTimes returns every span's self time: its duration minus the part
// of it its direct children cover. spans may be any subset that holds
// whole ops.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	at := make(map[int]int, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		at[s.ID] = i
	}
	for _, s := range spans {
		if i, ok := at[s.Parent]; ok {
			self[i] -= s.dur()
		}
	}
	return self
}

// spanDurations groups span durations (ms) by span name.
func spanDurations(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur())/float64(time.Millisecond))
	}
	return out
}

// spanShare is one row of the traced report: the summed self time of
// all spans of one name and its share of all op time.
type spanShare struct {
	name   string
	selfMS float64
	share  float64
}

// spanShares sums self time per span name, largest first.
func spanShares(spans []span) []spanShare {
	self := selfTimes(spans)
	sum := map[string]float64{}
	var total float64
	for i, s := range spans {
		ms := float64(self[i]) / float64(time.Millisecond)
		sum[s.Name] += ms
		total += ms
	}
	out := make([]spanShare, 0, len(sum))
	for name, ms := range sum {
		sh := spanShare{name: name, selfMS: ms}
		if total > 0 {
			sh.share = ms / total
		}
		out = append(out, sh)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].selfMS != out[j].selfMS {
			return out[i].selfMS > out[j].selfMS
		}
		return out[i].name < out[j].name
	})
	return out
}

// layerSelfMS returns the summed self time (ms) of every span that is
// not an op root — the numerator of trace.coverage.
func layerSelfMS(spans []span) float64 {
	self := selfTimes(spans)
	var ms float64
	for i, s := range spans {
		if s.Name != rootSpan {
			ms += float64(self[i]) / float64(time.Millisecond)
		}
	}
	return ms
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
