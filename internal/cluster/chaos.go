package cluster

// The chaos controller injects node-level faults into a running local
// cluster on a deterministic schedule: node kill, probe partition,
// slow node, and program-cache eviction (the faults.NodeFaultClass
// set). Schedules are parsed from a compact spec string so dopia-load
// and CI can describe a whole failure scenario in one flag:
//
//	kill:n1@3s,slow:n2@2s:3s:50ms,partition:n0@1s:2s,evict:n3@2s
//
// Every event names its class, victim, and offset from Run's start;
// slow and partition carry a duration (the fault heals afterwards),
// slow also a latency. Events fire in offset order on one goroutine,
// so a given spec replays the identical fault sequence every run.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"dopia/internal/faults"
)

// ChaosEvent is one scheduled fault injection.
type ChaosEvent struct {
	// After is the offset from the schedule's start.
	After time.Duration
	// Class is the node-level fault class to inject.
	Class faults.NodeFaultClass
	// Node is the victim member ID.
	Node string
	// Duration bounds transient faults (slow, partition); the
	// controller heals the fault when it elapses. Zero means the fault
	// persists for the rest of the run (kill always persists).
	Duration time.Duration
	// Latency is the injected per-request delay (slow only).
	Latency time.Duration
}

// String renders the event in spec form.
func (e ChaosEvent) String() string {
	short := string(e.Class)
	switch e.Class {
	case faults.NodeKill:
		short = "kill"
	case faults.NodeSlow:
		short = "slow"
	case faults.NodePartition:
		short = "partition"
	case faults.NodeCacheEvict:
		short = "evict"
	}
	s := fmt.Sprintf("%s:%s@%s", short, e.Node, e.After)
	if e.Duration > 0 {
		s += ":" + e.Duration.String()
	}
	if e.Latency > 0 {
		s += ":" + e.Latency.String()
	}
	return s
}

// ParseChaosSpec parses a comma-separated event list. Each event is
// class:node@after[:duration[:latency]]; class is one of kill, slow,
// partition, evict (shorthand for the faults.Node* classes).
func ParseChaosSpec(spec string) ([]ChaosEvent, error) {
	var events []ChaosEvent
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		head, rest, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("chaos: %q: want class:node@after", part)
		}
		var ev ChaosEvent
		switch head {
		case "kill":
			ev.Class = faults.NodeKill
		case "slow":
			ev.Class = faults.NodeSlow
		case "partition":
			ev.Class = faults.NodePartition
		case "evict":
			ev.Class = faults.NodeCacheEvict
		default:
			return nil, fmt.Errorf("chaos: unknown fault class %q (want kill|slow|partition|evict)", head)
		}
		fields := strings.Split(rest, ":")
		node, afterStr, ok := strings.Cut(fields[0], "@")
		if !ok || node == "" {
			return nil, fmt.Errorf("chaos: %q: want class:node@after", part)
		}
		ev.Node = node
		var err error
		if ev.After, err = time.ParseDuration(afterStr); err != nil {
			return nil, fmt.Errorf("chaos: %q: bad offset: %v", part, err)
		}
		if len(fields) > 1 {
			if ev.Duration, err = time.ParseDuration(fields[1]); err != nil {
				return nil, fmt.Errorf("chaos: %q: bad duration: %v", part, err)
			}
		}
		if len(fields) > 2 {
			if ev.Latency, err = time.ParseDuration(fields[2]); err != nil {
				return nil, fmt.Errorf("chaos: %q: bad latency: %v", part, err)
			}
		}
		if len(fields) > 3 {
			return nil, fmt.Errorf("chaos: %q: too many fields", part)
		}
		if ev.Class == faults.NodeSlow && ev.Latency == 0 {
			ev.Latency = 50 * time.Millisecond
		}
		events = append(events, ev)
	}
	return events, nil
}

// ChaosController fires a schedule of events against a local cluster.
type ChaosController struct {
	events []ChaosEvent
	lookup func(id string) *Node
	logf   func(format string, args ...any)
}

// NewChaosController builds a controller over a node lookup (nil logf
// discards narration). The schedule is sorted by offset; ties keep
// spec order.
func NewChaosController(events []ChaosEvent, lookup func(id string) *Node, logf func(string, ...any)) *ChaosController {
	sorted := make([]ChaosEvent, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].After < sorted[j].After })
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &ChaosController{events: sorted, lookup: lookup, logf: logf}
}

// Run fires the schedule relative to now, blocking until every event
// has been injected (heals of transient faults run on background
// timers and may land after Run returns). ctx cancels the remainder.
func (c *ChaosController) Run(ctx context.Context) error {
	start := time.Now()
	for _, ev := range c.events {
		wait := ev.After - time.Since(start)
		if wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		n := c.lookup(ev.Node)
		if n == nil {
			c.logf("chaos: skip %s: unknown node %q", ev.Class, ev.Node)
			continue
		}
		c.inject(ev, n)
	}
	return nil
}

func (c *ChaosController) inject(ev ChaosEvent, n *Node) {
	switch ev.Class {
	case faults.NodeKill:
		c.logf("chaos: killing %s at +%s", ev.Node, ev.After)
		n.Kill()
	case faults.NodeSlow:
		c.logf("chaos: slowing %s by %s at +%s for %s", ev.Node, ev.Latency, ev.After, ev.Duration)
		n.SetSlow(ev.Latency)
		if ev.Duration > 0 {
			time.AfterFunc(ev.Duration, func() {
				n.SetSlow(0)
				c.logf("chaos: %s back to full speed", ev.Node)
			})
		}
	case faults.NodePartition:
		c.logf("chaos: partitioning %s at +%s for %s", ev.Node, ev.After, ev.Duration)
		n.SetPartitioned(true)
		if ev.Duration > 0 {
			time.AfterFunc(ev.Duration, func() {
				n.SetPartitioned(false)
				c.logf("chaos: %s partition healed", ev.Node)
			})
		}
	case faults.NodeCacheEvict:
		evicted := n.Srv.EvictPrograms()
		c.logf("chaos: evicted %d programs from %s at +%s", evicted, ev.Node, ev.After)
	}
}
