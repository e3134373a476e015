package faults

// Node-level fault classes. PR 1 introduced the in-process taxonomy —
// pipeline stages of one launch — and a deterministic injection
// registry. The cluster tier (internal/cluster) adds a second failure
// domain: whole nodes. These classes name the faults its chaos
// controller can inject against a member of the ring; the router's
// failure-handling matrix (DESIGN.md "Cluster tier") is keyed by them.
//
// The classes are declared here, next to the rest of the taxonomy,
// so one package owns every fault name in the system and the chaos
// matrix tests can iterate NodeFaultClasses() exactly like the
// stage×fault matrix tests iterate Stages().

import "errors"

// NodeFaultClass identifies a node-level fault the chaos controller can
// inject against one cluster member.
type NodeFaultClass string

const (
	// NodeKill terminates a node abruptly: its listener closes and every
	// in-flight connection is dropped, exactly like a process crash.
	// Permanent until the node is explicitly restarted.
	NodeKill NodeFaultClass = "node.kill"
	// NodePartition stops a node answering the router's health probe
	// while the node itself keeps serving — the classic "healthy but
	// unreachable to the failure detector" split.
	NodePartition NodeFaultClass = "node.partition"
	// NodeSlow injects latency in front of every request the node
	// serves, pushing it past the router's per-call timeout.
	NodeSlow NodeFaultClass = "node.slow"
	// NodeCacheEvict drops the node's program registry, so launches
	// referencing a content-addressed p-<sha256> ID start failing with
	// "no program" until the router re-pushes the source.
	NodeCacheEvict NodeFaultClass = "node.cache-evict"
)

// NodeFaultClasses lists every node-level fault class. The cluster
// chaos-matrix tests iterate this, asserting zero dropped sessions and
// zero bit-exactness mismatches under each.
func NodeFaultClasses() []NodeFaultClass {
	return []NodeFaultClass{NodeKill, NodePartition, NodeSlow, NodeCacheEvict}
}

// StageCluster classifies failures originating in the cluster tier
// (routing, replication, migration) rather than in one launch's
// pipeline.
const StageCluster Stage = "cluster"

// Cluster-tier sentinels, wrapped by the router exactly like the
// pipeline sentinels are wrapped by the fallback ladder.
var (
	// ErrNodeDown: a request against one node failed at the transport
	// level or with a 5xx — the node is treated as dead and the session
	// fails over to its successor.
	ErrNodeDown = errors.New("node down")
	// ErrRingDown: no healthy node remains; the router answers 503 with
	// Retry-After instead of failing sessions over.
	ErrRingDown = errors.New("ring down")
)

// IsNodeDown reports whether err is classified as a dead node.
func IsNodeDown(err error) bool { return errors.Is(err, ErrNodeDown) }

// IsRingDown reports whether err is classified as a whole-ring outage.
func IsRingDown(err error) bool { return errors.Is(err, ErrRingDown) }
