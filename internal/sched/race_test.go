//go:build race

package sched

// planSynthetic is the size of the synthetic-grid slice the plan
// equivalence tests run. The race detector makes the interpreter an
// order of magnitude slower, so race builds keep the full machine ×
// policy × shard matrix and thin the workloads instead.
const planSynthetic = 6

// raceBuild reports whether the race detector is on. It makes sync.Pool
// drop objects at random, so the allocations of a run that simulates
// (sim.Simulate's pooled scratch) only repeat without it.
const raceBuild = true
