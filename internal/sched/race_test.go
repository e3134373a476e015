//go:build race

package sched

// planSynthetic is the size of the synthetic-grid slice the plan
// equivalence tests run. The race detector makes the interpreter an
// order of magnitude slower, so race builds keep the full machine ×
// policy × shard matrix and thin the workloads instead.
const planSynthetic = 6
