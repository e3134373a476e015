//go:build !race

package sched

// planSynthetic is the size of the synthetic-grid slice the plan
// equivalence tests run (see race_test.go for the race-build value).
const planSynthetic = 40
