//go:build race

package sim

// raceBuild reports whether the race detector is on: it makes sync.Pool
// drop objects at random, so allocation counts only hold without it.
const raceBuild = true
