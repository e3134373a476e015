package sched

import (
	"dopia/internal/clc"
	"dopia/internal/lru"
)

// MemoStats snapshots k's model memo for the external tests: Misses
// counts the models launches of k could not find by shape, Entries the
// profiles it keeps.
func MemoStats(k *clc.Kernel) lru.Stats {
	memo, _ := clc.Memo(k, modelKey{}, newProfileMemo)
	return memo.Stats()
}
