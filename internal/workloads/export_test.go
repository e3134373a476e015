package workloads

import "dopia/internal/lru"

// InputMemoStats snapshots the input memo's traffic for the external
// tests, and PurgeInputMemo empties it.
func InputMemoStats() lru.Stats { return inputs.Stats() }
func PurgeInputMemo()           { inputs.Purge() }
