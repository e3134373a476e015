package clc

import (
	"sync"
	"sync/atomic"

	"dopia/internal/faults"
)

// memoEntry is one derived artifact of a kernel: built at most once,
// value and error both kept.
type memoEntry struct {
	mu   sync.Mutex
	done atomic.Bool
	val  any
	err  error
}

// Memo returns the artifact stored on k under key, running build to
// derive it on first use. Everything that is a pure function of the
// kernel text — static analysis, malleable code, compiled forms — is
// stored this way, so it lives exactly as long as the kernel and is
// collected with it; no layer keeps a kernel-keyed cache of its own.
//
// Keys are values of unexported per-package types, as with context
// values: only the package that declares a key type can name it, which
// is what ties a key to its T. Concurrent first uses of one key run
// build once and share its result; a failed build is stored like a
// successful one, so a deterministic rejection is classified once. A
// build that panics stores nothing.
//
// While fault injection is armed the memo is neither read nor written:
// every call runs build, so an armed plan observes the call sequence of
// the uncached pipeline and an injected failure never reaches a caller
// that did not arm it.
func Memo[T any](k *Kernel, key any, build func() (T, error)) (T, error) {
	if faults.Active() {
		return build()
	}
	v, ok := k.memo.Load(key)
	if !ok {
		v, _ = k.memo.LoadOrStore(key, &memoEntry{})
	}
	e := v.(*memoEntry)
	if !e.done.Load() {
		e.mu.Lock()
		defer e.mu.Unlock()
		if !e.done.Load() {
			val, err := build()
			if faults.Active() {
				// Armed while building: the result may carry an
				// injected fault, so hand it back without keeping it.
				return val, err
			}
			e.val, e.err = val, err
			e.done.Store(true)
		}
	}
	val, _ := e.val.(T)
	return val, e.err
}
