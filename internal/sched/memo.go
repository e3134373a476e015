package sched

import (
	"bytes"

	"dopia/internal/analysis"
	"dopia/internal/lru"
	"dopia/internal/sim"
)

// The model memo: a relaunch does not re-profile. A sampled profile is a
// pure function of the kernel, the normalized ND-range, the normalized
// scalar arguments, each buffer's kind, length and alias group, and the
// bytes of the buffers analysis.Result.ProfileInputs names. It holds no
// buffer base address — site profiles are address deltas within one
// buffer — and no other buffer's contents. Each kernel therefore keeps its
// recent profiles (clc.Memo: it dies with the kernel, and is neither read
// nor written while fault injection is armed) in one lru.Cache keyed by
// everything but the input bytes; an entry carries a copy of those, and a
// hit needs them byte-equal. Comparing the bytes themselves needs no
// write-generation plumbing, which could not see the writes that reach a
// buffer's slices directly anyway (dopiad's uploads, a benchmark's
// restore).

// modelKey is the clc.Memo key of a kernel's model memo.
type modelKey struct{}

// profileMemoCap bounds one kernel's memo, in profile keys.
const profileMemoCap = 8

// newProfileMemo builds a kernel's model memo on first use.
func newProfileMemo() (*lru.Cache[string, *memoProfile], error) {
	return lru.New[string, *memoProfile](profileMemoCap, nil), nil
}

// memoProfile is one memoized profile: the model it built and a copy of
// the bytes of its launch's input buffers, in slot order.
type memoProfile struct {
	model  *sim.KernelModel
	inputs [][]byte
}

func newProfile(inputs [][]byte) *memoProfile {
	p := &memoProfile{inputs: make([][]byte, len(inputs))}
	for i, b := range inputs {
		p.inputs[i] = bytes.Clone(b)
	}
	return p
}

// sameInputs reports whether a launch's input bytes equal the profile's.
func (p *memoProfile) sameInputs(inputs [][]byte) bool {
	if len(inputs) != len(p.inputs) {
		return false
	}
	for i, b := range inputs {
		if !bytes.Equal(b, p.inputs[i]) {
			return false
		}
	}
	return true
}

// profileKey returns the launched interpreter's profile key — its launch
// identity's shape (interp.Exec.Identity) — with views of the launch's
// input buffers. The inputs are the buffers bound to res.ProfileInputs —
// unless one of those is also bound to another slot: the analysis takes
// every slot for a distinct buffer, so a store through the alias could
// reach the input unseen, and then every buffer is an input.
func (e *Executor) profileKey(res *analysis.Result) (string, [][]byte) {
	key, ids := e.ex.Identity()
	slots := res.ProfileInputs
	for _, s := range slots {
		if aliased(ids, s) {
			slots = nil
			for i, id := range ids {
				if id == i+1 {
					slots = append(slots, i)
				}
			}
			break
		}
	}
	inputs := make([][]byte, len(slots))
	for i, s := range slots {
		inputs[i] = e.args[s].Buf.Raw()
	}
	return key, inputs
}

// aliased reports whether the buffer at slot s is bound to another slot
// too, given every slot's alias group.
func aliased(ids []int, s int) bool {
	for j, id := range ids {
		if j != s && id == ids[s] {
			return true
		}
	}
	return false
}
