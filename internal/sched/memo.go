package sched

import (
	"bytes"
	"encoding/binary"
	"math"

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

func newProfile(km *sim.KernelModel, inputs [][]byte) *memoProfile {
	p := &memoProfile{model: km, inputs: make([][]byte, len(inputs))}
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

// profileKey encodes the launched cpuEx's profile key and returns it with
// views of the launch's input buffers. The inputs are the buffers bound
// to res.ProfileInputs — unless one of those is also bound to another
// slot: the analysis takes every slot for a distinct buffer, so a store
// through the alias could reach the input unseen, and then every buffer
// is an input. The encoding needs no separators: the kernel's signature
// fixes which slots are buffers, and every number is a varint.
func (e *Executor) profileKey(res *analysis.Result) (string, [][]byte) {
	args := e.cpuEx.Args()
	nd := e.nd.Normalized()
	k := binary.AppendVarint(make([]byte, 0, 64), int64(nd.Dims))
	for d := 0; d < 3; d++ {
		k = binary.AppendVarint(k, int64(nd.Global[d]))
		k = binary.AppendVarint(k, int64(nd.Local[d]))
		k = binary.AppendVarint(k, int64(nd.Offset[d]))
	}
	group := make([]int, len(args))
	shared := make([]bool, len(args))
	for i, a := range args {
		if !a.IsBuf {
			k = binary.AppendVarint(k, a.Val.I)
			k = binary.AppendUvarint(k, math.Float64bits(a.Val.F))
			continue
		}
		group[i] = i
		for j := 0; j < i; j++ {
			if args[j].Buf == a.Buf {
				group[i] = j
				shared[i], shared[j] = true, true
				break
			}
		}
		k = binary.AppendVarint(k, int64(a.Buf.Kind))
		k = binary.AppendVarint(k, int64(a.Buf.Len()))
		k = binary.AppendVarint(k, int64(group[i]))
	}
	slots := res.ProfileInputs
	for _, s := range slots {
		if shared[s] {
			slots = nil
			for i, a := range args {
				if a.IsBuf && group[i] == i {
					slots = append(slots, i)
				}
			}
			break
		}
	}
	inputs := make([][]byte, len(slots))
	for i, s := range slots {
		inputs[i] = args[s].Buf.Raw()
	}
	return string(k), inputs
}
