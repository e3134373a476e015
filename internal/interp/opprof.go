package interp

// Opcode n-gram profiling: when enabled (EnableOpProfiling), the
// bytecode dispatch loop counts every dispatched
// opcode plus the pairs and trigrams of consecutively dispatched opcodes
// within one work-item. The histograms feed cmd/dopia-superopt, which
// mines them for hot fusible sequences and regenerates the
// superinstruction table (superinstructions_gen.go) that drives the
// lowering peephole.
//
// Profiling mode observes the *base* instruction stream: the mined
// peephole is disabled (fused heads would hide the very sequences being
// mined). Counters are process-global and updated with atomic adds, so
// profiles from sharded runs merge race-free; n-grams never span
// work-items because the dispatch loop resets its history per execBC
// call.

import (
	"encoding/json"
	"io"
	"sort"
	"sync/atomic"
)

var (
	opProfOn    bool
	opProfOps   []uint64 // [nOpcodes]
	opProfPairs []uint64 // [nOpcodes*nOpcodes]
	opProfTris  []uint64 // [nOpcodes*nOpcodes*nOpcodes]
)

// EnableOpProfiling turns opcode n-gram profiling on for the process.
// It must be called before the first kernel is lowered; dopia-fuzz and
// dopia-bench call it when an -opprofile output is requested.
func EnableOpProfiling() {
	n := int(nOpcodes)
	opProfOps = make([]uint64, n)
	opProfPairs = make([]uint64, n*n)
	opProfTris = make([]uint64, n*n*n)
	opProfOn = true
}

// opProfNote records one dispatched opcode following the previous one(s)
// of the same work-item (-1 = none). Atomic adds keep shard workers
// race-free and exactly mergeable.
func opProfNote(p2, p1, op int32) {
	n := int32(nOpcodes)
	atomic.AddUint64(&opProfOps[op], 1)
	if p1 >= 0 {
		atomic.AddUint64(&opProfPairs[p1*n+op], 1)
		if p2 >= 0 {
			atomic.AddUint64(&opProfTris[(p2*n+p1)*n+op], 1)
		}
	}
}

// OpNGram is one entry of a dumped opcode n-gram histogram.
type OpNGram struct {
	Seq   []string `json:"seq"`
	Count uint64   `json:"count"`
}

// OpProfile is the dump format of the opcode n-gram profiler, consumed
// by cmd/dopia-superopt.
type OpProfile struct {
	Dispatches uint64    `json:"dispatches"`
	Ops        []OpNGram `json:"ops"`
	Pairs      []OpNGram `json:"pairs"`
	Trigrams   []OpNGram `json:"trigrams"`
}

// CurrentOpProfile snapshots the process-wide opcode n-gram histograms,
// keeping the top entries of each order. It returns an empty profile
// when profiling is not enabled.
func CurrentOpProfile(top int) *OpProfile {
	p := &OpProfile{}
	if !opProfOn {
		return p
	}
	if top <= 0 {
		top = 64
	}
	n := int(nOpcodes)
	for op := range opProfOps {
		if c := atomic.LoadUint64(&opProfOps[op]); c != 0 {
			p.Dispatches += c
			p.Ops = append(p.Ops, OpNGram{Seq: []string{opName(opcode(op))}, Count: c})
		}
	}
	for i := range opProfPairs {
		if c := atomic.LoadUint64(&opProfPairs[i]); c != 0 {
			a, b := i/n, i%n
			p.Pairs = append(p.Pairs, OpNGram{Seq: []string{opName(opcode(a)), opName(opcode(b))}, Count: c})
		}
	}
	for i := range opProfTris {
		if c := atomic.LoadUint64(&opProfTris[i]); c != 0 {
			a, b, d := i/(n*n), (i/n)%n, i%n
			p.Trigrams = append(p.Trigrams, OpNGram{Seq: []string{opName(opcode(a)), opName(opcode(b)), opName(opcode(d))}, Count: c})
		}
	}
	trim := func(s []OpNGram) []OpNGram {
		sort.SliceStable(s, func(i, j int) bool { return s[i].Count > s[j].Count })
		if len(s) > top {
			s = s[:top]
		}
		return s
	}
	p.Ops, p.Pairs, p.Trigrams = trim(p.Ops), trim(p.Pairs), trim(p.Trigrams)
	return p
}

// WriteOpProfile writes the current opcode n-gram histograms as indented
// JSON (the input format of cmd/dopia-superopt).
func WriteOpProfile(w io.Writer, top int) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(CurrentOpProfile(top))
}

// ResetOpProfile zeroes the histograms (test hook).
func ResetOpProfile() {
	for i := range opProfOps {
		atomic.StoreUint64(&opProfOps[i], 0)
	}
	for i := range opProfPairs {
		atomic.StoreUint64(&opProfPairs[i], 0)
	}
	for i := range opProfTris {
		atomic.StoreUint64(&opProfTris[i], 0)
	}
}
