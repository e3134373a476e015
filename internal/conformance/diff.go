package conformance

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"

	"dopia/internal/interp"
)

// TB is the minimal testing surface the assertion helpers need. It is
// satisfied by *testing.T and *testing.B, and by the fuzzer's collecting
// reporter, so the library never imports package testing.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
}

// BufferBytes returns the bit-exact little-endian byte image of a
// buffer's payload, so NaN payloads and signed zeros compare exactly and
// a divergence can be reported as a byte offset.
func BufferBytes(b *interp.Buffer) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, 0, 4*len(b.F32)+4*len(b.I32)+8*len(b.F64)+8*len(b.I64))
	for _, v := range b.F32 {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	for _, v := range b.I32 {
		out = binary.LittleEndian.AppendUint32(out, uint32(v))
	}
	for _, v := range b.F64 {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	for _, v := range b.I64 {
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	return out
}

// F32Bytes/I32Bytes encode raw element slices the same way BufferBytes
// does, for legs (the serving round-trip) that observe decoded wire data
// rather than interp buffers.
func F32Bytes(xs []float32) []byte {
	out := make([]byte, 0, 4*len(xs))
	for _, v := range xs {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out
}

// I32Bytes encodes an int32 slice little-endian (see F32Bytes).
func I32Bytes(xs []int32) []byte {
	out := make([]byte, 0, 4*len(xs))
	for _, v := range xs {
		out = binary.LittleEndian.AppendUint32(out, uint32(v))
	}
	return out
}

// DiffBytes compares two byte images and returns "" when identical, or
// one canonical message naming the first divergent byte offset.
func DiffBytes(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("first divergent byte at offset %d: %#02x != %#02x (lengths %d/%d)",
				i, a[i], b[i], len(a), len(b))
		}
	}
	if len(a) != len(b) {
		return fmt.Sprintf("lengths differ: %d != %d (equal up to byte %d)", len(a), len(b), n)
	}
	return ""
}

// DiffBuffers compares one named buffer's byte images ("" = identical).
func DiffBuffers(name string, a, b []byte) string {
	if d := DiffBytes(a, b); d != "" {
		return fmt.Sprintf("buffer %s: %s", name, d)
	}
	return ""
}

// DiffProfiles compares two execution profiles modulo the engine that
// ran them, which legitimately differs between legs. It returns "" when
// equal, else a description.
func DiffProfiles(a, b *interp.Profile) string {
	if a == nil || b == nil {
		if a != b {
			return fmt.Sprintf("one profile missing (%v vs %v)", a != nil, b != nil)
		}
		return ""
	}
	ac, bc := *a, *b
	ac.Engine, bc.Engine = 0, 0
	if reflect.DeepEqual(&ac, &bc) {
		return ""
	}
	if ac.AluInt != bc.AluInt || ac.AluFloat != bc.AluFloat ||
		ac.Loads != bc.Loads || ac.Stores != bc.Stores ||
		ac.LoadBytes != bc.LoadBytes || ac.StoreBytes != bc.StoreBytes ||
		ac.GroupsRun != bc.GroupsRun || ac.ItemsRun != bc.ItemsRun {
		return fmt.Sprintf("profile totals differ:\n  a: %+v\n  b: %+v", profTotals(&ac), profTotals(&bc))
	}
	if len(ac.Sites) != len(bc.Sites) {
		return fmt.Sprintf("profile site count differs: %d != %d", len(ac.Sites), len(bc.Sites))
	}
	for i := range ac.Sites {
		if !reflect.DeepEqual(ac.Sites[i], bc.Sites[i]) {
			return fmt.Sprintf("profile site %d differs:\n  a: %+v\n  b: %+v", i, ac.Sites[i], bc.Sites[i])
		}
	}
	return "profiles differ"
}

func profTotals(p *interp.Profile) string {
	return fmt.Sprintf("alu=%d/%d mem=%d/%d bytes=%d/%d groups=%d items=%d",
		p.AluInt, p.AluFloat, p.Loads, p.Stores, p.LoadBytes, p.StoreBytes, p.GroupsRun, p.ItemsRun)
}

// DiffErrors compares the error outcome of two legs: both nil, or both
// non-nil with identical text ("" = agreement).
func DiffErrors(a, b error) string {
	switch {
	case a == nil && b == nil:
		return ""
	case (a == nil) != (b == nil):
		return fmt.Sprintf("error presence differs: %v != %v", a, b)
	case a.Error() != b.Error():
		return fmt.Sprintf("error text differs:\n  a: %v\n  b: %v", a, b)
	}
	return ""
}

// BufferObs is one observed buffer: the argument name plus the byte
// image of its post-run contents.
type BufferObs struct {
	Name  string
	Bytes []byte
}

// Observation is everything one oracle leg observed about a case run:
// final buffer contents, the run error (nil for success), and — when the
// leg records it — the statistics profile.
type Observation struct {
	// Leg names the lattice point ("bytecode/shards=3", "rung:plain",
	// "serving", ...).
	Leg string
	// Err is the run error (trap text) or nil.
	Err error
	// Buffers holds every buffer argument's final bytes, in argument
	// order.
	Buffers []BufferObs
	// Profile is the summarized RunStats (nil when the leg does not
	// expose one, e.g. the interposed-ladder and serving legs).
	Profile *interp.Profile
	// Rung is the fallback-ladder rung that served the leg ("" for
	// direct-interpretation legs).
	Rung string
}

// DiffObservations compares a leg against the reference and returns one
// message per divergence (empty = equivalent). Profiles are compared only
// when both observations carry them.
func DiffObservations(ref, leg *Observation) []string {
	var out []string
	pre := func(msg string) string { return fmt.Sprintf("%s vs %s: %s", leg.Leg, ref.Leg, msg) }
	if d := DiffErrors(ref.Err, leg.Err); d != "" {
		out = append(out, pre(d))
	}
	if len(ref.Buffers) != len(leg.Buffers) {
		out = append(out, pre(fmt.Sprintf("buffer count differs: %d != %d", len(leg.Buffers), len(ref.Buffers))))
		return out
	}
	for i := range ref.Buffers {
		r, l := &ref.Buffers[i], &leg.Buffers[i]
		if r.Name != l.Name {
			out = append(out, pre(fmt.Sprintf("buffer %d name differs: %s != %s", i, l.Name, r.Name)))
			continue
		}
		if d := DiffBuffers(r.Name, r.Bytes, l.Bytes); d != "" {
			out = append(out, pre(d))
		}
	}
	if ref.Profile != nil && leg.Profile != nil {
		if d := DiffProfiles(ref.Profile, leg.Profile); d != "" {
			out = append(out, pre(d))
		}
	}
	return out
}

// AssertIdentical reports every divergence between a leg and the
// reference observation through tb. It is the one canonical equivalence
// check, shared by the oracle, the engine-differential tests, and the
// parallel-equivalence tests.
func AssertIdentical(tb TB, ref, leg *Observation) {
	tb.Helper()
	for _, d := range DiffObservations(ref, leg) {
		tb.Errorf("%s", d)
	}
}
