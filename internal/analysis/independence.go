package analysis

import (
	"fmt"
	"sort"

	"dopia/internal/clc"
)

// Work-group independence is the one predicate that decides whether the
// execution engines may run a launch's work-groups concurrently and out
// of order (interp's shard engine, sampled profiling, and the sharded
// co-execution plan all consult it). A launch is work-group independent
// when no work-group can observe, or overwrite, what another one wrote:
//
//   - the kernel performs no atomics on global memory;
//   - every store to a global buffer uses an index that is an exact
//     affine function of the work-item ids and of loops with known
//     bounds, and that function provably maps different work-groups to
//     different elements for the launched geometry and the bound scalar
//     arguments (so not Random, not Constant, not data-dependent);
//   - every other access to a stored buffer — loads included, and
//     through any parameter bound to the same buffer — uses exactly the
//     store's index, so a work-item only ever touches its own elements.
//
// Everything else is order-sensitive and must run in schedule order on
// one goroutine. The same predicate one level down (ItemOrderSensitive)
// also proves every stored index distinct across the work-items of one
// group, so a work-item only ever touches elements no other work-item of
// the launch touches, and the items of a group may interleave too. The
// proof is deliberately one-sided: a kernel guarded by `if (i < N)` on a
// padded range, or one that writes disjoint halves through two different
// indices, is reported order-sensitive although it is not — that only
// costs parallelism, never correctness.

// Independence is the static half of the predicate: what the kernel's
// global accesses look like, independent of any launch.
type Independence struct {
	// static is non-empty when the kernel is order-sensitive under every
	// launch (global atomics, or the analyzer rejected it).
	static   string
	params   []string // parameter names by slot, for the reasons
	accesses []globalAccess
	loops    []loopRange
}

// globalAccess is one static access to a global buffer parameter.
type globalAccess struct {
	slot  int
	write bool
	idx   poly // exact index; nil = unknown
}

// loopRange describes the values a for-loop induction variable takes:
// lo, lo+step, ... below hi. A zero step marks an unknown range.
type loopRange struct {
	lo, hi poly
	step   int64
}

// LaunchFacts are the launch-time inputs of the predicate.
type LaunchFacts struct {
	// Scalars holds the bound value of every integer scalar parameter,
	// indexed by parameter slot (other slots are ignored).
	Scalars []int64
	// BufferID identifies the buffer bound to each pointer parameter,
	// indexed by slot: two slots carry the same non-zero id exactly when
	// they are bound to the same buffer.
	BufferID []int
	// NumGroups and Local describe the launched geometry.
	NumGroups, Local [3]int
}

// WorkGroupIndependence analyzes k for the execution engine, once per
// kernel. Unlike Analyze it is not a fault-injection site — the engine's
// bookkeeping is not the managed path's feature extraction — and it
// cannot fail: a kernel the analyzer rejects is reported order-sensitive.
func WorkGroupIndependence(k *clc.Kernel) *Independence {
	in, _ := clc.Memo(k, independenceKey{}, func() (in *Independence, _ error) {
		defer func() {
			if r := recover(); r != nil {
				in = &Independence{static: "kernel not analyzable"}
			}
		}()
		res, err := runAnalysis(k, true)
		if err != nil {
			return &Independence{static: "kernel not analyzable"}, nil
		}
		return &res.indep, nil
	})
	return in
}

// OrderSensitive reports why the launch described by lf must execute its
// work-groups in order on one goroutine, or "" when the kernel is
// work-group independent under that launch.
func (in *Independence) OrderSensitive(lf LaunchFacts) string { return in.orderSensitive(lf, false) }

// ItemOrderSensitive is OrderSensitive at the work-item level: it reports
// why the work-items of one group of the launch described by lf must run
// one after another, or "" when, besides the work-groups, the items of a
// group are independent too — every stored index is distinct across all
// work-items of the launch and every other access to a stored buffer uses
// the store's index. It implies OrderSensitive(lf) == "".
func (in *Independence) ItemOrderSensitive(lf LaunchFacts) string { return in.orderSensitive(lf, true) }

func (in *Independence) orderSensitive(lf LaunchFacts, items bool) string {
	if in.static != "" {
		return in.static
	}
	// The stored buffers, by binding, each with the index of its first
	// store (a handful at most, so a slice in first-store order does).
	type storedBuf struct {
		id    int
		name  string // parameter of the first store, for the reasons
		store poly
	}
	var stored []storedBuf
	find := func(slot int) *storedBuf {
		id := lf.bufferOf(slot)
		for i := range stored {
			if stored[i].id == id {
				return &stored[i]
			}
		}
		return nil
	}
	for _, ac := range in.accesses {
		if !ac.write || find(ac.slot) != nil {
			continue
		}
		if ac.idx == nil {
			return fmt.Sprintf("%s is stored at a data-dependent or non-affine index", in.params[ac.slot])
		}
		stored = append(stored, storedBuf{lf.bufferOf(ac.slot), in.params[ac.slot], ac.idx})
	}
	for _, ac := range in.accesses {
		b := find(ac.slot)
		if b == nil || ac.idx.equal(b.store) {
			continue
		}
		if ac.write {
			return fmt.Sprintf("%s is stored at two different indices", b.name)
		}
		return fmt.Sprintf("%s is loaded at an index other than the one it is stored at", b.name)
	}
	for _, b := range stored {
		if r := in.distinctAcrossGroups(b.store, lf, items); r != "" {
			return fmt.Sprintf("store to %s: %s", b.name, r)
		}
	}
	return ""
}

// bufferOf returns the identity of the buffer bound to slot; unbound or
// out-of-range slots get a private negative id so they alias nothing.
func (lf LaunchFacts) bufferOf(slot int) int {
	if slot < len(lf.BufferID) && lf.BufferID[slot] != 0 {
		return lf.BufferID[slot]
	}
	return -1 - slot
}

// value substitutes the launch constants (scalar arguments, local sizes)
// into p. It returns the constant term and the coefficient of every
// remaining variable; ok is false when a remaining monomial is not
// linear or a needed scalar is missing.
func (lf LaunchFacts) value(p poly) (c int64, coefs map[pvar]int64, ok bool) {
	coefs = map[pvar]int64{}
	for _, t := range *p {
		k := t.k
		var free *pvar
		for i := range t.vars {
			v := t.vars[i]
			var x int64
			switch v.kind {
			case varParam:
				if v.n >= len(lf.Scalars) {
					return 0, nil, false
				}
				x = lf.Scalars[v.n]
			case varLocalSize:
				x = int64(lf.Local[v.n])
			default:
				if free != nil {
					return 0, nil, false
				}
				free = &t.vars[i]
				continue
			}
			if !coefOK(x) {
				return 0, nil, false
			}
			if k *= x; !coefOK(k) {
				return 0, nil, false
			}
		}
		if free == nil {
			c += k
		} else {
			coefs[*free] += k
		}
	}
	for _, k := range coefs {
		if !coefOK(k) {
			return 0, nil, false
		}
	}
	return c, coefs, coefOK(c)
}

// distinctAcrossGroups proves that index p maps work-items of different
// work-groups to different elements. It evaluates p to an affine function
// of the group coordinates, the local ids and the loop counters, each
// with a known number of values, and checks the mixed-radix condition:
// sorted by magnitude, every coefficient exceeds the total reach of all
// smaller ones. That makes the map injective over the whole box; local
// ids and loop counters the index does not depend on are free to
// collide, because those collisions stay inside one work-group. With
// items set a local id is not: an index that does not move with a local
// axis of more than one item maps two items of one group to one element.
func (in *Independence) distinctAcrossGroups(p poly, lf LaunchFacts, items bool) string {
	_, coefs, ok := lf.value(p)
	if !ok {
		return "index is not affine in the work-item ids"
	}
	type axis struct {
		coef  int64 // index distance between consecutive values
		count int64 // number of values
	}
	var axes []axis
	for d := 0; d < 3; d++ {
		cg := coefs[pvar{varGlobalID, d}]
		// get_global_id = offset + group*local + lid.
		group := cg * int64(lf.Local[d])
		local := cg + coefs[pvar{varLocalID, d}]
		if lf.NumGroups[d] > 1 {
			if group == 0 {
				return "index does not vary across work-groups"
			}
			if !coefOK(group) {
				return "index range exceeds 32 bits"
			}
			axes = append(axes, axis{group, int64(lf.NumGroups[d])})
		}
		if lf.Local[d] > 1 {
			if local == 0 {
				if items {
					return "index does not vary across the work-items of a group"
				}
				continue
			}
			axes = append(axes, axis{local, int64(lf.Local[d])})
		}
	}
	for id, r := range in.loops {
		k := coefs[pvar{varLoop, id}]
		if k == 0 {
			continue
		}
		if r.step == 0 {
			return "index depends on a loop with unknown bounds"
		}
		lo, lc, ok1 := lf.value(r.lo)
		hi, hc, ok2 := lf.value(r.hi)
		if !ok1 || !ok2 || len(lc) != 0 || len(hc) != 0 {
			return "index depends on a loop with non-constant bounds"
		}
		if n := (hi - lo + r.step - 1) / r.step; n > 1 {
			axes = append(axes, axis{k * r.step, n})
		}
	}
	for i := range axes {
		if axes[i].coef < 0 {
			axes[i].coef = -axes[i].coef
		}
	}
	sort.Slice(axes, func(i, j int) bool { return axes[i].coef < axes[j].coef })
	var reach int64 // largest index distance the smaller axes can span
	for _, ax := range axes {
		if ax.coef <= reach {
			return "index is not provably distinct across work-items"
		}
		reach += ax.coef * (ax.count - 1)
		if !coefOK(reach) {
			return "index range exceeds 32 bits"
		}
	}
	return ""
}
