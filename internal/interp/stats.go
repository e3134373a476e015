package interp

import (
	"dopia/internal/access"
)

// RunStats accumulates execution statistics across the work-groups run by
// one Exec. All counters are totals over executed operations.
type RunStats struct {
	AluInt     int64 // executed integer arithmetic operations
	AluFloat   int64 // executed floating-point arithmetic operations
	Loads      int64
	Stores     int64
	LoadBytes  int64
	StoreBytes int64
	GroupsRun  int64
	ItemsRun   int64

	// EngineUsed is the execution engine that ran (stamped at Launch):
	// launch metadata, not a merged counter.
	EngineUsed Engine

	// ShardPinReason is non-empty when the launch is not work-group
	// independent, so its work-groups run in order on one goroutine at
	// every Parallelism (global atomics, a store at a data-dependent or
	// non-distinct index, a load of a stored buffer at another index).
	// Launch metadata, like EngineUsed; independent of engine
	// and shard count.
	ShardPinReason string

	sites []siteState
}

// siteState tracks the dynamic behaviour of one static memory site.
type siteState struct {
	count    int64
	bytes    int64
	write    bool
	argIndex int // kernel parameter index of the accessed buffer; -1 = local

	// Iteration pattern: deltas between consecutive accesses by the same
	// work-item.
	iter      access.Classifier
	prevAddr  int64
	prevWI    int64
	prevValid bool

	// Lane pattern: deltas between the first access of consecutive
	// work-items.
	lane       access.Classifier
	firstAddr  int64
	firstWI    int64
	haveFirst  bool
	seenThisWI int64 // the WI whose first access has been recorded
	elemSize   int64

	// First access observed in this statistics window. The parallel
	// engine uses it to insert, at merge time, exactly the boundary
	// observations the sequential stream would have produced between
	// the last access of one shard and the first access of the next.
	firstTouchAddr int64
	firstTouchWI   int64
	haveFirstTouch bool
}

// mergeFrom absorbs the statistics of the immediately following shard
// into dst. Shards cover contiguous, disjoint spans of work-groups, so a
// work-item never spans two shards; under that invariant the merged state
// is bit-identical to a sequential walk of the concatenated access
// stream. Must be called in shard order.
func (dst *siteState) mergeFrom(src *siteState) {
	if src.count == 0 {
		return
	}
	if dst.count == 0 {
		*dst = *src
		return
	}
	es := src.elemSize
	// Boundary observations between dst's last access and src's first
	// access (which is always the first access of src's first-touching
	// work-item). In the sequential stream, a same-WI boundary would be
	// an iteration delta; a new WI at firstWI+1 would be a lane delta.
	if dst.prevValid && dst.prevWI == src.firstTouchWI {
		dst.iter.Observe(divES(src.firstTouchAddr-dst.prevAddr, es))
	} else if dst.haveFirst && src.firstTouchWI == dst.firstWI+1 {
		dst.lane.Observe(divES(src.firstTouchAddr-dst.firstAddr, es))
	}
	dst.count += src.count
	dst.bytes += src.bytes
	dst.elemSize = es
	dst.iter.Merge(&src.iter)
	dst.lane.Merge(&src.lane)
	// The chain state continues from src's end, exactly as a sequential
	// walk would leave it.
	dst.prevAddr, dst.prevWI, dst.prevValid = src.prevAddr, src.prevWI, src.prevValid
	dst.firstAddr, dst.firstWI, dst.haveFirst = src.firstAddr, src.firstWI, src.haveFirst
	dst.seenThisWI = src.seenThisWI
}

// SiteProfile is the summarized behaviour of one memory site.
type SiteProfile struct {
	Site     int
	ArgIndex int // parameter index of the buffer; -1 for __local
	Write    bool
	Count    int64
	Bytes    int64

	// IterPattern is the loop-iteration address pattern (the paper's
	// Table 1 classification); IterStride is in elements when Strided.
	IterPattern access.Pattern
	IterStride  int64

	// LanePattern is the across-work-items pattern that governs GPU
	// memory coalescing; LaneStride is in elements when Strided.
	LanePattern access.Pattern
	LaneStride  int64
}

// Profile is the summarized result of a (possibly sampled) kernel
// execution: total operation counts plus per-site access behaviour.
// Divide by ItemsRun for per-work-item averages.
type Profile struct {
	AluInt     int64
	AluFloat   int64
	Loads      int64
	Stores     int64
	LoadBytes  int64
	StoreBytes int64
	GroupsRun  int64
	ItemsRun   int64
	Sites      []SiteProfile

	// Engine is the execution engine the profiled launches ran on.
	Engine Engine

	// ShardPinReason records why the profiled launches could not be
	// sharded (see RunStats.ShardPinReason); empty for work-group
	// independent launches.
	ShardPinReason string
}

// Scale returns a copy of the profile with all counters multiplied by f,
// used to extrapolate sampled runs to the full NDRange.
func (p *Profile) Scale(f float64) *Profile {
	s := *p
	s.AluInt = int64(float64(p.AluInt) * f)
	s.AluFloat = int64(float64(p.AluFloat) * f)
	s.Loads = int64(float64(p.Loads) * f)
	s.Stores = int64(float64(p.Stores) * f)
	s.LoadBytes = int64(float64(p.LoadBytes) * f)
	s.StoreBytes = int64(float64(p.StoreBytes) * f)
	s.GroupsRun = int64(float64(p.GroupsRun) * f)
	s.ItemsRun = int64(float64(p.ItemsRun) * f)
	s.Sites = append([]SiteProfile(nil), p.Sites...)
	for i := range s.Sites {
		s.Sites[i].Count = int64(float64(s.Sites[i].Count) * f)
		s.Sites[i].Bytes = int64(float64(s.Sites[i].Bytes) * f)
	}
	return &s
}

// divES divides a byte delta between two addresses of one site by the
// site's element size. Both addresses lie in the same buffer (bases are
// bufferAlign-aligned), so the delta is an exact multiple of the element
// size (4 or 8) and the division reduces to an arithmetic shift — which
// is exact for negative multiples too.
func divES(delta, es int64) int64 {
	switch es {
	case 4:
		return delta >> 2
	case 8:
		return delta >> 3
	}
	return delta / es
}

// recordAccess updates a site's dynamic pattern state. wi is the linear
// global index of the executing work-item, addr the flat byte address.
// The fast path covers repeat accesses by the current work-item (the
// steady state of every kernel loop) and is small enough for the
// compiler to inline into the bytecode engine's dispatch loop; every
// other case (first access, work-item change) takes recordAccessSlow.
func (st *siteState) recordAccess(addr, elemSize, wi int64) {
	if st.prevValid && st.prevWI == wi && st.seenThisWI == wi {
		// prevValid implies haveFirst, and seenThisWI == wi means this
		// WI's first access is already recorded: only the iteration
		// delta and the running totals change.
		st.count++
		st.bytes += elemSize
		st.iter.Observe(divES(addr-st.prevAddr, elemSize))
		st.prevAddr = addr
		return
	}
	st.recordAccessSlow(addr, elemSize, wi)
}

func (st *siteState) recordAccessSlow(addr, elemSize, wi int64) {
	st.count++
	st.bytes += elemSize
	st.elemSize = elemSize
	if st.prevValid && st.prevWI == wi {
		st.iter.Observe(divES(addr-st.prevAddr, elemSize))
	}
	st.prevAddr = addr
	st.prevWI = wi
	st.prevValid = true

	// First access of this WI at this site?
	if st.seenThisWI != wi || !st.haveFirst {
		if st.haveFirst {
			if wi == st.firstWI+1 {
				st.lane.Observe(divES(addr-st.firstAddr, elemSize))
			}
		} else {
			st.firstTouchAddr, st.firstTouchWI = addr, wi
			st.haveFirstTouch = true
		}
		st.firstAddr = addr
		st.firstWI = wi
		st.haveFirst = true
		st.seenThisWI = wi
	}
}

// mergeFrom absorbs the statistics of the shard that immediately follows
// this one in work-group order. Merging shard statistics in shard order
// reproduces the sequential run's counters and access patterns exactly.
func (s *RunStats) mergeFrom(o *RunStats) {
	s.AluInt += o.AluInt
	s.AluFloat += o.AluFloat
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.LoadBytes += o.LoadBytes
	s.StoreBytes += o.StoreBytes
	s.GroupsRun += o.GroupsRun
	s.ItemsRun += o.ItemsRun
	for i := range s.sites {
		s.sites[i].mergeFrom(&o.sites[i])
	}
}

// Summarize produces the profile for the statistics gathered so far.
func (s *RunStats) Summarize() *Profile {
	p := &Profile{
		AluInt:         s.AluInt,
		AluFloat:       s.AluFloat,
		Loads:          s.Loads,
		Stores:         s.Stores,
		LoadBytes:      s.LoadBytes,
		StoreBytes:     s.StoreBytes,
		GroupsRun:      s.GroupsRun,
		ItemsRun:       s.ItemsRun,
		Engine:         s.EngineUsed,
		ShardPinReason: s.ShardPinReason,
	}
	for i := range s.sites {
		st := &s.sites[i]
		if st.count == 0 {
			continue
		}
		sp := SiteProfile{
			Site:     i,
			ArgIndex: st.argIndex,
			Write:    st.write,
			Count:    st.count,
			Bytes:    st.bytes,
		}
		sp.IterPattern, sp.IterStride = st.iter.Pattern()
		sp.LanePattern, sp.LaneStride = st.lane.Pattern()
		if sp.IterPattern == access.Unknown {
			// A site executed once per work-item has no iteration deltas;
			// the work-item stream is the implicit loop, so the lane
			// pattern is the iteration pattern (the static analyzer uses
			// the same convention).
			sp.IterPattern, sp.IterStride = sp.LanePattern, sp.LaneStride
		}
		p.Sites = append(p.Sites, sp)
	}
	return p
}
