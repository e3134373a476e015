package sim

import (
	"fmt"

	"dopia/internal/access"
	"dopia/internal/analysis"
	"dopia/internal/interp"
)

// SiteModel is the simulator's view of one memory operation site.
type SiteModel struct {
	Site     int
	Write    bool
	ElemSize int64

	// AccPerWG is the average number of executions per work-group.
	AccPerWG float64

	Iter       access.Pattern
	IterStride int64
	Lane       access.Pattern
	LaneStride int64

	// BufBytes is the size of the underlying buffer.
	BufBytes float64
	// DistinctPerWI is the number of distinct bytes one work-item touches
	// through this site.
	DistinctPerWI float64
	// SharedAcrossWI marks sites whose addresses do not depend on the
	// work-item (lane-constant): all work-items re-read the same data, so
	// the footprint is shared and reusable.
	SharedAcrossWI bool
}

// KernelModel is the per-kernel statistics bundle the simulator charges
// time from. It is built by combining the functional interpreter's
// (possibly sampled) execution profile with the static analysis and the
// launch geometry.
type KernelModel struct {
	Name    string
	WorkDim int
	NumWGs  int
	WGSize  int
	// GroupsPerRow is the number of work-groups in the first dimension;
	// 2-D kernels are scheduled in whole rows, so a GPU chunk is a
	// contiguous block of rows.
	GroupsPerRow int

	AluIntPerWG   float64
	AluFloatPerWG float64

	Sites []SiteModel
}

// AluIntPerWI returns integer ops per work-item.
func (km *KernelModel) AluIntPerWI() float64 {
	if km.WGSize == 0 {
		return 0
	}
	return km.AluIntPerWG / float64(km.WGSize)
}

// AluFloatPerWI returns float ops per work-item.
func (km *KernelModel) AluFloatPerWI() float64 {
	if km.WGSize == 0 {
		return 0
	}
	return km.AluFloatPerWG / float64(km.WGSize)
}

// BuildModel combines a dynamic execution profile, the static analysis,
// and the launch geometry into a KernelModel. bufBytes maps kernel
// parameter indices to the byte size of the bound buffer. The profile may
// come from a sampled run; per-work-group averages normalize for that.
func BuildModel(name string, prof *interp.Profile, res *analysis.Result,
	bufBytes map[int]int64, nd interp.NDRange) (*KernelModel, error) {
	if prof.GroupsRun == 0 {
		return nil, fmt.Errorf("sim: profile has no executed work-groups")
	}
	groups := float64(prof.GroupsRun)
	items := float64(prof.ItemsRun)
	km := &KernelModel{
		Name:          name,
		WorkDim:       nd.Dims,
		NumWGs:        nd.TotalGroups(),
		WGSize:        nd.GroupSize(),
		GroupsPerRow:  1,
		AluIntPerWG:   float64(prof.AluInt) / groups,
		AluFloatPerWG: float64(prof.AluFloat) / groups,
	}
	if nd.Dims >= 2 {
		km.GroupsPerRow = nd.NumGroups()[0]
	}
	for _, sp := range prof.Sites {
		if sp.ArgIndex < 0 {
			continue // on-chip local memory: no DRAM model
		}
		sm := SiteModel{
			Site:     sp.Site,
			Write:    sp.Write,
			AccPerWG: float64(sp.Count) / groups,
		}
		if sp.Count > 0 {
			sm.ElemSize = sp.Bytes / sp.Count
		}
		if sm.ElemSize == 0 {
			sm.ElemSize = 4
		}
		sm.BufBytes = float64(bufBytes[sp.ArgIndex])

		// Prefer the dynamic classification; fall back to the static one
		// when the dynamic stream was too short to classify.
		sm.Iter, sm.IterStride = sp.IterPattern, sp.IterStride
		sm.Lane, sm.LaneStride = sp.LanePattern, sp.LaneStride
		if res != nil {
			if sc := res.Site(sp.Site); sc != nil {
				if sm.Iter == access.Unknown {
					sm.Iter, sm.IterStride = sc.Iter, sc.IterStride
				}
				if sm.Lane == access.Unknown {
					sm.Lane, sm.LaneStride = sc.Lane, sc.LaneStride
				}
			}
		}
		if sm.Iter == access.Unknown {
			sm.Iter = access.Random
		}
		if sm.Lane == access.Unknown {
			sm.Lane = access.Random
		}

		accPerWI := float64(sp.Count) / items
		es := float64(sm.ElemSize)
		switch sm.Iter {
		case access.Constant:
			sm.DistinctPerWI = es
		case access.Random:
			sm.DistinctPerWI = accPerWI * es
			if sm.BufBytes > 0 && sm.DistinctPerWI > sm.BufBytes {
				sm.DistinctPerWI = sm.BufBytes
			}
		default: // continuous / strided: every access a fresh element
			sm.DistinctPerWI = accPerWI * es
		}
		sm.SharedAcrossWI = sm.Lane == access.Constant
		km.Sites = append(km.Sites, sm)
	}
	return km, nil
}
