package interp

import "fmt"

// NDRange describes an OpenCL index space: up to three dimensions of
// global work-items partitioned into work-groups. Global sizes must be
// multiples of the corresponding local sizes (the common OpenCL 1.2
// requirement, and what every evaluated workload uses).
type NDRange struct {
	Dims   int
	Global [3]int
	Local  [3]int
	Offset [3]int
}

// ND1 builds a one-dimensional NDRange.
func ND1(global, local int) NDRange {
	return NDRange{Dims: 1, Global: [3]int{global, 1, 1}, Local: [3]int{local, 1, 1}}
}

// ND2 builds a two-dimensional NDRange.
func ND2(gx, gy, lx, ly int) NDRange {
	return NDRange{Dims: 2, Global: [3]int{gx, gy, 1}, Local: [3]int{lx, ly, 1}}
}

// Validate checks the range for consistency.
func (nd NDRange) Validate() error {
	if nd.Dims < 1 || nd.Dims > 3 {
		return fmt.Errorf("ndrange: dims must be 1..3, got %d", nd.Dims)
	}
	for d := 0; d < nd.Dims; d++ {
		if nd.Global[d] <= 0 || nd.Local[d] <= 0 {
			return fmt.Errorf("ndrange: dimension %d has non-positive size", d)
		}
		if nd.Global[d]%nd.Local[d] != 0 {
			return fmt.Errorf("ndrange: global size %d not divisible by local size %d in dim %d",
				nd.Global[d], nd.Local[d], d)
		}
	}
	for d := nd.Dims; d < 3; d++ {
		if nd.Global[d] > 1 || nd.Local[d] > 1 {
			return fmt.Errorf("ndrange: size set beyond declared dims")
		}
	}
	return nil
}

// Normalized returns the range with unused dimensions set to 1: the form
// a launch runs under, so two ranges that differ only in how they spell
// an unused dimension launch identically.
func (nd NDRange) Normalized() NDRange {
	for d := 0; d < 3; d++ {
		if nd.Global[d] == 0 {
			nd.Global[d] = 1
		}
		if nd.Local[d] == 0 {
			nd.Local[d] = 1
		}
	}
	return nd
}

// NumGroups returns the per-dimension work-group counts.
func (nd NDRange) NumGroups() [3]int {
	nd = nd.Normalized()
	return [3]int{
		nd.Global[0] / nd.Local[0],
		nd.Global[1] / nd.Local[1],
		nd.Global[2] / nd.Local[2],
	}
}

// TotalGroups returns the total number of work-groups.
func (nd NDRange) TotalGroups() int {
	g := nd.NumGroups()
	return g[0] * g[1] * g[2]
}

// GroupSize returns the number of work-items per work-group.
func (nd NDRange) GroupSize() int {
	nd = nd.Normalized()
	return nd.Local[0] * nd.Local[1] * nd.Local[2]
}

// TotalItems returns the total number of work-items.
func (nd NDRange) TotalItems() int {
	nd = nd.Normalized()
	return nd.Global[0] * nd.Global[1] * nd.Global[2]
}

// GroupCoords converts a linear work-group id (dimension 0 fastest) to
// per-dimension group coordinates.
func (nd NDRange) GroupCoords(lin int) [3]int {
	g := nd.NumGroups()
	return [3]int{lin % g[0], (lin / g[0]) % g[1], lin / (g[0] * g[1])}
}
