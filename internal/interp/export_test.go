package interp

// AffineLoops is the number of fused loops the closed form has served on
// ex, summed over its sequential state and its shard workers. Both ways
// of running a fused loop are bit-identical in every result, so this is
// the only place a test can see which one ran.
func AffineLoops(ex *Exec) int64 {
	var n int64
	if ex.seq != nil {
		n += ex.seq.affineLoops
	}
	for _, w := range ex.workers {
		n += w.affineLoops
	}
	return n
}

// FusedHeads counts the fused loop heads of ex's lowered program; it is 0
// when ex runs on the closure engine.
func FusedHeads(ex *Exec) int {
	n := 0
	if ex.prog != nil {
		for _, code := range ex.prog.segments {
			for i := range code {
				if code[i].op == opFMALoopF32 {
					n++
				}
			}
		}
	}
	return n
}
