package transform

import "dopia/internal/clc"

// Generated reports whether k's malleable form for workDim is in the
// kernel's memo. A miss stores an empty entry, so probe a kernel once.
func Generated(k *clc.Kernel, workDim int) bool {
	generated := true
	clc.Memo(k, malleableKey{workDim}, func() (*GPUResult, error) {
		generated = false
		return nil, nil
	})
	return generated
}
