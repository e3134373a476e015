package interp

// Engine selects which execution engine an Exec builds and runs at
// Launch. Both engines are bit-identical in every observable: output
// buffers, statistics, site profiles, and fault behaviour.
// The bytecode engine is the fast path and lowers every kernel the
// checker accepts; the closure engine is the reference implementation,
// run only when a caller selects it.
type Engine int8

// Engine values.
const (
	// EngineBytecode, the zero value, runs kernels on the register-based
	// bytecode VM.
	EngineBytecode Engine = iota
	// EngineClosures runs kernels on the tree-of-closures interpreter.
	EngineClosures
)

func (e Engine) String() string {
	switch e {
	case EngineBytecode:
		return "bytecode"
	case EngineClosures:
		return "closures"
	}
	return "engine(?)"
}
