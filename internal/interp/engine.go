package interp

// Engine selects which execution engine an Exec uses to run compiled
// kernels. Both engines are bit-identical in every observable: output
// buffers, statistics, site profiles, and fault behaviour.
// The bytecode engine is the fast path; the closure engine is the
// reference implementation and the fallback for anything the lowerer
// cannot handle.
type Engine int8

// Engine values.
const (
	// EngineAuto, the zero value, means the bytecode engine.
	EngineAuto Engine = iota
	// EngineBytecode runs kernels on the register-based bytecode VM,
	// falling back per kernel to closures when lowering fails (the
	// fallback reason is recorded in RunStats/Profile).
	EngineBytecode
	// EngineClosures runs kernels on the tree-of-closures interpreter.
	EngineClosures
)

func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineBytecode:
		return "bytecode"
	case EngineClosures:
		return "closures"
	}
	return "engine(?)"
}
