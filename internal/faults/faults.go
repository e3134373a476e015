// Package faults is Dopia's robustness toolkit: a typed error taxonomy
// for every stage of the interposed pipeline, a panic-containment
// boundary (Recover) installed at the public entry points of the
// front-end/analysis/transform/interpreter packages, fallback accounting
// (FallbackStats), and a deterministic, seedable fault-injection registry
// used by the stage×fault matrix tests.
//
// Dopia is deployed as a transparent interposition library: a production
// OpenCL application must never fail or hang because Dopia's analysis,
// transform, or model stumbled. The taxonomy in this package lets the
// fallback ladder in internal/core classify any failure — including
// contained panics — by pipeline stage and degrade gracefully instead of
// surfacing an error for a kernel the plain runtime can run.
package faults

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// Stage identifies the pipeline stage where a failure originated. Stages
// double as fault-injection point names: faults.Inject(string(StageTransform), ...)
// arms the transform stage.
type Stage string

// Pipeline stages of the interposed execution path.
const (
	// StageParse is the OpenCL C front-end (lexing, parsing, checking) —
	// including the re-compilation of generated malleable source.
	StageParse Stage = "parse"
	// StageAnalysis is static feature extraction (internal/analysis).
	StageAnalysis Stage = "analysis"
	// StageTransform is malleable code generation (internal/transform).
	StageTransform Stage = "transform"
	// StageCompile is interpreter kernel compilation (internal/interp).
	StageCompile Stage = "compile"
	// StageModelLoad is model deserialization (internal/ml).
	StageModelLoad Stage = "model.load"
	// StageModelPredict is online model inference during DoP selection.
	StageModelPredict Stage = "model.predict"
	// StageExec is the managed co-execution itself (internal/sched).
	StageExec Stage = "exec"
	// StageUnknown marks failures that could not be attributed.
	StageUnknown Stage = "unknown"
)

// The error taxonomy. Every failure crossing a package boundary of the
// interposed pipeline is wrapped (directly or transitively) around one of
// these sentinels so callers can classify with errors.Is.
var (
	// ErrUnsupportedKernel: the kernel uses a construct a pipeline stage
	// cannot handle (e.g. barriers in the malleable rewrite).
	ErrUnsupportedKernel = errors.New("unsupported kernel")
	// ErrTransformFailed: malleable code generation failed.
	ErrTransformFailed = errors.New("transform failed")
	// ErrAnalysisFailed: static feature extraction failed.
	ErrAnalysisFailed = errors.New("analysis failed")
	// ErrModelInvalid: a model failed to load, failed validation, or
	// produced a non-finite / out-of-range prediction.
	ErrModelInvalid = errors.New("model invalid")
	// ErrExecTimeout: a managed execution exceeded its watchdog deadline.
	ErrExecTimeout = errors.New("execution timed out")
	// ErrExecFailed: a managed execution failed for another reason.
	ErrExecFailed = errors.New("execution failed")
	// ErrPanic: a panic was contained at a package boundary.
	ErrPanic = errors.New("panic contained")
	// ErrInjected: the failure was forced by the injection registry.
	ErrInjected = errors.New("injected fault")
)

// Error is a stage-classified error. It wraps the underlying cause so
// both errors.Is(err, sentinel) and StageOf(err) work through arbitrary
// fmt.Errorf("...: %w", ...) chains above it.
type Error struct {
	Stage Stage
	Err   error
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("dopia[%s]: %v", e.Stage, e.Err) }

// Unwrap exposes the cause.
func (e *Error) Unwrap() error { return e.Err }

// Wrap classifies err with a stage. A nil err returns nil. If err is
// already stage-classified (at any depth), the existing classification is
// kept — the innermost stage is the point of origin.
func Wrap(stage Stage, err error) error {
	if err == nil {
		return nil
	}
	if StageOf(err) != StageUnknown {
		return err
	}
	return &Error{Stage: stage, Err: err}
}

// StageOf extracts the stage classification of an error, or StageUnknown
// when the error carries none.
func StageOf(err error) Stage {
	var fe *Error
	if errors.As(err, &fe) {
		return fe.Stage
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		return pe.Stage
	}
	return StageUnknown
}

// PanicError is a contained panic, classified by stage. It wraps ErrPanic
// and records the recovered value and the stack at the recovery point.
type PanicError struct {
	Stage Stage
	Value any
	Stack []byte
}

// Error implements the error interface.
func (p *PanicError) Error() string {
	return fmt.Sprintf("dopia[%s]: %v: %v", p.Stage, ErrPanic, p.Value)
}

// Unwrap classifies PanicError as ErrPanic.
func (p *PanicError) Unwrap() error { return ErrPanic }

// Recover is the panic-containment boundary. Deferred at every public
// entry point of the pipeline packages, it converts a panic into a
// stage-classified *PanicError assigned to *errp (only when the panic
// would otherwise escape; an existing error is preserved if no panic is
// in flight). Usage:
//
//	func Analyze(k *clc.Kernel) (res *Result, err error) {
//	    defer faults.Recover(faults.StageAnalysis, &err)
//	    ...
//	}
func Recover(stage Stage, errp *error) {
	if r := recover(); r != nil {
		*errp = &PanicError{Stage: stage, Value: r, Stack: debug.Stack()}
	}
}

// IsTimeout reports whether err is classified as a watchdog timeout.
func IsTimeout(err error) bool { return errors.Is(err, ErrExecTimeout) }

// IsPanic reports whether err is a contained panic.
func IsPanic(err error) bool { return errors.Is(err, ErrPanic) }

// IsInjected reports whether err was forced by the injection registry.
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }
