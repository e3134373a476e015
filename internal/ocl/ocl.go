// Package ocl is an OpenCL-1.2-style runtime over the integrated-
// architecture simulator: platforms expose a CPU and a GPU device,
// programs are compiled from OpenCL C source, kernels take buffer and
// scalar arguments, and command queues execute ND-range launches on their
// device while charging simulated time. It reproduces the API boundary
// Dopia interposes on in the paper (clCreateProgramWithSource /
// clEnqueueNDRangeKernel): install an Interposer (internal/core provides
// one) to let Dopia take over program analysis and kernel execution.
package ocl

import (
	"context"
	"fmt"

	"dopia/internal/clc"
	"dopia/internal/faults"
	"dopia/internal/interp"
	"dopia/internal/sched"
	"dopia/internal/sim"
)

// DeviceType distinguishes the two devices of an integrated processor.
type DeviceType int

// Device types.
const (
	DeviceCPU DeviceType = iota
	DeviceGPU
)

func (t DeviceType) String() string {
	if t == DeviceGPU {
		return "GPU"
	}
	return "CPU"
}

// Platform models one integrated processor.
type Platform struct {
	machine *sim.Machine
	devices []*Device
}

// NewPlatform creates a platform over a machine model.
func NewPlatform(m *sim.Machine) *Platform {
	p := &Platform{machine: m}
	p.devices = []*Device{
		{platform: p, typ: DeviceCPU},
		{platform: p, typ: DeviceGPU},
	}
	return p
}

// Name returns the platform name.
func (p *Platform) Name() string { return "dopia-sim: " + p.machine.Name }

// Machine exposes the underlying machine model.
func (p *Platform) Machine() *sim.Machine { return p.machine }

// Devices lists the platform's devices (CPU first, then GPU).
func (p *Platform) Devices() []*Device { return p.devices }

// Device returns the device of the given type.
func (p *Platform) Device(t DeviceType) *Device { return p.devices[t] }

// Device is one compute device.
type Device struct {
	platform *Platform
	typ      DeviceType
}

// Type returns the device type.
func (d *Device) Type() DeviceType { return d.typ }

// Name returns a descriptive device name.
func (d *Device) Name() string {
	m := d.platform.machine
	if d.typ == DeviceGPU {
		return fmt.Sprintf("%s GPU (%d CUs x %d PEs)", m.Name, m.GPU.CUs, m.GPU.PEsPerCU)
	}
	return fmt.Sprintf("%s CPU (%d cores)", m.Name, m.CPU.Cores)
}

// ComputeUnits returns the OpenCL compute-unit count of the device.
func (d *Device) ComputeUnits() int {
	m := d.platform.machine
	if d.typ == DeviceGPU {
		return m.GPU.CUs
	}
	return m.CPU.Cores
}

// Interposer intercepts the two API calls Dopia hooks.
type Interposer interface {
	// ProgramBuilt is invoked after a program compiles successfully.
	ProgramBuilt(prog *Program) error
	// Enqueue may take over a kernel launch. Return handled=false to let
	// the plain runtime execute it on the queue's device.
	Enqueue(q *CommandQueue, k *Kernel, nd interp.NDRange) (handled bool, simTime float64, err error)
}

// Context owns buffers and programs for a platform.
type Context struct {
	platform   *Platform
	interposer Interposer
	space      *interp.AddressSpace
}

// CreateContext creates a context covering both devices.
func (p *Platform) CreateContext() *Context {
	return &Context{platform: p, space: &interp.AddressSpace{}}
}

// SetInterposer installs (or clears, with nil) the API interposer.
func (c *Context) SetInterposer(i Interposer) { c.interposer = i }

// Platform returns the owning platform.
func (c *Context) Platform() *Platform { return c.platform }

// Buffer is a device-visible memory object.
type Buffer struct {
	ctx *Context
	buf *interp.Buffer
}

// CreateFloatBuffer allocates an n-element float32 buffer.
func (c *Context) CreateFloatBuffer(n int) *Buffer {
	b := interp.NewFloatBuffer(n)
	c.space.Place(b)
	return &Buffer{ctx: c, buf: b}
}

// CreateIntBuffer allocates an n-element int32 buffer.
func (c *Context) CreateIntBuffer(n int) *Buffer {
	b := interp.NewIntBuffer(n)
	c.space.Place(b)
	return &Buffer{ctx: c, buf: b}
}

// WrapBuffer adopts an existing interpreter buffer into the context.
func (c *Context) WrapBuffer(b *interp.Buffer) *Buffer {
	c.space.Place(b)
	return &Buffer{ctx: c, buf: b}
}

// Float32 returns the buffer's float data (zero-copy, like a mapped
// buffer on an integrated architecture).
func (b *Buffer) Float32() []float32 { return b.buf.F32 }

// Int32 returns the buffer's int data.
func (b *Buffer) Int32() []int32 { return b.buf.I32 }

// Len returns the element count.
func (b *Buffer) Len() int { return b.buf.Len() }

// Raw exposes the underlying interpreter buffer.
func (b *Buffer) Raw() *interp.Buffer { return b.buf }

// Program is an OpenCL program: source plus its compiled form.
type Program struct {
	ctx    *Context
	Source string
	prog   *clc.Program
}

// CreateProgramWithSource registers program source with the context
// (clCreateProgramWithSource). Compilation happens in Build.
func (c *Context) CreateProgramWithSource(src string) *Program {
	return &Program{ctx: c, Source: src}
}

// Build compiles the program and notifies the interposer — the point
// where Dopia performs static analysis and code transformation.
//
// Build fails open with respect to the interposer: if clc compilation
// succeeds, a panicking or failing interposer cannot fail the build.
// Interposer failures surface later as per-launch fallbacks (Dopia's
// interposer records them in FallbackStats), never as build errors.
func (p *Program) Build() error {
	prog, err := clc.CompileShared(p.Source)
	if err != nil {
		return fmt.Errorf("ocl: build failed: %w", err)
	}
	p.prog = prog
	if ip := p.ctx.interposer; ip != nil {
		func() {
			var ierr error
			defer faults.Recover(faults.StageAnalysis, &ierr)
			ierr = ip.ProgramBuilt(p)
			_ = ierr // fail-open: the plain runtime can still run this program
		}()
	}
	return nil
}

// ProgCacheSnapshot is the program cache's view (clc.CompileShared).
type ProgCacheSnapshot = clc.ProgCacheSnapshot

// ProgCacheStats reads the program cache's counters.
func ProgCacheStats() ProgCacheSnapshot { return clc.ProgCacheStats() }

// Compiled returns the checked program (nil before Build).
func (p *Program) Compiled() *clc.Program { return p.prog }

// CreateKernel returns a kernel object for a kernel of the program.
func (p *Program) CreateKernel(name string) (*Kernel, error) {
	if p.prog == nil {
		return nil, fmt.Errorf("ocl: program not built")
	}
	k := p.prog.Kernel(name)
	if k == nil {
		return nil, fmt.Errorf("ocl: kernel %q not found", name)
	}
	return &Kernel{
		prog:   p,
		kernel: k,
		args:   make([]interp.Arg, len(k.Params)),
		isSet:  make([]bool, len(k.Params)),
	}, nil
}

// Kernel is a kernel object with bound arguments.
type Kernel struct {
	prog   *Program
	kernel *clc.Kernel
	args   []interp.Arg
	isSet  []bool
}

// Name returns the kernel name.
func (k *Kernel) Name() string { return k.kernel.Name }

// Compiled returns the checked kernel AST.
func (k *Kernel) Compiled() *clc.Kernel { return k.kernel }

// NumArgs returns the number of kernel parameters.
func (k *Kernel) NumArgs() int { return len(k.args) }

// SetArg binds argument i. Accepted values: *Buffer, *interp.Buffer,
// interp.Arg, int, int32, int64, float32, float64.
func (k *Kernel) SetArg(i int, v any) error {
	if i < 0 || i >= len(k.args) {
		return fmt.Errorf("ocl: argument index %d out of range", i)
	}
	var a interp.Arg
	switch x := v.(type) {
	case *Buffer:
		a = interp.BufArg(x.buf)
	case *interp.Buffer:
		a = interp.BufArg(x)
	case interp.Arg:
		a = x
	case int:
		a = interp.IntArg(int64(x))
	case int32:
		a = interp.IntArg(int64(x))
	case int64:
		a = interp.IntArg(x)
	case float32:
		a = interp.FloatArg(float64(x))
	case float64:
		a = interp.FloatArg(x)
	default:
		return fmt.Errorf("ocl: unsupported argument type %T", v)
	}
	k.args[i] = a
	k.isSet[i] = true
	return nil
}

// Args returns the currently bound arguments (all must be set).
func (k *Kernel) Args() ([]interp.Arg, error) {
	for i, ok := range k.isSet {
		if !ok {
			return nil, fmt.Errorf("ocl: argument %d (%s) of %s not set",
				i, k.kernel.Params[i].Name, k.kernel.Name)
		}
	}
	return append([]interp.Arg(nil), k.args...), nil
}

// CommandQueue executes launches on one device and accounts simulated time.
type CommandQueue struct {
	ctx    *Context
	device *Device
	// SimTime accumulates the simulated seconds of all launches.
	SimTime float64
	// LastResult holds the simulation result of the latest launch.
	LastResult *sim.Result
	// Fallback counts how interposed launches on this queue moved
	// through the fail-open ladder (per-queue view; the framework keeps
	// an aggregate).
	Fallback *faults.FallbackStats

	// LastLaunch optionally holds interposer-specific detail about the
	// latest launch on this queue (Dopia's interposer stores a
	// *core.LaunchInfo: ladder rung, DoP decision, engine). The plain
	// runtime leaves it untouched for interposed launches that degraded
	// to rung 3, so the cause survives. Like the other per-queue fields
	// it follows the queue's synchronization discipline: a queue is not
	// safe for concurrent use by multiple goroutines.
	LastLaunch any

	// firstErr latches the first deferred enqueue error until Finish
	// reports it (OpenCL-style deferred error semantics).
	firstErr error

	// execCtx, when non-nil, bounds subsequent launches (both the
	// interposed ladder and the plain runtime poll it between
	// work-groups). Set per request by SetExecContext.
	execCtx context.Context
}

// SetExecContext bounds every subsequent launch on this queue by ctx:
// the Dopia interposer threads it under its watchdog, and the plain
// runtime polls it between work-groups. nil restores the default
// (background) context. This is how a serving layer wires per-request
// deadlines into the existing abort machinery.
func (q *CommandQueue) SetExecContext(ctx context.Context) { q.execCtx = ctx }

// ExecContext returns the context bounding launches on this queue
// (never nil).
func (q *CommandQueue) ExecContext() context.Context {
	if q.execCtx == nil {
		return context.Background()
	}
	return q.execCtx
}

// CreateCommandQueue creates a queue on a device.
func (c *Context) CreateCommandQueue(d *Device) *CommandQueue {
	return &CommandQueue{
		ctx:      c,
		device:   d,
		Fallback: &faults.FallbackStats{},
	}
}

// latch records the first error of a command sequence for Finish.
func (q *CommandQueue) latch(err error) error {
	if err != nil && q.firstErr == nil {
		q.firstErr = err
	}
	return err
}

// Device returns the queue's device.
func (q *CommandQueue) Device() *Device { return q.device }

// Context returns the owning context.
func (q *CommandQueue) Context() *Context { return q.ctx }

// EnqueueNDRangeKernel executes a kernel launch. With an interposer
// installed the launch may be managed by Dopia; otherwise the plain
// runtime executes the whole ND range on this queue's device and charges
// the corresponding simulated time.
//
// The interposer boundary fails open: a panicking interposer, or one
// returning an error, degrades the launch to the plain runtime instead
// of failing it — an interposed launch only errors when the plain
// runtime itself cannot execute the kernel. Errors are additionally
// latched on the queue and re-surfaced by Finish.
func (q *CommandQueue) EnqueueNDRangeKernel(k *Kernel, nd interp.NDRange) error {
	if err := nd.Validate(); err != nil {
		return q.latch(err)
	}
	if ip := q.ctx.interposer; ip != nil {
		handled, simTime, err := func() (h bool, st float64, err error) {
			defer func() {
				if r := recover(); r != nil {
					perr := &faults.PanicError{Stage: faults.StageUnknown, Value: r}
					q.Fallback.RecordPlain(perr)
					h, st, err = false, 0, nil
				}
			}()
			return ip.Enqueue(q, k, nd)
		}()
		if err != nil {
			// A well-behaved interposer (core's ladder) never errors for
			// a runnable kernel; treat any error as one more degradation.
			q.Fallback.RecordPlain(err)
		} else if handled {
			q.SimTime += simTime
			return nil
		}
	}
	return q.latch(q.enqueuePlain(k, nd))
}

func (q *CommandQueue) enqueuePlain(k *Kernel, nd interp.NDRange) error {
	args, err := k.Args()
	if err != nil {
		return err
	}
	ex, err := sched.NewExecutor(q.ctx.platform.machine, k.kernel, nil)
	if err != nil {
		return err
	}
	if err := ex.Bind(args...); err != nil {
		return err
	}
	if err := ex.Launch(nd); err != nil {
		return err
	}
	m := q.ctx.platform.machine
	cfg := m.CPUOnly()
	share := 1.0
	if q.device.typ == DeviceGPU {
		cfg = m.GPUOnly()
		share = 0
	}
	res, err := ex.Run(cfg, sched.RunOptions{
		Dist:       sim.Static,
		CPUShare:   share,
		Functional: true,
		Context:    q.execCtx,
	})
	if err != nil {
		return err
	}
	q.SimTime += res.Time
	q.LastResult = res
	return nil
}

// Finish synchronizes the queue (a no-op here: execution is synchronous)
// and reports the first error of the commands enqueued since the last
// Finish — OpenCL-style deferred error semantics for callers that do not
// check every enqueue. The latch is cleared afterwards.
func (q *CommandQueue) Finish() error {
	err := q.firstErr
	q.firstErr = nil
	return err
}

// EnqueueWriteBuffer copies host data into a buffer (synchronous, like a
// blocking clEnqueueWriteBuffer). On an integrated architecture this is a
// plain copy into shared memory.
func (q *CommandQueue) EnqueueWriteBuffer(b *Buffer, data any) error {
	switch src := data.(type) {
	case []float32:
		if len(src) != len(b.buf.F32) {
			return q.latch(fmt.Errorf("ocl: write of %d floats into %d-element buffer", len(src), len(b.buf.F32)))
		}
		copy(b.buf.F32, src)
	case []int32:
		if len(src) != len(b.buf.I32) {
			return q.latch(fmt.Errorf("ocl: write of %d ints into %d-element buffer", len(src), len(b.buf.I32)))
		}
		copy(b.buf.I32, src)
	default:
		return q.latch(fmt.Errorf("ocl: unsupported host data type %T", data))
	}
	return nil
}

// EnqueueReadBuffer copies a buffer back to host data (synchronous).
func (q *CommandQueue) EnqueueReadBuffer(b *Buffer, data any) error {
	switch dst := data.(type) {
	case []float32:
		if len(dst) != len(b.buf.F32) {
			return q.latch(fmt.Errorf("ocl: read of %d-element buffer into %d floats", len(b.buf.F32), len(dst)))
		}
		copy(dst, b.buf.F32)
	case []int32:
		if len(dst) != len(b.buf.I32) {
			return q.latch(fmt.Errorf("ocl: read of %d-element buffer into %d ints", len(b.buf.I32), len(dst)))
		}
		copy(dst, b.buf.I32)
	default:
		return q.latch(fmt.Errorf("ocl: unsupported host data type %T", data))
	}
	return nil
}
