// Package cuda implements a CUDA-like GPU runtime over the simulated devices
// in internal/gpu. It provides the API surface DGSF interposes: device
// management, memory management (including the driver API's low-level
// virtual-memory functions that make address-space-preserving migration
// possible), streams, events, and module/kernel handling.
//
// Semantics deliberately follow the real API where the paper depends on
// them: CUDA runtime initialization is expensive (~3.2 s) and allocates a
// per-context footprint (~303 MB); kernel function pointers are only valid
// in the context that produced them; one virtual address space exists per
// context; and cuMemCreate/cuMemAddressReserve/cuMemMap decouple physical
// allocations from virtual ranges.
package cuda

import (
	"time"

	"dgsf/internal/gpu"
	"dgsf/internal/sim"
)

// Handle types crossing the remoting wire as opaque 64-bit values.
type (
	// DevPtr is a device virtual address as returned by cudaMalloc.
	DevPtr uint64
	// PhysHandle names a physical allocation created with MemCreate.
	PhysHandle uint64
	// StreamHandle names a CUDA stream.
	StreamHandle uint64
	// EventHandle names a CUDA event.
	EventHandle uint64
	// FnPtr is a kernel function pointer, valid only in one context.
	FnPtr uint64
)

// MemcpyKind mirrors cudaMemcpyKind.
type MemcpyKind int

// Transfer directions.
const (
	MemcpyHostToDevice MemcpyKind = iota + 1
	MemcpyDeviceToHost
	MemcpyDeviceToDevice
)

// DeviceProp mirrors the cudaDeviceProp fields DGSF's workloads inspect.
type DeviceProp struct {
	Name     string
	TotalMem int64
	SMs      int
	ClockMHz int
	Major    int
	Minor    int
}

// Costs models the fixed CPU/driver-side costs of the runtime. Values are
// the paper's measurements on V100s (§V-C).
type Costs struct {
	InitTime     time.Duration // CUDA runtime/context initialization
	InitJitter   time.Duration // uniform +/- jitter on InitTime per init
	CtxBytes     int64         // device memory held by a context
	ExtraCtxTime time.Duration // creating an additional context on another device
	APITime      time.Duration // CPU cost of an ordinary runtime API call
	LaunchTime   time.Duration // CPU cost of a kernel launch
}

// DefaultCosts returns the paper-calibrated cost model: 3.2 s init (observed
// 2.8-3.6 s across machines, <200 ms within one machine), 303 MB context.
func DefaultCosts() Costs {
	return Costs{
		InitTime:     3200 * time.Millisecond,
		InitJitter:   100 * time.Millisecond,
		CtxBytes:     303 << 20,
		ExtraCtxTime: 250 * time.Millisecond,
		APITime:      1500 * time.Nanosecond,
		LaunchTime:   4 * time.Microsecond,
	}
}

// Runtime is a per-process view of the GPUs visible to that process: a
// native application sees the machine's devices; a DGSF API server sees the
// GPU server's devices.
type Runtime struct {
	e     *sim.Engine
	devs  []*gpu.Device
	costs Costs

	initialized bool
	current     int
	ctxs        []*Context // lazily created, one per device
}

// NewRuntime returns an uninitialized runtime over devs.
func NewRuntime(e *sim.Engine, devs []*gpu.Device, costs Costs) *Runtime {
	return &Runtime{e: e, devs: devs, costs: costs, ctxs: make([]*Context, len(devs))}
}

// Init initializes the CUDA runtime, paying the full initialization latency
// and creating the context on the current device. Calling any other API
// first returns ErrNotInitialized. Init is idempotent.
func (r *Runtime) Init(p *sim.Proc) error {
	if r.initialized {
		return nil
	}
	if len(r.devs) == 0 {
		return ErrInitializationError
	}
	d := r.costs.InitTime
	if j := r.costs.InitJitter; j > 0 {
		d += time.Duration(p.Rand().Int63n(int64(2*j))) - j
	}
	p.Sleep(d)
	r.initialized = true
	if _, err := r.Context(p, r.current); err != nil {
		r.initialized = false
		return err
	}
	return nil
}

// Initialized reports whether Init has completed.
func (r *Runtime) Initialized() bool { return r.initialized }

// Context returns the context for device dev, creating it on first use.
// Creating a context beyond the first charges ExtraCtxTime (the first is
// charged as part of Init).
func (r *Runtime) Context(p *sim.Proc, dev int) (*Context, error) {
	if !r.initialized {
		return nil, ErrNotInitialized
	}
	if dev < 0 || dev >= len(r.devs) {
		return nil, ErrInvalidDevice
	}
	if r.ctxs[dev] != nil {
		return r.ctxs[dev], nil
	}
	first := true
	for _, c := range r.ctxs {
		if c != nil {
			first = false
			break
		}
	}
	if !first && r.costs.ExtraCtxTime > 0 {
		p.Sleep(r.costs.ExtraCtxTime)
	}
	ctx, err := newContext(p, r, r.devs[dev])
	if err != nil {
		return nil, err
	}
	r.ctxs[dev] = ctx
	return ctx, nil
}

// CurrentContext returns the context of the current device, creating it if
// needed.
func (r *Runtime) CurrentContext(p *sim.Proc) (*Context, error) {
	return r.Context(p, r.current)
}

// DeviceCount mirrors cudaGetDeviceCount.
func (r *Runtime) DeviceCount(p *sim.Proc) (int, error) {
	r.apiCost(p)
	return len(r.devs), nil
}

// DeviceProperties mirrors cudaGetDeviceProperties.
func (r *Runtime) DeviceProperties(p *sim.Proc, dev int) (DeviceProp, error) {
	r.apiCost(p)
	if dev < 0 || dev >= len(r.devs) {
		return DeviceProp{}, ErrInvalidDevice
	}
	cfg := r.devs[dev].Cfg
	return DeviceProp{
		Name:     cfg.Name,
		TotalMem: cfg.MemBytes,
		SMs:      cfg.SMs,
		ClockMHz: cfg.ClockMHz,
		Major:    7,
		Minor:    0,
	}, nil
}

// SetDevice mirrors cudaSetDevice.
func (r *Runtime) SetDevice(p *sim.Proc, dev int) error {
	r.apiCost(p)
	if dev < 0 || dev >= len(r.devs) {
		return ErrInvalidDevice
	}
	r.current = dev
	return nil
}

// GetDevice mirrors cudaGetDevice.
func (r *Runtime) GetDevice(p *sim.Proc) (int, error) {
	r.apiCost(p)
	return r.current, nil
}

// MemGetInfo mirrors cudaMemGetInfo for the current device.
func (r *Runtime) MemGetInfo(p *sim.Proc) (free, total int64, err error) {
	r.apiCost(p)
	if !r.initialized {
		return 0, 0, ErrNotInitialized
	}
	d := r.devs[r.current]
	return d.FreeBytes(), d.Cfg.MemBytes, nil
}

// Devices exposes the underlying simulated devices (for monitors and tests).
func (r *Runtime) Devices() []*gpu.Device { return r.devs }

// Engine returns the simulation the runtime's devices live in.
func (r *Runtime) Engine() *sim.Engine { return r.e }

func (r *Runtime) apiCost(p *sim.Proc) {
	if r.costs.APITime > 0 {
		p.Sleep(r.costs.APITime)
	}
}
