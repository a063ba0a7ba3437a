// Package cudalibs emulates the vendor math libraries DGSF interposes on
// top of the CUDA runtime: cuDNN (deep-learning primitives) and cuBLAS
// (dense linear algebra).
//
// The paper's serverless optimizations act on two properties of these
// libraries, both reproduced here:
//
//   - handle creation is expensive and memory-hungry (cuDNN: ~1.2 s and
//     ~386 MB; cuBLAS: ~0.2 s and ~70 MB), which makes per-API-server handle
//     pools worth 1.4 s of critical-path latency (§V-C);
//   - model loading issues large numbers of cheap descriptor-management
//     calls (cudnnCreate*Descriptor / cudnnSet*Descriptor), each of which
//     costs a network round trip when remoted naively — the motivation for
//     guest-side descriptor pooling and call batching.
package cudalibs

import (
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/gpu"
	"dgsf/internal/sim"
)

// Handle identifiers crossing the remoting wire.
type (
	// DNNHandle names a cuDNN handle.
	DNNHandle uint64
	// BLASHandle names a cuBLAS handle.
	BLASHandle uint64
	// Descriptor names a cuDNN descriptor (tensor, filter, convolution, ...).
	Descriptor uint64
)

// DescriptorKind enumerates the cuDNN descriptor types the workloads create.
type DescriptorKind int

// Descriptor kinds.
const (
	TensorDescriptor DescriptorKind = iota + 1
	FilterDescriptor
	ConvolutionDescriptor
	ActivationDescriptor
	PoolingDescriptor
)

// Costs models library-side fixed costs, calibrated from §V-C.
type Costs struct {
	DNNCreateTime  time.Duration // cudnnCreate
	DNNBytes       int64         // workspace held by a cuDNN handle
	BLASCreateTime time.Duration // cublasCreate
	BLASBytes      int64         // workspace held by a cuBLAS handle
	DescTime       time.Duration // CPU cost of descriptor create/set/destroy
}

// DefaultCosts returns the paper-calibrated values.
func DefaultCosts() Costs {
	return Costs{
		DNNCreateTime:  1200 * time.Millisecond,
		DNNBytes:       386 << 20,
		BLASCreateTime: 200 * time.Millisecond,
		BLASBytes:      70 << 20,
		DescTime:       1200 * time.Nanosecond,
	}
}

// Kind selects one of the two libraries. To this model a handle of either is
// the same thing — a creation delay, a workspace pinned on its context's
// device, kernels launched on that context — so one implementation serves
// both and the kind picks the numbers. The typed DNNHandle/BLASHandle exist
// for the wire; here a handle is its uint64.
type Kind uint8

// Library kinds.
const (
	DNN Kind = iota
	BLAS
)

// handleCosts returns what creating a handle of kind k costs and pins.
func (c Costs) handleCosts(k Kind) (time.Duration, int64) {
	if k == BLAS {
		return c.BLASCreateTime, c.BLASBytes
	}
	return c.DNNCreateTime, c.DNNBytes
}

// Libs is the per-process library state: live handles and descriptors.
type Libs struct {
	costs Costs

	nextID  uint64
	handles map[uint64]*handle
	descs   map[Descriptor]DescriptorKind
	// dnnKernels maps a cuDNN primitive's name to its kernel's, built once
	// per primitive and owned here: op may be a view of a request buffer.
	dnnKernels map[string]string
}

type handle struct {
	kind      Kind
	ctx       *cuda.Context
	workspace *gpu.PhysAlloc
}

// New returns empty library state with the given cost model.
func New(costs Costs) *Libs {
	return &Libs{
		costs:      costs,
		handles:    make(map[uint64]*handle),
		descs:      make(map[Descriptor]DescriptorKind),
		dnnKernels: make(map[string]string),
	}
}

func (l *Libs) id() uint64 {
	l.nextID++
	return l.nextID
}

func (l *Libs) lookup(k Kind, h uint64) (*handle, error) {
	s, ok := l.handles[h]
	if !ok || s.kind != k {
		return nil, cuda.ErrInvalidResourceHandle
	}
	return s, nil
}

// Create mirrors cudnnCreate/cublasCreate: expensive, and pins workspace
// memory on the context's device.
func (l *Libs) Create(p *sim.Proc, k Kind, ctx *cuda.Context) (uint64, error) {
	d, bytes := l.costs.handleCosts(k)
	if d > 0 {
		p.Sleep(d)
	}
	var ws *gpu.PhysAlloc
	if bytes > 0 {
		a, err := ctx.Device().AllocPhys(bytes)
		if err != nil {
			return 0, cuda.ErrMemoryAllocation
		}
		ws = a
	}
	h := l.id()
	l.handles[h] = &handle{kind: k, ctx: ctx, workspace: ws}
	return h, nil
}

// Destroy mirrors cudnnDestroy/cublasDestroy.
func (l *Libs) Destroy(p *sim.Proc, k Kind, h uint64) error {
	s, err := l.lookup(k, h)
	if err != nil {
		return err
	}
	if s.workspace != nil {
		s.workspace.Free()
	}
	delete(l.handles, h)
	return nil
}

// Rebind points an existing handle at a new context, moving its workspace
// allocation to the new device. Used on migration.
func (l *Libs) Rebind(p *sim.Proc, k Kind, h uint64, ctx *cuda.Context) error {
	s, err := l.lookup(k, h)
	if err != nil {
		return err
	}
	if s.workspace != nil {
		ws, err := ctx.Device().AllocPhys(s.workspace.Size())
		if err != nil {
			return cuda.ErrMemoryAllocation
		}
		s.workspace.Free()
		s.workspace = ws
	}
	s.ctx = ctx
	return nil
}

// Launch mirrors a compute call — cudnnConvolutionForward and friends, named
// by op, or cublasSgemm: one kernel of the given nominal duration on the
// handle's context.
func (l *Libs) Launch(p *sim.Proc, k Kind, h uint64, op string, dur time.Duration, bufs []cuda.DevPtr) error {
	s, err := l.lookup(k, h)
	if err != nil {
		return err
	}
	name := "cublas::gemm"
	if k == DNN {
		name = l.dnnKernel(op)
	}
	fn, err := s.ctx.RegisterFunction(p, name)
	if err != nil {
		return err
	}
	if err := s.ctx.LaunchKernel(p, cuda.LaunchParams{Fn: fn, Duration: dur, Mutates: bufs}); err != nil {
		return err
	}
	return s.ctx.StreamSynchronize(p, 0)
}

// dnnKernel returns the kernel name of cuDNN primitive op.
func (l *Libs) dnnKernel(op string) string {
	const prefix = "cudnn::"
	name, ok := l.dnnKernels[op]
	if !ok {
		name = prefix + op
		l.dnnKernels[name[len(prefix):]] = name // the key is name's own bytes, not op's
	}
	return name
}

// CreateDescriptor mirrors cudnnCreate*Descriptor: a host-side allocation.
func (l *Libs) CreateDescriptor(p *sim.Proc, kind DescriptorKind) (Descriptor, error) {
	if l.costs.DescTime > 0 {
		p.Sleep(l.costs.DescTime)
	}
	d := Descriptor(l.id())
	l.descs[d] = kind
	return d, nil
}

// SetDescriptor mirrors cudnnSet*Descriptor: host-side state only.
func (l *Libs) SetDescriptor(p *sim.Proc, d Descriptor) error {
	if l.costs.DescTime > 0 {
		p.Sleep(l.costs.DescTime)
	}
	if _, ok := l.descs[d]; !ok {
		return cuda.ErrInvalidResourceHandle
	}
	return nil
}

// DestroyDescriptor mirrors cudnnDestroy*Descriptor.
func (l *Libs) DestroyDescriptor(p *sim.Proc, d Descriptor) error {
	if l.costs.DescTime > 0 {
		p.Sleep(l.costs.DescTime)
	}
	if _, ok := l.descs[d]; !ok {
		return cuda.ErrInvalidResourceHandle
	}
	delete(l.descs, d)
	return nil
}

// DescriptorCount returns the number of live descriptors (tests).
func (l *Libs) DescriptorCount() int { return len(l.descs) }
