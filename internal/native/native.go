// Package native implements the remoted API surface directly over a local
// CUDA runtime, with no interposition and no network: the "Native" baseline
// of Table II. Everything DGSF removes from the critical path is paid here
// the way a native GPU application pays it — CUDA runtime initialization at
// first use (~3.2 s), cuDNN/cuBLAS handle creation at first need, and every
// descriptor call at full cost. "Native GPU applications cannot
// pre-initialize their own runtime" (§V-C).
package native

import (
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/gpu"
	"dgsf/internal/membytes"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
)

// Backend executes API calls on a local runtime.
type Backend struct {
	rt   *cuda.Runtime
	libs *cudalibs.Libs

	hostAllocs map[uint64]int64
	nextHost   uint64
	cfgDepth   int
	lastError  int

	mem membytes.Store // bytes uploaded with MemWrite, per allocation
}

var _ gen.API = (*Backend)(nil)

// New returns a native backend over rt. The runtime must not be initialized
// yet: initialization cost is part of what this baseline measures.
func New(rt *cuda.Runtime, libCosts cudalibs.Costs) *Backend {
	return &Backend{
		rt:         rt,
		libs:       cudalibs.New(libCosts),
		hostAllocs: make(map[uint64]int64),
	}
}

// ensure lazily initializes the runtime, as the CUDA runtime does on the
// first API call of a native process.
func (b *Backend) ensure(p *sim.Proc) (*cuda.Context, error) {
	if !b.rt.Initialized() {
		if err := b.rt.Init(p); err != nil {
			return nil, err
		}
	}
	return b.rt.CurrentContext(p)
}

// Hello is a no-op natively (there is no session).
func (b *Backend) Hello(p *sim.Proc, fnID string, memLimit int64) error {
	_, err := b.ensure(p)
	return err
}

// Bye is a no-op natively.
func (b *Backend) Bye(p *sim.Proc) error { return nil }

// RegisterKernels registers kernels in the current context, as the CUDA
// runtime's __cudaRegisterFunction path does at module load.
func (b *Backend) RegisterKernels(p *sim.Proc, names []string) ([]cuda.FnPtr, error) {
	ctx, err := b.ensure(p)
	if err != nil {
		return nil, err
	}
	out := make([]cuda.FnPtr, 0, len(names))
	for _, n := range names {
		f, err := ctx.RegisterFunction(p, n)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// ModelAttach always misses natively: a native process has no API server to
// keep model state alive between runs.
func (b *Backend) ModelAttach(p *sim.Proc) (cuda.DevPtr, int64, int, error) {
	if _, err := b.ensure(p); err != nil {
		return 0, 0, 0, err
	}
	return 0, 0, 0, nil
}

// ModelPersist degenerates to Free natively: nothing outlives the process.
func (b *Backend) ModelPersist(p *sim.Proc, ptr cuda.DevPtr) error {
	return b.Free(p, ptr)
}

// MemExport fails natively: without API servers there is no data plane to
// publish a tensor on, so chained native runs always bounce through the host.
func (b *Backend) MemExport(p *sim.Proc, ptr cuda.DevPtr, tag string) (uint64, int64, error) {
	if _, err := b.ensure(p); err != nil {
		return 0, 0, err
	}
	return 0, 0, cuda.ErrInvalidValue
}

// MemImport fails natively (no data plane).
func (b *Backend) MemImport(p *sim.Proc, export uint64) (cuda.DevPtr, int64, error) {
	if _, err := b.ensure(p); err != nil {
		return 0, 0, err
	}
	return 0, 0, cuda.ErrInvalidValue
}

// PeerCopy fails natively (no data plane).
func (b *Backend) PeerCopy(p *sim.Proc, export uint64) (cuda.DevPtr, int64, error) {
	if _, err := b.ensure(p); err != nil {
		return 0, 0, err
	}
	return 0, 0, cuda.ErrInvalidValue
}

// ModelBroadcast always misses natively, like ModelAttach: callers fall back
// to loading the model themselves.
func (b *Backend) ModelBroadcast(p *sim.Proc) (cuda.DevPtr, int64, int, error) {
	if _, err := b.ensure(p); err != nil {
		return 0, 0, 0, err
	}
	return 0, 0, 0, nil
}

// GetDeviceCount reports the machine's real device count.
func (b *Backend) GetDeviceCount(p *sim.Proc) (int, error) {
	if _, err := b.ensure(p); err != nil {
		return 0, err
	}
	return b.rt.DeviceCount(p)
}

// GetDeviceProperties reports real device properties.
func (b *Backend) GetDeviceProperties(p *sim.Proc, dev int) (cuda.DeviceProp, error) {
	if _, err := b.ensure(p); err != nil {
		return cuda.DeviceProp{}, err
	}
	return b.rt.DeviceProperties(p, dev)
}

// SetDevice selects the current device.
func (b *Backend) SetDevice(p *sim.Proc, dev int) error {
	if _, err := b.ensure(p); err != nil {
		return err
	}
	return b.rt.SetDevice(p, dev)
}

// GetDevice reports the current device.
func (b *Backend) GetDevice(p *sim.Proc) (int, error) {
	if _, err := b.ensure(p); err != nil {
		return 0, err
	}
	return b.rt.GetDevice(p)
}

// MemGetInfo reports real device memory.
func (b *Backend) MemGetInfo(p *sim.Proc) (int64, int64, error) {
	if _, err := b.ensure(p); err != nil {
		return 0, 0, err
	}
	return b.rt.MemGetInfo(p)
}

// DeviceSynchronize mirrors cudaDeviceSynchronize.
func (b *Backend) DeviceSynchronize(p *sim.Proc) error {
	ctx, err := b.ensure(p)
	if err != nil {
		return err
	}
	return ctx.DeviceSynchronize(p)
}

// GetLastError mirrors cudaGetLastError.
func (b *Backend) GetLastError(p *sim.Proc) (int, error) {
	code := b.lastError
	b.lastError = 0
	return code, nil
}

// DriverGetVersion mirrors cuDriverGetVersion.
func (b *Backend) DriverGetVersion(p *sim.Proc) (int, error) { return 10020, nil }

// RuntimeGetVersion mirrors cudaRuntimeGetVersion.
func (b *Backend) RuntimeGetVersion(p *sim.Proc) (int, error) { return 10010, nil }

// Malloc mirrors cudaMalloc.
func (b *Backend) Malloc(p *sim.Proc, size int64) (cuda.DevPtr, error) {
	ctx, err := b.ensure(p)
	if err != nil {
		return 0, err
	}
	return ctx.Malloc(p, size)
}

// Free mirrors cudaFree.
func (b *Backend) Free(p *sim.Proc, ptr cuda.DevPtr) error {
	ctx, err := b.ensure(p)
	if err != nil {
		return err
	}
	if err := ctx.Free(p, ptr); err != nil {
		return err
	}
	b.mem.Drop(ptr)
	return nil
}

// Memset mirrors cudaMemset.
func (b *Backend) Memset(p *sim.Proc, ptr cuda.DevPtr, value byte, size int64) error {
	ctx, err := b.ensure(p)
	if err != nil {
		return err
	}
	return ctx.Memset(p, ptr, value, size)
}

// MemcpyH2D mirrors cudaMemcpy(HostToDevice) over the local PCIe link.
func (b *Backend) MemcpyH2D(p *sim.Proc, dst cuda.DevPtr, src gpu.HostBuffer, size int64) error {
	ctx, err := b.ensure(p)
	if err != nil {
		return err
	}
	return ctx.MemcpyH2D(p, dst, src, size)
}

// MemcpyD2H mirrors cudaMemcpy(DeviceToHost).
func (b *Backend) MemcpyD2H(p *sim.Proc, src cuda.DevPtr, size int64) (gpu.HostBuffer, error) {
	ctx, err := b.ensure(p)
	if err != nil {
		return gpu.HostBuffer{}, err
	}
	return ctx.MemcpyD2H(p, src, size)
}

// memRange resolves the n bytes at ptr to an allocation of the context and
// an offset in it. An unknown pointer is an address-space error, a range that
// leaves the allocation an invalid value.
func memRange(ctx *cuda.Context, ptr cuda.DevPtr, n int64) (base cuda.DevPtr, off int64, err error) {
	base, size, ok := ctx.Extent(ptr)
	if !ok {
		return 0, 0, cuda.ErrInvalidAddressSpace
	}
	off, err = membytes.Offset(base, size, ptr, n)
	return base, off, err
}

// MemWrite is the vectored twin of MemcpyH2D: the payload bytes arrive with
// the call, so beyond charging the PCIe copy the backend copies them into its
// byte store for read-back through MemRead. data stays the caller's.
func (b *Backend) MemWrite(p *sim.Proc, dst cuda.DevPtr, data []byte) error {
	ctx, err := b.ensure(p)
	if err != nil {
		return err
	}
	size := int64(len(data))
	base, off, err := memRange(ctx, dst, size)
	if err != nil {
		return err
	}
	if err := ctx.MemcpyH2D(p, dst, gpu.HostBuffer{Size: size}, size); err != nil {
		return err
	}
	b.mem.CopyIn(base, off, data)
	return nil
}

// MemRead is the vectored twin of MemcpyD2H: it charges the PCIe copy and
// returns the allocation's bytes at src, zeros where nothing was uploaded.
// The result is a view of the byte store, valid until the next call that
// writes or frees src.
func (b *Backend) MemRead(p *sim.Proc, src cuda.DevPtr, size int64) ([]byte, error) {
	ctx, err := b.ensure(p)
	if err != nil {
		return nil, err
	}
	base, off, err := memRange(ctx, src, size)
	if err != nil {
		return nil, err
	}
	if _, err := ctx.MemcpyD2H(p, src, size); err != nil {
		return nil, err
	}
	return b.mem.View(base, off, size), nil
}

// MemcpyD2D mirrors cudaMemcpy(DeviceToDevice).
func (b *Backend) MemcpyD2D(p *sim.Proc, dst, src cuda.DevPtr, size int64) error {
	ctx, err := b.ensure(p)
	if err != nil {
		return err
	}
	return ctx.MemcpyD2D(p, dst, src, size)
}

// MallocHost mirrors cudaMallocHost.
func (b *Backend) MallocHost(p *sim.Proc, size int64) (uint64, error) {
	if _, err := b.ensure(p); err != nil {
		return 0, err
	}
	b.nextHost++
	ptr := 0x6200_0000_0000 + b.nextHost<<12
	b.hostAllocs[ptr] = size
	return ptr, nil
}

// FreeHost mirrors cudaFreeHost.
func (b *Backend) FreeHost(p *sim.Proc, ptr uint64) error {
	if _, ok := b.hostAllocs[ptr]; !ok {
		return cuda.ErrInvalidValue
	}
	delete(b.hostAllocs, ptr)
	return nil
}

// PointerGetAttributes answers from the context's address space.
func (b *Backend) PointerGetAttributes(p *sim.Proc, ptr cuda.DevPtr) (cuda.PtrAttributes, error) {
	ctx, err := b.ensure(p)
	if err != nil {
		return cuda.PtrAttributes{}, err
	}
	if _, size, ok := ctx.Extent(ptr); ok {
		dev, _ := b.rt.GetDevice(p)
		return cuda.PtrAttributes{Device: dev, Size: size, IsDevice: true}, nil
	}
	return cuda.PtrAttributes{}, cuda.ErrInvalidValue
}

// PushCallConfiguration mirrors __cudaPushCallConfiguration (an in-process
// call natively).
func (b *Backend) PushCallConfiguration(p *sim.Proc, grid, block [3]int, stream cuda.StreamHandle) error {
	b.cfgDepth++
	return nil
}

// PopCallConfiguration mirrors __cudaPopCallConfiguration.
func (b *Backend) PopCallConfiguration(p *sim.Proc) error {
	if b.cfgDepth > 0 {
		b.cfgDepth--
	}
	return nil
}

// LaunchKernel mirrors cudaLaunchKernel.
func (b *Backend) LaunchKernel(p *sim.Proc, lp cuda.LaunchParams) error {
	ctx, err := b.ensure(p)
	if err != nil {
		return err
	}
	return ctx.LaunchKernel(p, lp)
}

// StreamCreate mirrors cudaStreamCreate.
func (b *Backend) StreamCreate(p *sim.Proc) (cuda.StreamHandle, error) {
	ctx, err := b.ensure(p)
	if err != nil {
		return 0, err
	}
	return ctx.StreamCreate(p)
}

// StreamDestroy mirrors cudaStreamDestroy.
func (b *Backend) StreamDestroy(p *sim.Proc, h cuda.StreamHandle) error {
	ctx, err := b.ensure(p)
	if err != nil {
		return err
	}
	return ctx.StreamDestroy(p, h)
}

// StreamSynchronize mirrors cudaStreamSynchronize.
func (b *Backend) StreamSynchronize(p *sim.Proc, h cuda.StreamHandle) error {
	ctx, err := b.ensure(p)
	if err != nil {
		return err
	}
	return ctx.StreamSynchronize(p, h)
}

// EventCreate mirrors cudaEventCreate.
func (b *Backend) EventCreate(p *sim.Proc) (cuda.EventHandle, error) {
	ctx, err := b.ensure(p)
	if err != nil {
		return 0, err
	}
	return ctx.EventCreate(p)
}

// EventDestroy mirrors cudaEventDestroy.
func (b *Backend) EventDestroy(p *sim.Proc, h cuda.EventHandle) error {
	ctx, err := b.ensure(p)
	if err != nil {
		return err
	}
	return ctx.EventDestroy(p, h)
}

// EventRecord mirrors cudaEventRecord.
func (b *Backend) EventRecord(p *sim.Proc, h cuda.EventHandle, stream cuda.StreamHandle) error {
	ctx, err := b.ensure(p)
	if err != nil {
		return err
	}
	return ctx.EventRecord(p, h, stream)
}

// EventSynchronize mirrors cudaEventSynchronize.
func (b *Backend) EventSynchronize(p *sim.Proc, h cuda.EventHandle) error {
	ctx, err := b.ensure(p)
	if err != nil {
		return err
	}
	return ctx.EventSynchronize(p, h)
}

// EventElapsed mirrors cudaEventElapsedTime.
func (b *Backend) EventElapsed(p *sim.Proc, start, end cuda.EventHandle) (time.Duration, error) {
	ctx, err := b.ensure(p)
	if err != nil {
		return 0, err
	}
	return ctx.EventElapsed(p, start, end)
}

// libCreate creates a cuDNN or cuBLAS handle at full cost.
func (b *Backend) libCreate(p *sim.Proc, k cudalibs.Kind) (uint64, error) {
	ctx, err := b.ensure(p)
	if err != nil {
		return 0, err
	}
	return b.libs.Create(p, k, ctx)
}

// DnnCreate mirrors cudnnCreate at full cost.
func (b *Backend) DnnCreate(p *sim.Proc) (cudalibs.DNNHandle, error) {
	h, err := b.libCreate(p, cudalibs.DNN)
	return cudalibs.DNNHandle(h), err
}

// DnnDestroy mirrors cudnnDestroy.
func (b *Backend) DnnDestroy(p *sim.Proc, h cudalibs.DNNHandle) error {
	return b.libs.Destroy(p, cudalibs.DNN, uint64(h))
}

// DnnSetStream mirrors cudnnSetStream.
func (b *Backend) DnnSetStream(p *sim.Proc, h cudalibs.DNNHandle, stream cuda.StreamHandle) error {
	return nil
}

// DnnGetConvolutionWorkspaceSize mirrors its cuDNN namesake.
func (b *Backend) DnnGetConvolutionWorkspaceSize(p *sim.Proc, d cudalibs.Descriptor) (int64, error) {
	return 64 << 20, nil
}

// DnnForward runs a cuDNN primitive.
func (b *Backend) DnnForward(p *sim.Proc, h cudalibs.DNNHandle, op string, dur time.Duration, bufs []cuda.DevPtr, descs []uint64) error {
	return b.libs.Launch(p, cudalibs.DNN, uint64(h), op, dur, bufs)
}

// BlasCreate mirrors cublasCreate at full cost.
func (b *Backend) BlasCreate(p *sim.Proc) (cudalibs.BLASHandle, error) {
	h, err := b.libCreate(p, cudalibs.BLAS)
	return cudalibs.BLASHandle(h), err
}

// BlasDestroy mirrors cublasDestroy.
func (b *Backend) BlasDestroy(p *sim.Proc, h cudalibs.BLASHandle) error {
	return b.libs.Destroy(p, cudalibs.BLAS, uint64(h))
}

// BlasSetStream mirrors cublasSetStream.
func (b *Backend) BlasSetStream(p *sim.Proc, h cudalibs.BLASHandle, stream cuda.StreamHandle) error {
	return nil
}

// BlasGemm mirrors cublasSgemm.
func (b *Backend) BlasGemm(p *sim.Proc, h cudalibs.BLASHandle, dur time.Duration, bufs []cuda.DevPtr) error {
	return b.libs.Launch(p, cudalibs.BLAS, uint64(h), "", dur, bufs)
}

// DnnCreateTensorDescriptor mirrors cudnnCreateTensorDescriptor.
func (b *Backend) DnnCreateTensorDescriptor(p *sim.Proc) (cudalibs.Descriptor, error) {
	return b.libs.CreateDescriptor(p, cudalibs.TensorDescriptor)
}

// DnnSetTensorDescriptor mirrors cudnnSetTensorNdDescriptor.
func (b *Backend) DnnSetTensorDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return b.libs.SetDescriptor(p, d)
}

// DnnDestroyTensorDescriptor mirrors cudnnDestroyTensorDescriptor.
func (b *Backend) DnnDestroyTensorDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return b.libs.DestroyDescriptor(p, d)
}

// DnnCreateFilterDescriptor mirrors cudnnCreateFilterDescriptor.
func (b *Backend) DnnCreateFilterDescriptor(p *sim.Proc) (cudalibs.Descriptor, error) {
	return b.libs.CreateDescriptor(p, cudalibs.FilterDescriptor)
}

// DnnSetFilterDescriptor mirrors cudnnSetFilterNdDescriptor.
func (b *Backend) DnnSetFilterDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return b.libs.SetDescriptor(p, d)
}

// DnnDestroyFilterDescriptor mirrors cudnnDestroyFilterDescriptor.
func (b *Backend) DnnDestroyFilterDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return b.libs.DestroyDescriptor(p, d)
}

// DnnCreateConvolutionDescriptor mirrors cudnnCreateConvolutionDescriptor.
func (b *Backend) DnnCreateConvolutionDescriptor(p *sim.Proc) (cudalibs.Descriptor, error) {
	return b.libs.CreateDescriptor(p, cudalibs.ConvolutionDescriptor)
}

// DnnSetConvolutionDescriptor mirrors cudnnSetConvolutionNdDescriptor.
func (b *Backend) DnnSetConvolutionDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return b.libs.SetDescriptor(p, d)
}

// DnnDestroyConvolutionDescriptor mirrors cudnnDestroyConvolutionDescriptor.
func (b *Backend) DnnDestroyConvolutionDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return b.libs.DestroyDescriptor(p, d)
}

// DnnCreateActivationDescriptor mirrors cudnnCreateActivationDescriptor.
func (b *Backend) DnnCreateActivationDescriptor(p *sim.Proc) (cudalibs.Descriptor, error) {
	return b.libs.CreateDescriptor(p, cudalibs.ActivationDescriptor)
}

// DnnSetActivationDescriptor mirrors cudnnSetActivationDescriptor.
func (b *Backend) DnnSetActivationDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return b.libs.SetDescriptor(p, d)
}

// DnnDestroyActivationDescriptor mirrors cudnnDestroyActivationDescriptor.
func (b *Backend) DnnDestroyActivationDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return b.libs.DestroyDescriptor(p, d)
}

// DnnCreatePoolingDescriptor mirrors cudnnCreatePoolingDescriptor.
func (b *Backend) DnnCreatePoolingDescriptor(p *sim.Proc) (cudalibs.Descriptor, error) {
	return b.libs.CreateDescriptor(p, cudalibs.PoolingDescriptor)
}

// DnnSetPoolingDescriptor mirrors cudnnSetPoolingNdDescriptor.
func (b *Backend) DnnSetPoolingDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return b.libs.SetDescriptor(p, d)
}

// DnnDestroyPoolingDescriptor mirrors cudnnDestroyPoolingDescriptor.
func (b *Backend) DnnDestroyPoolingDescriptor(p *sim.Proc, d cudalibs.Descriptor) error {
	return b.libs.DestroyDescriptor(p, d)
}
