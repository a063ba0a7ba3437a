// Package guest implements DGSF's guest library: the shim interposed under
// an application's CUDA/cuDNN/cuBLAS calls (§V-A). Every call the
// application makes lands here; the library decides, per call and per
// optimization tier, whether to answer it locally, defer it into a batch,
// submit it one-way, or remote it to the API server.
//
// Optimization tiers follow the paper's ablation (§V-C, Fig. 4):
//
//   - OptNone: every interposed call is forwarded individually, including
//     the __cudaPushCallConfiguration/__cudaPopCallConfiguration pair
//     around each kernel launch.
//   - OptLocalDescriptors: cuDNN descriptor create/set/destroy, host-only
//     memory APIs (cudaMallocHost), version queries and error queries are
//     answered from guest-side state without touching the network.
//   - OptBatching: calls with no immediately-needed result (kernel
//     launches, memsets, frees, event records, ...) are accumulated and
//     shipped as one batch message before the next synchronous call; launch
//     configurations are piggybacked onto launches; pointer-attribute
//     queries are answered from tracked allocations.
//   - OptAsync: the same calls (except Free, which fences) leave at once as
//     one-way submissions on the transport's pipelined lane.
//
// Which calls may be deferred is not decided here: cmd/apigen's spec marks
// them, the generated tables (gen.CallClass, gen.CallIsDeferrable) carry the
// marks, and laneOf is the one place that reads them (lane.go).
//
// Server-side handle pooling (OptHandlePool in the experiments) lives in
// internal/apiserver; the guest is oblivious to it, exactly as in DGSF.
package guest

import (
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/gpu"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

// Opt is a bitmask of guest-side optimization tiers.
type Opt uint8

// Guest optimization flags. OptAll enables every guest-side optimization in
// the paper's ablation; OptAsync additionally turns on the pipelined
// submission lane and must be combined with a transport that supports it.
const (
	OptNone             Opt = 0
	OptLocalDescriptors Opt = 1 << iota
	OptBatching
	OptAsync
	OptAll = OptLocalDescriptors | OptBatching
)

// Stats counts how the guest library disposed of interposed calls.
type Stats struct {
	Total     int // calls interposed
	Remoted   int // forwarded as individual round trips
	Batched   int // forwarded inside batch messages
	Localized int // answered locally, never forwarded
	Async     int // forwarded as one-way pipelined submissions
	Batches   int // batch messages sent
	Fences    int // pipeline fences performed (round trips)

	// Recovery counters (recoverable libraries only).
	Recoveries int // recovery episodes entered after a transport fault
	Redials    int // redial attempts across all episodes
	Replayed   int // journal entries replayed onto fresh sessions
	Journaled  int // state-establishing calls recorded in the replay journal
}

// Roundtrips returns the number of network round trips performed.
func (s Stats) Roundtrips() int { return s.Remoted + s.Batches + s.Fences }

// Forwarded returns the number of API calls that reached the API server.
func (s Stats) Forwarded() int { return s.Remoted + s.Batched + s.Async }

// scratchSize is the working size of a Lib's scratch encoder: a one-way
// kernel launch that mutates up to six allocations fits.
const scratchSize = 128

// localDescBit marks guest-allocated descriptor handles so they can never
// collide with server-side handles.
const localDescBit = 1 << 62

// Lib is a guest library instance: one per function execution.
type Lib struct {
	cl  *gen.Client
	opt Opt

	// async is the transport's pipelined lane, non-nil when the transport
	// implements remoting.AsyncCaller. Without it OptAsync degrades to the
	// synchronous paths.
	async         remoting.AsyncCaller
	asyncInFlight int

	stats Stats

	// Guest-side state backing localized APIs; the maps are made on their
	// first write, as most functions never write some of them.
	lastError  int
	ptrSizes   map[cuda.DevPtr]int64
	hostAllocs map[uint64]int64
	nextHost   uint64
	localDescs map[cudalibs.Descriptor]bool
	nextDesc   uint64
	cfgStack   []gen.PushCallConfigurationReq
	localCost  time.Duration // CPU cost of a locally-answered call

	// The pending batch (OptBatching): calls deferred since the last flush,
	// encoded when it ships, in storage taken from the free list at the
	// first deferred call and given back by the flush; nil while nothing is
	// pending. scratch holds one one-way submission at a time, encoded
	// before it is copied out; it starts at scratchSize.
	batch   *batch
	scratch wire.Encoder

	// Crash recovery (NewRecoverable only; nil rec disables everything).
	rec        *RecoveryConfig
	recovering bool // inside recoverSession: no nested recovery
	lost       bool // recovery exhausted; session unrecoverable

	// The virtual-handle table: application-visible IDs of every kind
	// (pointers, streams, events, library handles, descriptors, kernel
	// function pointers, host allocations) to the current session's.
	virt     map[uint64]uint64
	extents  map[cuda.DevPtr]int64 // virtual base -> size, until the release is confirmed
	nextVirt uint64
	nextVA   int64

	// Idempotent replay journal and the unfenced one-way window.
	journal        []*journalEntry
	journalKeys    map[jkey]*journalEntry
	unfenced       []op
	oldestUnfenced time.Duration
}

var _ gen.API = (*Lib)(nil)

// New returns a guest library speaking to the API server over t.
func New(t remoting.Caller, opt Opt) *Lib {
	l := &Lib{
		cl:        &gen.Client{},
		opt:       opt,
		localCost: 300 * time.Nanosecond,
	}
	l.adoptTransport(t)
	return l
}

// adoptTransport points the library at a (re)dialed transport. A recoverable
// library's per-call deadline becomes the connection's: it then bounds every
// round trip the connection makes, vectored ones included. Such a library
// needs a remoting.DeadlineCaller, as both built-in transports are.
func (l *Lib) adoptTransport(t remoting.Caller) {
	l.cl.T = t
	l.async, _ = t.(remoting.AsyncCaller)
	if l.rec != nil && l.rec.CallDeadline > 0 {
		t.(remoting.DeadlineCaller).SetCallDeadline(l.rec.CallDeadline)
	}
}

// Stats returns the call-disposition counters.
func (l *Lib) Stats() Stats { return l.stats }

// Opt returns the active optimization tier.
func (l *Lib) Opt() Opt { return l.opt }

// local charges the CPU cost of answering a call in the guest library.
func (l *Lib) local(p *sim.Proc) {
	l.stats.Total++
	l.stats.Localized++
	if l.localCost > 0 {
		p.Sleep(l.localCost)
	}
}

// batching reports whether the batching tier is on.
func (l *Lib) batching() bool { return l.opt&OptBatching != 0 }

// localizing reports whether guest-side localization is enabled.
func (l *Lib) localizing() bool { return l.opt&OptLocalDescriptors != 0 }

// --- session control (always remoted) ---

// Hello opens the function session. On a recoverable library it is the
// journal's first entry: every recovered session re-opens before replay.
func (l *Lib) Hello(p *sim.Proc, fnID string, memLimit int64) error {
	err := l.sync(p, func(p *sim.Proc) error { return l.cl.Hello(p, fnID, memLimit) })
	if err == nil && l.rec != nil {
		l.journalPut(jkey{kind: jSession}, func(p *sim.Proc) error { return l.cl.Hello(p, fnID, memLimit) })
	}
	return err
}

// Bye ends the function session and retires the replay journal.
func (l *Lib) Bye(p *sim.Proc) error {
	err := l.sync(p, func(p *sim.Proc) error { return l.cl.Bye(p) })
	if err == nil && l.rec != nil {
		l.journal = nil
		clear(l.journalKeys)
		l.clearUnfenced(false)
	}
	return err
}

// RegisterKernels ships the function's kernel symbols to the API server.
// Recoverable libraries hand out virtual function pointers: the context that
// re-registers after a failover mints different real ones. The one journal
// entry re-maps all of the call's pointers.
func (l *Lib) RegisterKernels(p *sim.Proc, names []string) ([]cuda.FnPtr, error) {
	ptrs, err := call(l, p, func(p *sim.Proc) ([]cuda.FnPtr, error) { return l.cl.RegisterKernels(p, names) })
	if err != nil || l.rec == nil {
		return ptrs, err
	}
	virts := make([]cuda.FnPtr, len(ptrs))
	for i, fp := range ptrs {
		virts[i] = cuda.FnPtr(virtFnBase + l.newVirt())
		l.virt[uint64(virts[i])] = uint64(fp)
	}
	l.journalPut(jkey{kind: jKernels, id: uint64(len(l.journal))}, func(p *sim.Proc) error {
		nps, err := l.cl.RegisterKernels(p, names)
		if err != nil {
			return err
		}
		for i, v := range virts {
			if i < len(nps) {
				l.virt[uint64(v)] = uint64(nps[i])
			}
		}
		return nil
	})
	return virts, nil
}

// ModelAttach asks the API server for a cached copy of the function's model
// working set; the returned pointer is tracked like a Malloc so localized
// pointer-attribute queries keep working.
func (l *Lib) ModelAttach(p *sim.Proc) (cuda.DevPtr, int64, int, error) {
	a, err := l.attach(p, func(p *sim.Proc) (a attached, err error) {
		a.ptr, a.size, a.aux, err = l.cl.ModelAttach(p)
		return
	})
	return a.ptr, a.size, a.aux, err
}

// ModelPersist offers an allocation to the API server's model cache. The
// allocation is gone from the session either way, like a Free, so its
// journal entries are retired: a recovered session does not re-persist.
func (l *Lib) ModelPersist(p *sim.Proc, ptr cuda.DevPtr) error {
	delete(l.ptrSizes, ptr)
	err := l.sync(p, func(p *sim.Proc) error { return l.cl.ModelPersist(p, l.xp(ptr)) })
	l.dropPtrEntries(ptr)
	return err
}

// --- device management ---

// GetDeviceCount mirrors cudaGetDeviceCount.
func (l *Lib) GetDeviceCount(p *sim.Proc) (int, error) {
	return call(l, p, l.cl.GetDeviceCount)
}

// GetDeviceProperties mirrors cudaGetDeviceProperties.
func (l *Lib) GetDeviceProperties(p *sim.Proc, dev int) (cuda.DeviceProp, error) {
	return call(l, p, func(p *sim.Proc) (cuda.DeviceProp, error) { return l.cl.GetDeviceProperties(p, dev) })
}

// SetDevice mirrors cudaSetDevice.
func (l *Lib) SetDevice(p *sim.Proc, dev int) error {
	return l.sync(p, func(p *sim.Proc) error { return l.cl.SetDevice(p, dev) })
}

// GetDevice mirrors cudaGetDevice; the virtual device is always 0, so the
// optimized guest answers locally.
func (l *Lib) GetDevice(p *sim.Proc) (int, error) {
	if l.localizing() {
		l.local(p)
		return 0, nil
	}
	return call(l, p, l.cl.GetDevice)
}

// MemGetInfo mirrors cudaMemGetInfo.
func (l *Lib) MemGetInfo(p *sim.Proc) (free, total int64, err error) {
	err = l.sync(p, func(p *sim.Proc) (err error) {
		free, total, err = l.cl.MemGetInfo(p)
		return
	})
	return
}

// DeviceSynchronize mirrors cudaDeviceSynchronize.
func (l *Lib) DeviceSynchronize(p *sim.Proc) error {
	return l.sync(p, l.cl.DeviceSynchronize)
}

// GetLastError mirrors cudaGetLastError.
func (l *Lib) GetLastError(p *sim.Proc) (int, error) {
	if l.localizing() {
		l.local(p)
		code := l.lastError
		l.lastError = 0
		return code, nil
	}
	return call(l, p, l.cl.GetLastError)
}

// DriverGetVersion mirrors cuDriverGetVersion.
func (l *Lib) DriverGetVersion(p *sim.Proc) (int, error) {
	if l.localizing() {
		l.local(p)
		return 10020, nil
	}
	return call(l, p, l.cl.DriverGetVersion)
}

// RuntimeGetVersion mirrors cudaRuntimeGetVersion.
func (l *Lib) RuntimeGetVersion(p *sim.Proc) (int, error) {
	if l.localizing() {
		l.local(p)
		return 10010, nil
	}
	return call(l, p, l.cl.RuntimeGetVersion)
}

// --- memory management ---

// Malloc mirrors cudaMalloc; the returned address is tracked for localized
// pointer-attribute queries. Recoverable libraries return a guest-virtual
// address and journal the allocation.
func (l *Lib) Malloc(p *sim.Proc, size int64) (cuda.DevPtr, error) {
	ptr, err := call(l, p, func(p *sim.Proc) (cuda.DevPtr, error) { return l.cl.Malloc(p, size) })
	if err != nil {
		return 0, err
	}
	if l.rec != nil {
		ptr = virtualize(l, l.newVirtPtr(size), ptr, func(p *sim.Proc) (cuda.DevPtr, error) { return l.cl.Malloc(p, size) })
	}
	l.track(ptr, size)
	return ptr, nil
}

// track records a fresh device allocation: in ptrSizes, which answers the
// application's pointer queries until it releases the allocation, and — on a
// recoverable library — in extents, which translates pointers into it until
// the server has confirmed the release (dropPtrEntries): calls deferred
// before a Free are encoded, and journaled uploads replayed, after it.
func (l *Lib) track(ptr cuda.DevPtr, size int64) {
	if l.ptrSizes == nil {
		l.ptrSizes = make(map[cuda.DevPtr]int64)
	}
	l.ptrSizes[ptr] = size
	if l.rec != nil {
		l.extents[ptr] = size
	}
}

// Free mirrors cudaFree. It is batchable but not deferrable in apigen's spec:
// releasing memory while one-way work may still reference it must drain the
// pipelined lane first, so there it is a synchronous call, which fences.
// Journal entries for the allocation are retired only once the free is
// confirmed: an unflushed free must still find the allocation replayed after
// a recovery.
func (l *Lib) Free(p *sim.Proc, ptr cuda.DevPtr) error {
	delete(l.ptrSizes, ptr)
	return l.submit(p, &op{id: gen.CallFree, ptr: ptr})
}

// Memset mirrors cudaMemset. Not journaled: memset output is intermediate
// state the function rebuilds, like kernel results.
func (l *Lib) Memset(p *sim.Proc, ptr cuda.DevPtr, value byte, size int64) error {
	return l.submit(p, &op{id: gen.CallMemset, ptr: ptr, value: value, size: size})
}

// MemcpyH2D mirrors cudaMemcpy(HostToDevice). Host-to-device copies need no
// result, so the pipelined tier submits them one-way, overlapping the
// transfer's network latency with guest compute. The source buffer lives in
// the guest, so the upload is journaled once confirmed: recovered sessions
// re-establish device contents from it.
func (l *Lib) MemcpyH2D(p *sim.Proc, dst cuda.DevPtr, src gpu.HostBuffer, size int64) error {
	return l.submit(p, &op{id: gen.CallMemcpyH2D, ptr: dst, src: src, size: size, reqData: size})
}

// MemcpyD2H mirrors cudaMemcpy(DeviceToHost).
func (l *Lib) MemcpyD2H(p *sim.Proc, src cuda.DevPtr, size int64) (gpu.HostBuffer, error) {
	return call(l, p, func(p *sim.Proc) (gpu.HostBuffer, error) { return l.cl.MemcpyD2H(p, l.xp(src), size) })
}

// MemWrite uploads caller-provided bytes to device memory: the vectored twin
// of MemcpyH2D. The generated client passes data borrowed, as the frame's
// bulk region, over a transport with the bulk lane, and fails the call over
// one without it. Journaled like MemcpyH2D so recovered sessions re-establish
// device contents — the journal retains its own copy, because the caller
// keeps ownership of data.
func (l *Lib) MemWrite(p *sim.Proc, dst cuda.DevPtr, data []byte) error {
	err := l.sync(p, func(p *sim.Proc) error { return l.cl.MemWrite(p, l.xp(dst), data) })
	if err == nil && l.rec != nil {
		kept := append([]byte(nil), data...)
		l.journalPut(jkey{kind: jUpload, id: uint64(dst), size: int64(len(kept))}, func(p *sim.Proc) error {
			return l.cl.MemWrite(p, l.xp(dst), kept)
		})
	}
	return err
}

// MemRead downloads device memory back to the caller: the vectored twin of
// MemcpyD2H.
func (l *Lib) MemRead(p *sim.Proc, src cuda.DevPtr, size int64) ([]byte, error) {
	return l.MemReadInto(p, src, size, nil)
}

// MemReadInto is MemRead with a caller-owned destination buffer: over a
// transport with the bulk lane a pre-sized dst makes the download
// allocation-free.
// The returned slice may alias dst.
func (l *Lib) MemReadInto(p *sim.Proc, src cuda.DevPtr, size int64, dst []byte) ([]byte, error) {
	return call(l, p, func(p *sim.Proc) ([]byte, error) { return l.cl.MemReadInto(p, l.xp(src), size, dst) })
}

// MemcpyD2D mirrors cudaMemcpy(DeviceToDevice). Not journaled: the copied
// contents are derived device state.
func (l *Lib) MemcpyD2D(p *sim.Proc, dst, src cuda.DevPtr, size int64) error {
	return l.sync(p, func(p *sim.Proc) error { return l.cl.MemcpyD2D(p, l.xp(dst), l.xp(src), size) })
}

// MallocHost mirrors cudaMallocHost: host-only state, so the optimized guest
// emulates it entirely (§V-C).
func (l *Lib) MallocHost(p *sim.Proc, size int64) (uint64, error) {
	if l.localizing() {
		l.local(p)
		l.nextHost++
		ptr := 0x6000_0000_0000 + l.nextHost<<12
		if l.hostAllocs == nil {
			l.hostAllocs = make(map[uint64]int64)
		}
		l.hostAllocs[ptr] = size
		return ptr, nil
	}
	ptr, err := call(l, p, func(p *sim.Proc) (uint64, error) { return l.cl.MallocHost(p, size) })
	if err == nil && l.rec != nil {
		ptr = virtualize(l, virtHostBase+l.newVirt()<<12, ptr, func(p *sim.Proc) (uint64, error) { return l.cl.MallocHost(p, size) })
	}
	return ptr, err
}

// FreeHost mirrors cudaFreeHost.
func (l *Lib) FreeHost(p *sim.Proc, ptr uint64) error {
	if l.localizing() {
		l.local(p)
		if _, ok := l.hostAllocs[ptr]; !ok {
			return cuda.ErrInvalidValue
		}
		delete(l.hostAllocs, ptr)
		return nil
	}
	err := l.sync(p, func(p *sim.Proc) error { return l.cl.FreeHost(p, xh(l, ptr)) })
	if err == nil {
		l.forget(ptr)
	}
	return err
}

// PointerGetAttributes mirrors cudaPointerGetAttributes. With batching
// optimizations on, the guest answers from the addresses it tracked at
// allocation time.
func (l *Lib) PointerGetAttributes(p *sim.Proc, ptr cuda.DevPtr) (cuda.PtrAttributes, error) {
	if l.batching() {
		l.local(p)
		for base, size := range l.ptrSizes {
			if ptr >= base && uint64(ptr) < uint64(base)+uint64(size) {
				return cuda.PtrAttributes{Device: 0, Size: size, IsDevice: true}, nil
			}
		}
		return cuda.PtrAttributes{}, cuda.ErrInvalidValue
	}
	return call(l, p, func(p *sim.Proc) (cuda.PtrAttributes, error) { return l.cl.PointerGetAttributes(p, l.xp(ptr)) })
}

// --- execution ---

// PushCallConfiguration mirrors __cudaPushCallConfiguration. Optimized
// guests keep the configuration local and piggyback it onto the launch.
func (l *Lib) PushCallConfiguration(p *sim.Proc, grid, block [3]int, stream cuda.StreamHandle) error {
	if l.batching() {
		l.local(p)
		l.cfgStack = append(l.cfgStack, gen.PushCallConfigurationReq{Grid: grid, Block: block, Stream: stream})
		return nil
	}
	return l.sync(p, func(p *sim.Proc) error {
		return l.cl.PushCallConfiguration(p, grid, block, xh(l, stream))
	})
}

// PopCallConfiguration mirrors __cudaPopCallConfiguration.
func (l *Lib) PopCallConfiguration(p *sim.Proc) error {
	if l.batching() {
		l.local(p)
		if n := len(l.cfgStack); n > 0 {
			l.cfgStack = l.cfgStack[:n-1]
		}
		return nil
	}
	return l.sync(p, l.cl.PopCallConfiguration)
}

// LaunchKernel mirrors cudaLaunchKernel. A guest whose launch is a forwarded
// call of its own reproduces the native call pattern — push configuration,
// launch, pop configuration — as three forwarded calls; on a deferring lane
// the configuration rides inside the one launch message.
func (l *Lib) LaunchKernel(p *sim.Proc, lp cuda.LaunchParams) error {
	forwarded := l.laneOf(gen.CallLaunchKernel) == laneSync
	if forwarded {
		if err := l.PushCallConfiguration(p, lp.Grid, lp.Block, lp.Stream); err != nil {
			return err
		}
	}
	if err := l.submit(p, &op{id: gen.CallLaunchKernel, lp: lp}); err != nil || !forwarded {
		return err
	}
	return l.PopCallConfiguration(p)
}

// StreamCreate mirrors cudaStreamCreate.
func (l *Lib) StreamCreate(p *sim.Proc) (cuda.StreamHandle, error) {
	return create(l, p, virtStreamBase, (*gen.Client).StreamCreate)
}

// StreamDestroy mirrors cudaStreamDestroy.
func (l *Lib) StreamDestroy(p *sim.Proc, h cuda.StreamHandle) error {
	return l.submit(p, &op{id: gen.CallStreamDestroy, handle: uint64(h)})
}

// StreamSynchronize mirrors cudaStreamSynchronize.
func (l *Lib) StreamSynchronize(p *sim.Proc, h cuda.StreamHandle) error {
	return l.sync(p, func(p *sim.Proc) error { return l.cl.StreamSynchronize(p, xh(l, h)) })
}

// EventCreate mirrors cudaEventCreate.
func (l *Lib) EventCreate(p *sim.Proc) (cuda.EventHandle, error) {
	return create(l, p, virtEventBase, (*gen.Client).EventCreate)
}

// EventDestroy mirrors cudaEventDestroy.
func (l *Lib) EventDestroy(p *sim.Proc, h cuda.EventHandle) error {
	return l.submit(p, &op{id: gen.CallEventDestroy, handle: uint64(h)})
}

// EventRecord mirrors cudaEventRecord. Not journaled: a recorded timestamp
// is transient timing state, re-sent with the unfenced window if pending.
func (l *Lib) EventRecord(p *sim.Proc, h cuda.EventHandle, stream cuda.StreamHandle) error {
	return l.submit(p, &op{id: gen.CallEventRecord, handle: uint64(h), stream: stream})
}

// EventSynchronize mirrors cudaEventSynchronize.
func (l *Lib) EventSynchronize(p *sim.Proc, h cuda.EventHandle) error {
	return l.sync(p, func(p *sim.Proc) error { return l.cl.EventSynchronize(p, xh(l, h)) })
}

// EventElapsed mirrors cudaEventElapsedTime.
func (l *Lib) EventElapsed(p *sim.Proc, start, end cuda.EventHandle) (time.Duration, error) {
	return call(l, p, func(p *sim.Proc) (time.Duration, error) {
		return l.cl.EventElapsed(p, xh(l, start), xh(l, end))
	})
}

// --- cuDNN ---

// DnnCreate mirrors cudnnCreate.
func (l *Lib) DnnCreate(p *sim.Proc) (cudalibs.DNNHandle, error) {
	return create(l, p, virtDnnBase, (*gen.Client).DnnCreate)
}

// DnnDestroy mirrors cudnnDestroy.
func (l *Lib) DnnDestroy(p *sim.Proc, h cudalibs.DNNHandle) error {
	return l.submit(p, &op{id: gen.CallDnnDestroy, handle: uint64(h)})
}

// DnnSetStream mirrors cudnnSetStream. The binding is journaled once
// confirmed (keyed per handle, last set wins) so a recovered handle is
// re-bound to its stream.
func (l *Lib) DnnSetStream(p *sim.Proc, h cudalibs.DNNHandle, stream cuda.StreamHandle) error {
	return l.submit(p, &op{id: gen.CallDnnSetStream, handle: uint64(h), stream: stream})
}

// DnnGetConvolutionWorkspaceSize mirrors its cuDNN namesake.
func (l *Lib) DnnGetConvolutionWorkspaceSize(p *sim.Proc, d cudalibs.Descriptor) (int64, error) {
	if l.localizing() && l.localDescs[d] {
		// Descriptor state lives in the guest; answer without remoting.
		l.local(p)
		return 64 << 20, nil
	}
	return call(l, p, func(p *sim.Proc) (int64, error) { return l.cl.DnnGetConvolutionWorkspaceSize(p, xh(l, d)) })
}

// DnnForward runs a cuDNN compute primitive on the API server. Descriptor
// arguments pooled guest-side are stripped before forwarding: the server's
// kernels depend only on shapes already encoded in the op.
func (l *Lib) DnnForward(p *sim.Proc, h cudalibs.DNNHandle, op string, dur time.Duration, bufs []cuda.DevPtr, descs []uint64) error {
	if l.localizing() {
		descs = nil // guest-held descriptors are meaningless to the server
	}
	return l.sync(p, func(p *sim.Proc) error {
		return l.cl.DnnForward(p, xh(l, h), op, dur, l.xptrs(bufs), l.xdescs(descs))
	})
}

// --- cuBLAS ---

// BlasCreate mirrors cublasCreate.
func (l *Lib) BlasCreate(p *sim.Proc) (cudalibs.BLASHandle, error) {
	return create(l, p, virtBlasBase, (*gen.Client).BlasCreate)
}

// BlasDestroy mirrors cublasDestroy.
func (l *Lib) BlasDestroy(p *sim.Proc, h cudalibs.BLASHandle) error {
	return l.submit(p, &op{id: gen.CallBlasDestroy, handle: uint64(h)})
}

// BlasSetStream mirrors cublasSetStream; journaled like DnnSetStream.
func (l *Lib) BlasSetStream(p *sim.Proc, h cudalibs.BLASHandle, stream cuda.StreamHandle) error {
	return l.submit(p, &op{id: gen.CallBlasSetStream, handle: uint64(h), stream: stream})
}

// BlasGemm mirrors cublasSgemm.
func (l *Lib) BlasGemm(p *sim.Proc, h cudalibs.BLASHandle, dur time.Duration, bufs []cuda.DevPtr) error {
	return l.sync(p, func(p *sim.Proc) error {
		return l.cl.BlasGemm(p, xh(l, h), dur, l.xptrs(bufs))
	})
}
