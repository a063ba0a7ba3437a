package guest

import (
	"errors"
	"testing"
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/gpu"
	"dgsf/internal/native"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

// countingLoopback satisfies remoting.Caller by dispatching straight into a
// native backend, counting messages and recording the call IDs that crossed.
type countingLoopback struct {
	b     gen.API
	n     int
	calls []uint16
}

func (l *countingLoopback) Roundtrip(p *sim.Proc, req []byte, reqData int64) ([]byte, error) {
	l.n++
	id := uint16(0)
	if len(req) >= 2 {
		id = uint16(req[0]) | uint16(req[1])<<8
		l.calls = append(l.calls, id)
	}
	if id == remoting.CallBatch {
		// Unpack the batch container the way an API server does.
		d := wire.NewDecoder(req)
		_ = d.U16()
		n := int(d.U32())
		firstErr := 0
		for i := 0; i < n && d.Err() == nil; i++ {
			entry := d.BytesField()
			resp, _ := gen.Dispatch(p, l.b, entry)
			rd := wire.NewDecoder(resp)
			if code := int(rd.I32()); code != 0 && firstErr == 0 {
				firstErr = code
			}
		}
		var e wire.Encoder
		e.I32(int32(firstErr))
		return e.Bytes(), nil
	}
	resp, _ := gen.Dispatch(p, l.b, req)
	return resp, nil
}
func (l *countingLoopback) Close() {}

// rig builds a guest library over a counting loopback to a native backend.
func rig(e *sim.Engine, p *sim.Proc, opt Opt) (*Lib, *countingLoopback) {
	cfg := gpu.V100Config(0)
	cfg.CopyLat, cfg.KernelLat = 0, 0
	dev := gpu.New(e, cfg)
	rt := cuda.NewRuntime(e, []*gpu.Device{dev}, cuda.Costs{})
	lb := &countingLoopback{b: native.New(rt, cudalibs.Costs{})}
	return New(lb, opt), lb
}

func TestStatsIdentity(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		lib, _ := rig(e, p, OptAll)
		_ = lib.Hello(p, "fn", 1<<30)
		ptr, _ := lib.Malloc(p, 1<<20)
		_ = lib.Memset(p, ptr, 0, 1<<20)
		_, _ = lib.DnnCreateTensorDescriptor(p)
		_, _ = lib.GetLastError(p)
		lib.FlushBatch(p)
		st := lib.Stats()
		if st.Total != st.Remoted+st.Batched+st.Localized {
			t.Fatalf("stats identity broken: %+v", st)
		}
		if st.Roundtrips() != st.Remoted+st.Batches {
			t.Fatalf("roundtrip identity broken: %+v", st)
		}
	})
}

func TestOptNoneRemotesEverything(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		lib, lb := rig(e, p, OptNone)
		_ = lib.Hello(p, "fn", 1<<30)
		d, err := lib.DnnCreateTensorDescriptor(p)
		if err != nil {
			t.Fatal(err)
		}
		_ = lib.DnnSetTensorDescriptor(p, d)
		_, _ = lib.MallocHost(p, 4096)
		_, _ = lib.GetLastError(p)
		st := lib.Stats()
		if st.Localized != 0 || st.Batched != 0 {
			t.Fatalf("unoptimized guest localized/batched calls: %+v", st)
		}
		if st.Remoted != lb.n {
			t.Fatalf("remoted count %d != %d messages on the wire", st.Remoted, lb.n)
		}
	})
}

func TestUnoptimizedLaunchIsThreeCalls(t *testing.T) {
	// Native launch = __cudaPushCallConfiguration + cudaLaunchKernel +
	// __cudaPopCallConfiguration; the unoptimized guest forwards all three.
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		lib, lb := rig(e, p, OptNone)
		_ = lib.Hello(p, "fn", 1<<30)
		fns, _ := lib.RegisterKernels(p, []string{"k"})
		before := lb.n
		if err := lib.LaunchKernel(p, cuda.LaunchParams{Fn: fns[0], Duration: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		if got := lb.n - before; got != 3 {
			t.Fatalf("unoptimized launch used %d round trips, want 3", got)
		}
		seq := lb.calls[len(lb.calls)-3:]
		want := []uint16{gen.CallPushCallConfiguration, gen.CallLaunchKernel, gen.CallPopCallConfiguration}
		for i := range want {
			if seq[i] != want[i] {
				t.Fatalf("launch sequence = %v, want %v", seq, want)
			}
		}
	})
}

func TestBatchingLaunchIsZeroRoundTripsUntilFlush(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		lib, lb := rig(e, p, OptAll)
		_ = lib.Hello(p, "fn", 1<<30)
		fns, _ := lib.RegisterKernels(p, []string{"k"})
		before := lb.n
		for i := 0; i < 10; i++ {
			if err := lib.LaunchKernel(p, cuda.LaunchParams{Fn: fns[0], Duration: time.Millisecond}); err != nil {
				t.Fatal(err)
			}
		}
		if lb.n != before {
			t.Fatalf("batched launches crossed the wire early (%d messages)", lb.n-before)
		}
		lib.FlushBatch(p)
		if got := lb.n - before; got != 1 {
			t.Fatalf("flush used %d round trips, want 1", got)
		}
	})
}

func TestSynchronousCallFlushesPendingBatch(t *testing.T) {
	// Ordering: batched work must reach the server before any synchronous
	// call that could observe its effects.
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		lib, _ := rig(e, p, OptAll)
		_ = lib.Hello(p, "fn", 1<<30)
		fns, _ := lib.RegisterKernels(p, []string{"mutator"})
		ptr, _ := lib.Malloc(p, 1<<20)
		_ = lib.Memset(p, ptr, 0, 1<<20) // batched
		base, _ := lib.MemcpyD2H(p, ptr, 1<<20)
		_ = lib.LaunchKernel(p, cuda.LaunchParams{Fn: fns[0], Duration: time.Millisecond, Mutates: []cuda.DevPtr{ptr}}) // batched
		_ = lib.StreamSynchronize(p, 0)
		after, _ := lib.MemcpyD2H(p, ptr, 1<<20)
		if base.FP == after.FP {
			t.Fatal("batched memset/launch not visible to subsequent synchronous reads")
		}
	})
}

func TestLocalDescriptorsNeverCrossTheWire(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		lib, lb := rig(e, p, OptLocalDescriptors)
		_ = lib.Hello(p, "fn", 1<<30)
		before := lb.n
		for i := 0; i < 50; i++ {
			d, err := lib.DnnCreateConvolutionDescriptor(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := lib.DnnSetConvolutionDescriptor(p, d); err != nil {
				t.Fatal(err)
			}
			if err := lib.DnnDestroyConvolutionDescriptor(p, d); err != nil {
				t.Fatal(err)
			}
		}
		if lb.n != before {
			t.Fatalf("descriptor churn crossed the wire %d times", lb.n-before)
		}
		if st := lib.Stats(); st.Localized != 150 {
			t.Fatalf("localized = %d, want 150", st.Localized)
		}
		// Stale descriptor handles are rejected locally too.
		if err := lib.DnnSetTensorDescriptor(p, 0xDEAD); !errors.Is(err, cuda.ErrInvalidResourceHandle) {
			t.Fatalf("stale descriptor err = %v", err)
		}
	})
}

func TestHostMemoryEmulation(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		lib, lb := rig(e, p, OptLocalDescriptors)
		_ = lib.Hello(p, "fn", 1<<30)
		before := lb.n
		ptr, err := lib.MallocHost(p, 1<<20)
		if err != nil || ptr == 0 {
			t.Fatalf("MallocHost = (%v, %v)", ptr, err)
		}
		if err := lib.FreeHost(p, ptr); err != nil {
			t.Fatal(err)
		}
		if err := lib.FreeHost(p, ptr); !errors.Is(err, cuda.ErrInvalidValue) {
			t.Fatalf("double FreeHost = %v", err)
		}
		if lb.n != before {
			t.Fatal("host-only memory APIs crossed the wire")
		}
	})
}

func TestLocalPointerAttributes(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		lib, lb := rig(e, p, OptAll)
		_ = lib.Hello(p, "fn", 1<<30)
		ptr, _ := lib.Malloc(p, 1<<20)
		before := lb.n
		a, err := lib.PointerGetAttributes(p, ptr+4096) // interior pointer
		if err != nil || !a.IsDevice || a.Size != 1<<20 {
			t.Fatalf("attrs = (%+v, %v)", a, err)
		}
		if _, err := lib.PointerGetAttributes(p, cuda.DevPtr(12345)); !errors.Is(err, cuda.ErrInvalidValue) {
			t.Fatalf("unknown pointer err = %v", err)
		}
		if lb.n != before {
			t.Fatal("pointer attribute queries crossed the wire")
		}
	})
}

func TestVersionAndDeviceQueriesLocalized(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		lib, lb := rig(e, p, OptAll)
		_ = lib.Hello(p, "fn", 1<<30)
		before := lb.n
		if v, _ := lib.RuntimeGetVersion(p); v != 10010 {
			t.Fatalf("runtime version = %d", v)
		}
		if v, _ := lib.DriverGetVersion(p); v != 10020 {
			t.Fatalf("driver version = %d", v)
		}
		if d, _ := lib.GetDevice(p); d != 0 {
			t.Fatalf("GetDevice = %d", d)
		}
		if lb.n != before {
			t.Fatal("version/device queries crossed the wire")
		}
	})
}

func TestPushPopConfigurationLocalizedWhenBatching(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		lib, lb := rig(e, p, OptAll)
		_ = lib.Hello(p, "fn", 1<<30)
		before := lb.n
		if err := lib.PushCallConfiguration(p, [3]int{1, 1, 1}, [3]int{256, 1, 1}, 0); err != nil {
			t.Fatal(err)
		}
		if err := lib.PopCallConfiguration(p); err != nil {
			t.Fatal(err)
		}
		if lb.n != before {
			t.Fatal("launch configuration crossed the wire despite batching")
		}
	})
}

// TestLocalCallsAllocateNothing: a call the optimized guest answers from its
// own state costs no heap allocation, inside a running simulation.
func TestLocalCallsAllocateNothing(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		lib, lb := rig(e, p, OptAll)
		_ = lib.Hello(p, "fn", 1<<30)
		ptr, _ := lib.Malloc(p, 1<<20)
		before := lb.n
		ops := []struct {
			name string
			op   func()
		}{
			{"tensor descriptor", func() {
				d, _ := lib.DnnCreateTensorDescriptor(p)
				_ = lib.DnnSetTensorDescriptor(p, d)
				_ = lib.DnnDestroyTensorDescriptor(p, d)
			}},
			{"filter descriptor", func() {
				d, _ := lib.DnnCreateFilterDescriptor(p)
				_ = lib.DnnSetFilterDescriptor(p, d)
				_ = lib.DnnDestroyFilterDescriptor(p, d)
			}},
			{"convolution descriptor", func() {
				d, _ := lib.DnnCreateConvolutionDescriptor(p)
				_ = lib.DnnSetConvolutionDescriptor(p, d)
				_, _ = lib.DnnGetConvolutionWorkspaceSize(p, d)
				_ = lib.DnnDestroyConvolutionDescriptor(p, d)
			}},
			{"activation descriptor", func() {
				d, _ := lib.DnnCreateActivationDescriptor(p)
				_ = lib.DnnSetActivationDescriptor(p, d)
				_ = lib.DnnDestroyActivationDescriptor(p, d)
			}},
			{"pooling descriptor", func() {
				d, _ := lib.DnnCreatePoolingDescriptor(p)
				_ = lib.DnnSetPoolingDescriptor(p, d)
				_ = lib.DnnDestroyPoolingDescriptor(p, d)
			}},
			{"GetLastError", func() { _, _ = lib.GetLastError(p) }},
			{"GetDevice", func() { _, _ = lib.GetDevice(p) }},
			{"version queries", func() {
				_, _ = lib.DriverGetVersion(p)
				_, _ = lib.RuntimeGetVersion(p)
			}},
			{"MallocHost/FreeHost", func() {
				h, _ := lib.MallocHost(p, 4096)
				_ = lib.FreeHost(p, h)
			}},
			{"push/pop configuration", func() {
				_ = lib.PushCallConfiguration(p, [3]int{1, 1, 1}, [3]int{256, 1, 1}, 0)
				_ = lib.PopCallConfiguration(p)
			}},
			{"PointerGetAttributes", func() { _, _ = lib.PointerGetAttributes(p, ptr+4096) }},
		}
		for _, tc := range ops {
			for i := 0; i < 100; i++ {
				tc.op()
			}
			if allocs := testing.AllocsPerRun(200, tc.op); allocs != 0 {
				t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
			}
		}
		if lb.n != before {
			t.Fatalf("locally answered calls crossed the wire %d times", lb.n-before)
		}
	})
}

// asyncLoopback extends the counting loopback with the pipelined lane:
// Submit executes CallAsync-wrapped messages immediately (a loopback has no
// latency to hide) and latches the first error; a CallFence round trip
// reports and clears it, mirroring the API server's semantics.
type asyncLoopback struct {
	countingLoopback
	submits int
	latched int32
}

func (l *asyncLoopback) Roundtrip(p *sim.Proc, req []byte, reqData int64) ([]byte, error) {
	if len(req) >= 2 {
		if id := uint16(req[0]) | uint16(req[1])<<8; id == remoting.CallFence {
			l.n++
			var e wire.Encoder
			e.I32(l.latched)
			l.latched = 0
			return e.Bytes(), nil
		}
	}
	return l.countingLoopback.Roundtrip(p, req, reqData)
}

func (l *asyncLoopback) Submit(p *sim.Proc, req []byte, reqData int64) error {
	l.submits++
	resp, _ := gen.Dispatch(p, l.b, req[2:]) // strip the CallAsync wrapper
	rd := wire.NewDecoder(resp)
	if code := rd.I32(); code != 0 && l.latched == 0 {
		l.latched = code
	}
	return nil
}

// rigAsync builds a guest library over an async-capable loopback.
func rigAsync(e *sim.Engine, p *sim.Proc, opt Opt) (*Lib, *asyncLoopback) {
	cfg := gpu.V100Config(0)
	cfg.CopyLat, cfg.KernelLat = 0, 0
	dev := gpu.New(e, cfg)
	rt := cuda.NewRuntime(e, []*gpu.Device{dev}, cuda.Costs{})
	lb := &asyncLoopback{countingLoopback: countingLoopback{b: native.New(rt, cudalibs.Costs{})}}
	return New(lb, opt), lb
}

func TestAsyncSubmissionsAreZeroRoundTripsUntilSync(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		lib, lb := rigAsync(e, p, OptAll|OptAsync)
		_ = lib.Hello(p, "fn", 1<<30)
		fns, _ := lib.RegisterKernels(p, []string{"k"})
		ptr, _ := lib.Malloc(p, 1<<20)
		before := lb.n
		_ = lib.MemcpyH2D(p, ptr, gpu.HostBuffer{FP: 1, Size: 1 << 20}, 1<<20)
		_ = lib.Memset(p, ptr, 0, 1<<20)
		for i := 0; i < 10; i++ {
			if err := lib.LaunchKernel(p, cuda.LaunchParams{Fn: fns[0], Duration: time.Millisecond, Mutates: []cuda.DevPtr{ptr}}); err != nil {
				t.Fatal(err)
			}
		}
		if lb.n != before {
			t.Fatalf("async submissions used %d round trips", lb.n-before)
		}
		if lb.submits != 12 {
			t.Fatalf("submits = %d, want 12", lb.submits)
		}
		// A synchronizing call drains the lane: one fence plus itself.
		if _, err := lib.MemcpyD2H(p, ptr, 1<<20); err != nil {
			t.Fatal(err)
		}
		if got := lb.n - before; got != 2 {
			t.Fatalf("synchronizing call after async burst used %d round trips, want 2 (fence + call)", got)
		}
		st := lib.Stats()
		if st.Async != 12 || st.Fences != 1 {
			t.Fatalf("stats = %+v, want 12 async / 1 fence", st)
		}
		if st.Total != st.Remoted+st.Batched+st.Localized+st.Async {
			t.Fatalf("stats identity broken with async lane: %+v", st)
		}
		if st.Roundtrips() != st.Remoted+st.Batches+st.Fences {
			t.Fatalf("roundtrip identity broken: %+v", st)
		}
	})
}

func TestAsyncErrorSurfacesAtFenceNotBefore(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		lib, lb := rigAsync(e, p, OptAll|OptAsync)
		_ = lib.Hello(p, "fn", 1<<30)
		// A one-way memset of unallocated memory fails on the server and
		// latches; the submission itself reports success.
		if err := lib.Memset(p, cuda.DevPtr(0xDEAD0000), 0, 4096); err != nil {
			t.Fatalf("async submission surfaced error early: %v", err)
		}
		if lb.latched == 0 {
			t.Fatal("loopback did not latch the async error")
		}
		// Before any fence the guest has not seen the error.
		if code, _ := lib.GetLastError(p); code != 0 {
			t.Fatalf("error visible before fence: %d", code)
		}
		// The next synchronizing call fences and pulls the latched error in.
		if err := lib.DeviceSynchronize(p); err != nil {
			t.Fatal(err)
		}
		code, _ := lib.GetLastError(p)
		if code == 0 {
			t.Fatal("latched async error not surfaced after fence")
		}
		// Sticky semantics: reading it cleared it.
		if again, _ := lib.GetLastError(p); again != 0 {
			t.Fatalf("error not cleared after read: %d", again)
		}
	})
}

func TestAsyncFreeIsSynchronizing(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		lib, lb := rigAsync(e, p, OptAll|OptAsync)
		_ = lib.Hello(p, "fn", 1<<30)
		ptr, _ := lib.Malloc(p, 1<<20)
		_ = lib.Memset(p, ptr, 0, 1<<20) // async
		before := lb.n
		if err := lib.Free(p, ptr); err != nil {
			t.Fatal(err)
		}
		// Free drained the lane (fence) and executed synchronously.
		if got := lb.n - before; got != 2 {
			t.Fatalf("free used %d round trips, want 2 (fence + free)", got)
		}
	})
}

func TestOptAsyncDegradesWithoutAsyncTransport(t *testing.T) {
	// A transport implementing only Caller (e.g. a test double) silently
	// falls back to the batching tier.
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		lib, lb := rig(e, p, OptAll|OptAsync)
		_ = lib.Hello(p, "fn", 1<<30)
		ptr, _ := lib.Malloc(p, 1<<20)
		before := lb.n
		_ = lib.Memset(p, ptr, 0, 1<<20)
		if lb.n != before {
			t.Fatal("memset crossed the wire instead of batching")
		}
		lib.FlushBatch(p)
		st := lib.Stats()
		if st.Async != 0 || st.Fences != 0 {
			t.Fatalf("async lane used without transport support: %+v", st)
		}
		if st.Batched == 0 {
			t.Fatalf("fallback did not batch: %+v", st)
		}
	})
}

// --- crash-recovery tests ---

// flakyAsync is an async loopback that can die like a severed connection:
// once broken, every roundtrip and submission fails with ErrConnClosed.
type flakyAsync struct {
	asyncLoopback
	broken bool
}

func (l *flakyAsync) Roundtrip(p *sim.Proc, req []byte, reqData int64) ([]byte, error) {
	if l.broken {
		return nil, remoting.ErrConnClosed
	}
	return l.asyncLoopback.Roundtrip(p, req, reqData)
}

func (l *flakyAsync) Submit(p *sim.Proc, req []byte, reqData int64) error {
	if l.broken {
		return remoting.ErrConnClosed
	}
	return l.asyncLoopback.Submit(p, req, reqData)
}

func (l *flakyAsync) Close() { l.broken = true }

// recoveryRig hands out fresh backends on redial: each conn fronts a brand
// new native runtime, so replayed sessions land on different real handles —
// exactly the situation the guest's handle translation must absorb.
type recoveryRig struct {
	e     *sim.Engine
	conns []*flakyAsync
}

func (r *recoveryRig) dial() *flakyAsync {
	cfg := gpu.V100Config(0)
	cfg.CopyLat, cfg.KernelLat = 0, 0
	dev := gpu.New(r.e, cfg)
	rt := cuda.NewRuntime(r.e, []*gpu.Device{dev}, cuda.Costs{})
	c := &flakyAsync{asyncLoopback: asyncLoopback{countingLoopback: countingLoopback{b: native.New(rt, cudalibs.Costs{})}}}
	r.conns = append(r.conns, c)
	return c
}

func rigRecoverable(e *sim.Engine, opt Opt) (*Lib, *recoveryRig) {
	r := &recoveryRig{e: e}
	rc := RecoveryConfig{
		Redial:      func(p *sim.Proc) (remoting.Caller, error) { return r.dial(), nil },
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		BackoffCap:  8 * time.Millisecond,
	}
	return NewRecoverable(r.dial(), opt, rc), r
}

func sawCall(calls []uint16, id uint16) bool {
	for _, c := range calls {
		if c == id {
			return true
		}
	}
	return false
}

func TestRecoveryRedialsAndReplaysJournal(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		lib, r := rigRecoverable(e, OptAll|OptAsync)
		if err := lib.Hello(p, "fn", 1<<30); err != nil {
			t.Fatal(err)
		}
		fns, err := lib.RegisterKernels(p, []string{"k"})
		if err != nil {
			t.Fatal(err)
		}
		ptr, err := lib.Malloc(p, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if err := lib.MemcpyH2D(p, ptr, gpu.HostBuffer{FP: 1, Size: 1 << 20}, 1<<20); err != nil {
			t.Fatal(err)
		}
		stream, err := lib.StreamCreate(p)
		if err != nil {
			t.Fatal(err)
		}
		dnn, err := lib.DnnCreate(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := lib.DnnSetStream(p, dnn, stream); err != nil {
			t.Fatal(err)
		}
		if err := lib.DeviceSynchronize(p); err != nil {
			t.Fatal(err)
		}

		// The server vanishes between calls.
		r.conns[0].broken = true

		// The next synchronous call recovers transparently.
		if err := lib.DeviceSynchronize(p); err != nil {
			t.Fatalf("call across conn loss = %v, want recovery", err)
		}
		st := lib.Stats()
		if st.Recoveries != 1 || st.Redials != 1 {
			t.Fatalf("recoveries/redials = %d/%d, want 1/1", st.Recoveries, st.Redials)
		}
		if len(r.conns) != 2 {
			t.Fatalf("dialed %d conns, want 2", len(r.conns))
		}
		// The journal replayed every state-establishing call on the fresh
		// backend, in its original order.
		for _, id := range []uint16{gen.CallHello, gen.CallRegisterKernels, gen.CallMalloc,
			gen.CallMemcpyH2D, gen.CallStreamCreate, gen.CallDnnCreate, gen.CallDnnSetStream} {
			if !sawCall(r.conns[1].calls, id) {
				t.Errorf("replay did not re-issue call %d on the new backend", id)
			}
		}
		if st.Replayed == 0 {
			t.Fatal("stats recorded no replayed journal entries")
		}
		// Pre-failure handles stay valid: translation maps them onto the new
		// backend's real handles.
		if err := lib.Memset(p, ptr, 0, 1<<20); err != nil {
			t.Fatalf("old devptr after recovery: %v", err)
		}
		if err := lib.LaunchKernel(p, cuda.LaunchParams{Fn: fns[0], Duration: time.Millisecond, Mutates: []cuda.DevPtr{ptr}}); err != nil {
			t.Fatalf("old fnptr after recovery: %v", err)
		}
		if err := lib.StreamSynchronize(p, stream); err != nil {
			t.Fatalf("old stream after recovery: %v", err)
		}
		if err := lib.DeviceSynchronize(p); err != nil {
			t.Fatal(err)
		}
		if code, _ := lib.GetLastError(p); code != 0 {
			t.Fatalf("recovered session carries error %d", code)
		}
	})
}

// TestInteriorPointerSurvivesPendingFree: calls deferred before Free(a) are
// encoded after it, so on a recoverable library a pointer into a — a Memset's
// target, a launch's Mutates, a journaled upload replayed by a recovery inside
// the flush — must translate until the release is confirmed, while the
// application's own view of a ends with the Free call. At e92d817 Free dropped
// the extent at call time and the flush left cudaErrorInvalidAddressSpace.
func TestInteriorPointerSurvivesPendingFree(t *testing.T) {
	for _, fault := range []bool{false, true} {
		e := sim.NewEngine(1)
		e.Run("root", func(p *sim.Proc) {
			lib, r := rigRecoverable(e, OptAll)
			if err := lib.Hello(p, "fn", 1<<30); err != nil {
				t.Fatal(err)
			}
			fns, err := lib.RegisterKernels(p, []string{"k"})
			if err != nil {
				t.Fatal(err)
			}
			a, err := lib.Malloc(p, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if err := lib.MemcpyH2D(p, a+4096, gpu.HostBuffer{FP: 1, Size: 4096}, 4096); err != nil {
				t.Fatal(err)
			}
			before := lib.Stats().Roundtrips()
			_ = lib.Memset(p, a+8192, 0, 4096)
			_ = lib.LaunchKernel(p, cuda.LaunchParams{Fn: fns[0], Duration: time.Millisecond, Mutates: []cuda.DevPtr{a + 12288}})
			_ = lib.Free(p, a)
			if got := lib.Stats().Roundtrips(); got != before {
				t.Fatalf("fault=%v: the three calls took %d round trips, want all batched", fault, got-before)
			}
			if _, err := lib.PointerGetAttributes(p, a); !errors.Is(err, cuda.ErrInvalidValue) {
				t.Errorf("fault=%v: PointerGetAttributes of the freed pointer = %v, want ErrInvalidValue", fault, err)
			}
			if fault {
				r.conns[0].broken = true
			}
			if err := lib.DeviceSynchronize(p); err != nil {
				t.Fatalf("fault=%v: flush: %v", fault, err)
			}
			if code, _ := lib.GetLastError(p); code != 0 {
				t.Errorf("fault=%v: batch with interior pointers before Free left error %d", fault, code)
			}
			if fault && lib.Stats().Recoveries != 1 {
				t.Errorf("recoveries = %d, want 1", lib.Stats().Recoveries)
			}
		})
	}
}

func TestFenceAfterConnLossRecoversUnfencedWindow(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		lib, r := rigRecoverable(e, OptAll|OptAsync)
		_ = lib.Hello(p, "fn", 1<<30)
		fns, _ := lib.RegisterKernels(p, []string{"k"})
		ptr, _ := lib.Malloc(p, 1<<20)
		if err := lib.DeviceSynchronize(p); err != nil {
			t.Fatal(err)
		}
		// Three launches enter the pipelined lane, then the conn dies with
		// all three unfenced.
		for i := 0; i < 3; i++ {
			if err := lib.LaunchKernel(p, cuda.LaunchParams{Fn: fns[0], Duration: time.Millisecond, Mutates: []cuda.DevPtr{ptr}}); err != nil {
				t.Fatal(err)
			}
		}
		r.conns[0].broken = true
		// A further submission recovers the session in-line...
		if err := lib.LaunchKernel(p, cuda.LaunchParams{Fn: fns[0], Duration: time.Millisecond, Mutates: []cuda.DevPtr{ptr}}); err != nil {
			t.Fatalf("async submit across conn loss = %v, want recovery", err)
		}
		// ...and the fence drains the re-sent window without hanging.
		if err := lib.DeviceSynchronize(p); err != nil {
			t.Fatal(err)
		}
		st := lib.Stats()
		if st.Recoveries != 1 {
			t.Fatalf("recoveries = %d, want 1", st.Recoveries)
		}
		// The new backend executed the three re-sent launches plus the one
		// submitted after recovery.
		if got := r.conns[1].submits; got != 4 {
			t.Fatalf("new backend saw %d submissions, want 4 (3 re-sent + 1 new)", got)
		}
		if code, _ := lib.GetLastError(p); code != 0 {
			t.Fatalf("recovered async lane carries error %d", code)
		}
	})
}

func TestRecoveryPreservesStickyError(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		lib, r := rigRecoverable(e, OptAll|OptAsync)
		_ = lib.Hello(p, "fn", 1<<30)
		// Latch a genuine CUDA error: an async memset of unallocated memory
		// fails on the server and surfaces at the next fence.
		if err := lib.Memset(p, cuda.DevPtr(0xDEAD0000), 0, 4096); err != nil {
			t.Fatal(err)
		}
		_ = lib.DeviceSynchronize(p)
		// Kill the conn and recover through an unrelated call.
		r.conns[0].broken = true
		if _, err := lib.Malloc(p, 4096); err != nil {
			t.Fatalf("malloc across conn loss = %v, want recovery", err)
		}
		if lib.Stats().Recoveries != 1 {
			t.Fatal("expected one recovery")
		}
		// cudaGetLastError still reports the pre-failure sticky error:
		// recovery is invisible to the application's error model.
		code, _ := lib.GetLastError(p)
		if code == 0 {
			t.Fatal("sticky error lost across recovery")
		}
		if again, _ := lib.GetLastError(p); again != 0 {
			t.Fatalf("sticky error not cleared after read: %d", again)
		}
	})
}

func TestRecoveryExhaustionLatchesDevicesUnavailable(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		r := &recoveryRig{e: e}
		redials := 0
		rc := RecoveryConfig{
			Redial: func(p *sim.Proc) (remoting.Caller, error) {
				redials++
				return nil, remoting.ErrConnClosed // every backend is gone
			},
			MaxAttempts: 3,
			BackoffBase: time.Millisecond,
			BackoffCap:  8 * time.Millisecond,
		}
		lib := NewRecoverable(r.dial(), OptAll|OptAsync, rc)
		_ = lib.Hello(p, "fn", 1<<30)
		r.conns[0].broken = true
		err := lib.DeviceSynchronize(p)
		if !errors.Is(err, cuda.ErrDevicesUnavailable) {
			t.Fatalf("exhausted recovery = %v, want cudaErrorDevicesUnavailable", err)
		}
		if redials != 3 {
			t.Fatalf("redial attempts = %d, want MaxAttempts (3)", redials)
		}
		// The session is lost for good: later calls fail fast, with no
		// further redial storms.
		if _, err := lib.Malloc(p, 4096); !errors.Is(err, cuda.ErrDevicesUnavailable) {
			t.Fatalf("call on lost session = %v, want cudaErrorDevicesUnavailable", err)
		}
		if redials != 3 {
			t.Fatalf("lost session redialed again (%d attempts)", redials)
		}
		if code, _ := lib.GetLastError(p); code != int(cuda.ErrDevicesUnavailable) {
			t.Fatalf("last error = %d, want %d", code, int(cuda.ErrDevicesUnavailable))
		}
	})
}

func TestLegacyGuestMapsConnFaultToDevicesUnavailable(t *testing.T) {
	// Without a recovery policy the guest must still fail fast and typed —
	// never hang — when the connection dies under it.
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		r := &recoveryRig{e: e}
		conn := r.dial()
		lib := New(conn, OptAll|OptAsync)
		_ = lib.Hello(p, "fn", 1<<30)
		ptr, _ := lib.Malloc(p, 1<<20)
		_ = lib.Memset(p, ptr, 0, 1<<20) // enters the async lane
		conn.broken = true
		err := lib.DeviceSynchronize(p)
		if !errors.Is(err, cuda.ErrDevicesUnavailable) {
			t.Fatalf("conn fault on legacy guest = %v, want cudaErrorDevicesUnavailable", err)
		}
		if code, _ := lib.GetLastError(p); code == 0 {
			t.Fatal("conn fault left no sticky error")
		}
	})
}
