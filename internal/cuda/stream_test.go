package cuda

import (
	"errors"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"dgsf/internal/gpu"
	"dgsf/internal/sim"
)

// TestStreamRunsOpsEnqueuedBeforeClose: closing a stream ends its worker
// only once the ops already enqueued have run, in order.
func TestStreamRunsOpsEnqueuedBeforeClose(t *testing.T) {
	e := sim.NewEngine(1)
	var exits []time.Duration
	e.SetTrace(func(now time.Duration, proc, event string) {
		if proc == "cuda-stream" && event == "exit" {
			exits = append(exits, now)
		}
	})
	var start time.Duration
	e.Run("root", func(p *sim.Proc) {
		rt, _ := testRig(e, p, 1, zeroCosts())
		ctx, _ := rt.CurrentContext(p)
		k1, _ := ctx.RegisterFunction(p, "k1")
		k2, _ := ctx.RegisterFunction(p, "k2")
		ptr, _ := ctx.Malloc(p, 4096)
		_ = ctx.Memset(p, ptr, 0, 4096)
		a, _ := ctx.resolve(ptr)
		fp := a.Fingerprint()
		h, _ := ctx.StreamCreate(p)
		ev1, _ := ctx.EventCreate(p)
		ev2, _ := ctx.EventCreate(p)

		start = p.Now()
		_ = ctx.LaunchKernel(p, LaunchParams{Fn: k1, Stream: h, Duration: 2 * time.Millisecond, Mutates: []DevPtr{ptr}})
		_ = ctx.EventRecord(p, ev1, h)
		_ = ctx.LaunchKernel(p, LaunchParams{Fn: k2, Stream: h, Duration: 3 * time.Millisecond, Mutates: []DevPtr{ptr}})
		_ = ctx.EventRecord(p, ev2, h)
		ctx.streams[h].close()
		if err := ctx.EventSynchronize(p, ev2); err != nil {
			t.Fatal(err)
		}
		if at := ctx.events[ev1].at - start; at != 2*time.Millisecond {
			t.Errorf("first event completed %v after the launches, want 2ms", at)
		}
		if at := ctx.events[ev2].at - start; at != 5*time.Millisecond {
			t.Errorf("second event completed %v after the launches, want 5ms", at)
		}
		if want := gpu.Mix(gpu.Mix(fp, gpu.KernelHash("k1")), gpu.KernelHash("k2")); a.Fingerprint() != want {
			t.Errorf("buffer fingerprint %x, want k1 then k2 stamped: %x", a.Fingerprint(), want)
		}
		p.Sleep(time.Millisecond)
	})
	// The closed stream's worker exits as soon as its last op is done; the
	// default stream's is killed at the end, after the root's last sleep.
	if len(exits) != 2 || exits[0]-start != 5*time.Millisecond || exits[1]-start != 6*time.Millisecond {
		t.Errorf("stream workers exited at %v (launches at %v), want 5ms and 6ms after", exits, start)
	}
}

// TestEventCompletesWhenStreamReachesIt: an event recorded on a stream
// completes at the instant the stream's earlier work ends — after a
// kernel's launch latency and its execution — and on an idle stream at the
// instant it is recorded.
func TestEventCompletesWhenStreamReachesIt(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		cfg := gpu.V100Config(0)
		cfg.KernelLat = 5 * time.Microsecond
		rt := NewRuntime(e, []*gpu.Device{gpu.New(e, cfg)}, zeroCosts())
		if err := rt.Init(p); err != nil {
			t.Fatal(err)
		}
		ctx, _ := rt.CurrentContext(p)
		fn, _ := ctx.RegisterFunction(p, "k")
		ev, _ := ctx.EventCreate(p)

		p.Sleep(time.Millisecond) // the stream's worker is parked waiting for work
		recorded := p.Now()
		_ = ctx.EventRecord(p, ev, 0)
		_ = ctx.EventSynchronize(p, ev)
		if got := ctx.events[ev].at; got != recorded || p.Now() != recorded {
			t.Errorf("event on an idle stream completed at %v, synchronized at %v; recorded at %v", got, p.Now(), recorded)
		}

		start := p.Now()
		_ = ctx.LaunchKernel(p, LaunchParams{Fn: fn, Duration: time.Millisecond})
		_ = ctx.EventRecord(p, ev, 0)
		_ = ctx.EventSynchronize(p, ev)
		want := start + cfg.KernelLat + time.Millisecond
		if got := ctx.events[ev].at; got != want || p.Now() != want {
			t.Errorf("event behind a kernel completed at %v, synchronized at %v; want %v", got, p.Now(), want)
		}
	})
}

// TestWarmStreamLaunchSyncAllocs: once a stream has run a kernel, a launch
// and a synchronize allocate nothing — the op travels by value through the
// stream's ring, a kernel's second and later buffers through its overflow
// ring, and its worker is a step process.
func TestWarmStreamLaunchSyncAllocs(t *testing.T) {
	for _, n := range []int{1, 3} {
		e := sim.NewEngine(1)
		e.Run("root", func(p *sim.Proc) {
			rt, _ := testRig(e, p, 1, zeroCosts())
			ctx, _ := rt.CurrentContext(p)
			fn, _ := ctx.RegisterFunction(p, "k")
			lp := LaunchParams{Fn: fn, Duration: time.Microsecond}
			for range n {
				ptr, _ := ctx.Malloc(p, 4096)
				lp.Mutates = append(lp.Mutates, ptr)
			}
			op := func() {
				if err := ctx.LaunchKernel(p, lp); err != nil {
					t.Fatal(err)
				}
				if err := ctx.StreamSynchronize(p, 0); err != nil {
					t.Fatal(err)
				}
			}
			op()
			if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
				t.Errorf("launch mutating %d buffers and synchronize: %v allocs, want 0", n, allocs)
			}
		})
	}
}

// TestStreamOpSize: a queued op stays within 40 bytes; the ring copies it
// on every enqueue and dequeue.
func TestStreamOpSize(t *testing.T) {
	if size := unsafe.Sizeof(streamOp{}); size > 40 {
		t.Errorf("streamOp is %d bytes, want at most 40", size)
	}
}

// replayRig is a context with two streams, each owning five buffers set to
// known contents, and a shadow allocation per buffer on the same device
// that a test stamps directly with gpu.MutateKernel in launch order.
type replayRig struct {
	ctx     *Context
	streams [2]StreamHandle
	bufs    [2][5]DevPtr
	shadow  map[DevPtr]*gpu.PhysAlloc
	fns     []FnPtr
	names   []string
}

func newReplayRig(t *testing.T, p *sim.Proc, e *sim.Engine) *replayRig {
	rt, devs := testRig(e, p, 1, zeroCosts())
	ctx, _ := rt.CurrentContext(p)
	r := &replayRig{ctx: ctx, shadow: make(map[DevPtr]*gpu.PhysAlloc), names: []string{"conv", "relu", "gemm"}}
	h, err := ctx.StreamCreate(p)
	if err != nil {
		t.Fatal(err)
	}
	r.streams[1] = h
	for _, name := range r.names {
		fn, _ := ctx.RegisterFunction(p, name)
		r.fns = append(r.fns, fn)
	}
	for s := range r.bufs {
		for i := range r.bufs[s] {
			ptr, err := ctx.Malloc(p, 4096)
			if err != nil {
				t.Fatal(err)
			}
			value := byte(10*s + i)
			_ = ctx.Memset(p, ptr, value, 4096)
			sh, err := devs[0].AllocPhys(4096)
			if err != nil {
				t.Fatal(err)
			}
			devs[0].Memset(p, sh, value, 4096)
			r.bufs[s][i], r.shadow[ptr] = ptr, sh
		}
	}
	return r
}

// launch launches kernel k on stream s mutating ptrs and, if it succeeds,
// replays it on the shadows.
func (r *replayRig) launch(p *sim.Proc, s, k int, ptrs []DevPtr) error {
	err := r.ctx.LaunchKernel(p, LaunchParams{Fn: r.fns[k], Stream: r.streams[s], Duration: time.Duration(1+k) * 10 * time.Microsecond, Mutates: ptrs})
	if err == nil {
		for _, ptr := range ptrs {
			gpu.MutateKernel(r.shadow[ptr], gpu.KernelHash(r.names[k]))
		}
	}
	return err
}

// check synchronizes the device and compares every buffer with its shadow.
func (r *replayRig) check(t *testing.T, p *sim.Proc) {
	if err := r.ctx.DeviceSynchronize(p); err != nil {
		t.Fatal(err)
	}
	for s := range r.bufs {
		for i, ptr := range r.bufs[s] {
			a, _ := r.ctx.Backing(ptr)
			if got, want := a.Fingerprint(), r.shadow[ptr].Fingerprint(); got != want {
				t.Errorf("stream %d buffer %d: fingerprint %x, want %x from the replay", s, i, got, want)
			}
		}
	}
}

// TestLaunchStampsMatchReplay: kernels mutating 0, 1, 2 and 5 buffers,
// interleaved with event records on two streams, leave every buffer as a
// direct replay of the launches in launch order does. Each stream mutates
// only its own buffers, so the streams' relative progress cannot reorder a
// buffer's stamps.
func TestLaunchStampsMatchReplay(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		r := newReplayRig(t, p, e)
		var evs [2]EventHandle
		for i := range evs {
			evs[i], _ = r.ctx.EventCreate(p)
		}
		rng := rand.New(rand.NewSource(7))
		counts := [...]int{0, 1, 2, 5}
		for step := 0; step < 400; step++ {
			s := rng.Intn(2)
			if rng.Intn(4) == 0 {
				if err := r.ctx.EventRecord(p, evs[s], r.streams[s]); err != nil {
					t.Fatal(err)
				}
				continue
			}
			var ptrs []DevPtr
			for _, i := range rng.Perm(5)[:counts[rng.Intn(len(counts))]] {
				ptrs = append(ptrs, r.bufs[s][i])
			}
			if err := r.launch(p, s, rng.Intn(len(r.fns)), ptrs); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(50) == 0 {
				p.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
			}
		}
		r.check(t, p)
		for _, ev := range evs {
			if err := r.ctx.EventSynchronize(p, ev); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestFailedLaunchEnqueuesNothing: a launch whose third buffer does not
// resolve queues no op and no buffer, even behind a kernel still queued with
// buffers of its own, and the launch after it stamps its buffers as the
// replay does.
func TestFailedLaunchEnqueuesNothing(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		r := newReplayRig(t, p, e)
		b := r.bufs[1]
		if err := r.launch(p, 1, 0, b[:3]); err != nil {
			t.Fatal(err)
		}
		s := r.ctx.streams[r.streams[1]]
		ops, more, pending := s.ops.Len(), s.more.Len(), s.pending
		bad := []DevPtr{b[3], b[4], 0x10, b[0]}
		if err := r.launch(p, 1, 1, bad); !errors.Is(err, ErrInvalidAddressSpace) {
			t.Fatalf("launch with an invalid third buffer: %v, want ErrInvalidAddressSpace", err)
		}
		if s.ops.Len() != ops || s.more.Len() != more || s.pending != pending {
			t.Errorf("failed launch left ops %d, overflow %d, pending %d; want %d, %d, %d", s.ops.Len(), s.more.Len(), s.pending, ops, more, pending)
		}
		if err := r.launch(p, 1, 2, []DevPtr{b[4], b[3]}); err != nil {
			t.Fatal(err)
		}
		r.check(t, p)
	})
}

// TestKernelInFlightAtEndCountsBusy: a simulation that ends with a kernel
// executing counts the device busy up to the end and no further, and the
// count stays put once the run is over.
func TestKernelInFlightAtEndCountsBusy(t *testing.T) {
	e := sim.NewEngine(1)
	var dev *gpu.Device
	e.Run("root", func(p *sim.Proc) {
		rt, devs := testRig(e, p, 1, zeroCosts())
		dev = devs[0]
		ctx, _ := rt.CurrentContext(p)
		fn, _ := ctx.RegisterFunction(p, "k")
		p.Sleep(time.Millisecond)
		_ = ctx.LaunchKernel(p, LaunchParams{Fn: fn, Duration: 10 * time.Millisecond})
		p.Sleep(3 * time.Millisecond)
	})
	if got := dev.ComputeBusy(); got != 3*time.Millisecond {
		t.Errorf("ComputeBusy = %v after a run that ended 3ms into a 10ms kernel, want 3ms", got)
	}
	if e.Now() != 4*time.Millisecond {
		t.Errorf("run ended at %v, want 4ms", e.Now())
	}
}
