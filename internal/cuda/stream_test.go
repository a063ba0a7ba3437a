package cuda

import (
	"testing"
	"time"

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
// stream's ring and its worker is a step process.
func TestWarmStreamLaunchSyncAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		rt, _ := testRig(e, p, 1, zeroCosts())
		ctx, _ := rt.CurrentContext(p)
		fn, _ := ctx.RegisterFunction(p, "k")
		ptr, _ := ctx.Malloc(p, 4096)
		lp := LaunchParams{Fn: fn, Duration: time.Microsecond, Mutates: []DevPtr{ptr}}
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
			t.Errorf("launch and synchronize: %v allocs, want 0", allocs)
		}
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
