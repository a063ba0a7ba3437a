package apiserver

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/gpu"
	"dgsf/internal/guest"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

// rig wires devices, one API server and one guest library inside a running
// simulation.
type rig struct {
	devs []*gpu.Device
	srv  *Server
	conn remoting.AsyncCaller
	lib  *guest.Lib
}

// newRig builds a GPU-server-side runtime over n fast devices, starts an API
// server daemon and connects a guest at the given optimization tier.
func newRig(e *sim.Engine, p *sim.Proc, n int, cfg Config, opt guest.Opt) *rig {
	return newCostRig(e, p, n, cfg, cuda.Costs{}, opt)
}

// newCostRig is newRig with the runtime's CUDA costs.
func newCostRig(e *sim.Engine, p *sim.Proc, n int, cfg Config, costs cuda.Costs, opt guest.Opt) *rig {
	devs := make([]*gpu.Device, n)
	for i := range devs {
		c := gpu.V100Config(i)
		c.CopyLat, c.KernelLat = 0, 0
		devs[i] = gpu.New(e, c)
	}
	rt := cuda.NewRuntime(e, devs, costs)
	srv := NewServer(e, rt, cfg)
	p.SpawnDaemon("apiserver", srv.Run)
	conn := remoting.Dial(e, &remoting.Listener{Incoming: srv.Inbox}, remoting.NetProfile{RTT: 50 * time.Microsecond})
	return &rig{devs: devs, srv: srv, conn: conn, lib: guest.New(conn, opt)}
}

func fastCfg() Config {
	return Config{PoolHandles: true}
}

func TestSessionLifecycleAndMemoryLimit(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		r := newRig(e, p, 1, fastCfg(), guest.OptAll)
		lib := r.lib
		if err := lib.Hello(p, "fn", 1<<30); err != nil {
			t.Fatal(err)
		}
		// Double Hello fails: one function at a time per API server.
		if err := lib.Hello(p, "fn2", 1<<30); err == nil {
			t.Fatal("second Hello succeeded")
		}
		ptr, err := lib.Malloc(p, 512<<20)
		if err != nil {
			t.Fatal(err)
		}
		// Exceeding the declared limit fails even though the GPU has room.
		if _, err := lib.Malloc(p, 600<<20); !errors.Is(err, cuda.ErrMemoryAllocation) {
			t.Fatalf("over-limit Malloc = %v, want ErrMemoryAllocation", err)
		}
		free, total, err := lib.MemGetInfo(p)
		if err != nil || total != 1<<30 || free != 512<<20 {
			t.Fatalf("MemGetInfo = (%d, %d, %v)", free, total, err)
		}
		if err := lib.Free(p, ptr); err != nil {
			t.Fatal(err)
		}
		lib.FlushBatch(p)
		if err := lib.Bye(p); err != nil {
			t.Fatal(err)
		}
		// Session memory is fully reclaimed (only prewarm footprint stays).
		if got := r.srv.Stats().SessionMem; got != 0 {
			t.Fatalf("session memory after Bye = %d", got)
		}
	})
}

func TestDeviceVirtualization(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		r := newRig(e, p, 4, fastCfg(), guest.OptNone)
		lib := r.lib
		if err := lib.Hello(p, "fn", 1<<30); err != nil {
			t.Fatal(err)
		}
		// The GPU server has 4 GPUs; the function must see exactly 1.
		if n, _ := lib.GetDeviceCount(p); n != 1 {
			t.Fatalf("GetDeviceCount = %d, want 1", n)
		}
		prop, err := lib.GetDeviceProperties(p, 0)
		if err != nil || prop.Name == "" {
			t.Fatalf("props = %+v, %v", prop, err)
		}
		if _, err := lib.GetDeviceProperties(p, 1); !errors.Is(err, cuda.ErrInvalidDevice) {
			t.Fatalf("props of device 1 = %v, want ErrInvalidDevice", err)
		}
		if err := lib.SetDevice(p, 0); err != nil {
			t.Fatal(err)
		}
		if err := lib.SetDevice(p, 1); !errors.Is(err, cuda.ErrInvalidDevice) {
			t.Fatalf("SetDevice(1) = %v, want ErrInvalidDevice", err)
		}
	})
}

func TestPrewarmRemovesInitFromCriticalPath(t *testing.T) {
	costs := cuda.DefaultCosts()
	costs.InitJitter = 0
	libCosts := cudalibs.DefaultCosts()

	run := func(pool bool) (hello, dnn time.Duration) {
		e := sim.NewEngine(1)
		e.Run("root", func(p *sim.Proc) {
			cfg := Config{PoolHandles: pool, LibCosts: libCosts}
			r := newCostRig(e, p, 1, cfg, costs, guest.OptAll)
			// Let the server finish pre-warming before the function arrives.
			p.Sleep(10 * time.Second)
			start := p.Now()
			if err := r.lib.Hello(p, "fn", 1<<30); err != nil {
				t.Fatal(err)
			}
			hello = p.Now() - start
			start = p.Now()
			if _, err := r.lib.DnnCreate(p); err != nil {
				t.Fatal(err)
			}
			dnn = p.Now() - start
		})
		return
	}

	hello, dnn := run(true)
	if hello > 100*time.Millisecond {
		t.Errorf("pre-warmed Hello took %v, want ~0 (init off critical path)", hello)
	}
	if dnn > 100*time.Millisecond {
		t.Errorf("pooled DnnCreate took %v, want ~0", dnn)
	}
	hello, dnn = run(false)
	if hello < 3*time.Second {
		t.Errorf("cold Hello took %v, want >= 3s (CUDA init on critical path)", hello)
	}
	if dnn < 1200*time.Millisecond {
		t.Errorf("cold DnnCreate took %v, want >= 1.2s", dnn)
	}
}

// script exercises the full API surface against any backend and returns the
// observed device-content fingerprints. Identical results across backends
// demonstrate remoting transparency (challenge C1).
func script(p *sim.Proc, api gen.API) []uint64 {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(api.Hello(p, "script", 4<<30))
	fns, err := api.RegisterKernels(p, []string{"saxpy", "reduce"})
	must(err)
	a, err := api.Malloc(p, 1<<20)
	must(err)
	b, err := api.Malloc(p, 2<<20)
	must(err)
	must(api.Memset(p, a, 0, 1<<20))
	must(api.MemcpyH2D(p, b, gpu.HostBuffer{FP: 42, Size: 2 << 20}, 2<<20))
	must(api.LaunchKernel(p, cuda.LaunchParams{Fn: fns[0], Grid: [3]int{64, 1, 1}, Block: [3]int{256, 1, 1}, Duration: time.Millisecond, Mutates: []cuda.DevPtr{a}}))
	must(api.LaunchKernel(p, cuda.LaunchParams{Fn: fns[1], Duration: time.Millisecond, Mutates: []cuda.DevPtr{a, b}}))
	must(api.StreamSynchronize(p, 0))
	dnn, err := api.DnnCreate(p)
	must(err)
	td, err := api.DnnCreateTensorDescriptor(p)
	must(err)
	must(api.DnnSetTensorDescriptor(p, td))
	must(api.DnnForward(p, dnn, "conv", time.Millisecond, []cuda.DevPtr{b}, []uint64{uint64(td)}))
	must(api.DnnDestroyTensorDescriptor(p, td))
	blas, err := api.BlasCreate(p)
	must(err)
	must(api.BlasGemm(p, blas, time.Millisecond, []cuda.DevPtr{a}))
	must(api.DeviceSynchronize(p))
	ha, err := api.MemcpyD2H(p, a, 1<<20)
	must(err)
	hb, err := api.MemcpyD2H(p, b, 2<<20)
	must(err)
	must(api.Bye(p))
	return []uint64{ha.FP, hb.FP}
}

func TestRemotingTransparency(t *testing.T) {
	// The same program must observe identical device contents natively and
	// through DGSF at every optimization tier.
	results := map[string][]uint64{}

	// Native baseline.
	{
		e := sim.NewEngine(1)
		e.Run("root", func(p *sim.Proc) {
			cfg := gpu.V100Config(0)
			cfg.CopyLat, cfg.KernelLat = 0, 0
			dev := gpu.New(e, cfg)
			rt := cuda.NewRuntime(e, []*gpu.Device{dev}, cuda.Costs{})
			results["native"] = script(p, NewNative(rt, cudalibs.Costs{}))
		})
	}
	for _, tc := range []struct {
		name string
		opt  guest.Opt
	}{
		{"dgsf-noopt", guest.OptNone},
		{"dgsf-desc", guest.OptLocalDescriptors},
		{"dgsf-all", guest.OptAll},
	} {
		e := sim.NewEngine(1)
		e.Run("root", func(p *sim.Proc) {
			r := newRig(e, p, 2, fastCfg(), tc.opt)
			results[tc.name] = script(p, r.lib)
			// Batched launches must all have executed before D2H, so the
			// fingerprints must match regardless of batching.
		})
	}
	want := results["native"]
	if len(want) != 2 || want[0] == 0 {
		t.Fatalf("native script results look wrong: %v", want)
	}
	for name, got := range results {
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s fingerprint[%d] = %x, want %x (native)", name, i, got[i], want[i])
			}
		}
	}
}

func TestOptimizationsReduceForwardedCalls(t *testing.T) {
	counts := map[guest.Opt]guest.Stats{}
	for _, opt := range []guest.Opt{guest.OptNone, guest.OptLocalDescriptors, guest.OptAll} {
		e := sim.NewEngine(1)
		e.Run("root", func(p *sim.Proc) {
			r := newRig(e, p, 1, fastCfg(), opt)
			script(p, r.lib)
			counts[opt] = r.lib.Stats()
		})
	}
	none, desc, all := counts[guest.OptNone], counts[guest.OptLocalDescriptors], counts[guest.OptAll]
	if none.Localized != 0 {
		t.Errorf("OptNone localized %d calls, want 0", none.Localized)
	}
	if desc.Forwarded() >= none.Forwarded() {
		t.Errorf("descriptor localization did not reduce forwarded calls: %d vs %d", desc.Forwarded(), none.Forwarded())
	}
	if all.Roundtrips() >= desc.Roundtrips() {
		t.Errorf("batching did not reduce round trips: %d vs %d", all.Roundtrips(), desc.Roundtrips())
	}
	if all.Batches == 0 || all.Batched == 0 {
		t.Errorf("OptAll produced no batches: %+v", all)
	}
}

func TestMigrationPreservesAddressSpaceAndContents(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		r := newRig(e, p, 2, fastCfg(), guest.OptNone)
		lib := r.lib
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(lib.Hello(p, "fn", 4<<30))
		fns, err := lib.RegisterKernels(p, []string{"touch"})
		must(err)
		a, err := lib.Malloc(p, 256<<20)
		must(err)
		b, err := lib.Malloc(p, 64<<20)
		must(err)
		st, err := lib.StreamCreate(p)
		must(err)
		must(lib.MemcpyH2D(p, a, gpu.HostBuffer{FP: 7, Size: 256 << 20}, 256<<20))
		must(lib.MemcpyH2D(p, b, gpu.HostBuffer{FP: 8, Size: 64 << 20}, 64<<20))
		preA, err := lib.MemcpyD2H(p, a, 256<<20)
		must(err)

		dev0Before := r.devs[0].UsedBytes()
		if dev0Before == 0 {
			t.Fatal("no memory on device 0 before migration")
		}

		// Force a migration to GPU 1 at an API call boundary.
		done := sim.NewQueue[time.Duration](e)
		r.srv.Inbox.Send(remoting.Request{Ctrl: MigrateRequest{TargetDev: 1, Done: done}})
		migTime, _ := done.Recv(p)
		if migTime <= 0 {
			t.Fatal("migration reported zero duration")
		}
		if got := r.srv.CurrentDev(); got != 1 {
			t.Fatalf("CurrentDev after migration = %d", got)
		}
		// The function's memory now lives on device 1.
		if r.devs[1].UsedBytes() < 256<<20 {
			t.Fatalf("device 1 holds %d bytes after migration", r.devs[1].UsedBytes())
		}

		// The same pointers, stream and kernel handles keep working.
		postA, err := lib.MemcpyD2H(p, a, 256<<20)
		must(err)
		if postA.FP != preA.FP {
			t.Fatalf("contents changed across migration: %x vs %x", postA.FP, preA.FP)
		}
		must(lib.LaunchKernel(p, cuda.LaunchParams{Fn: fns[0], Stream: st, Duration: time.Millisecond, Mutates: []cuda.DevPtr{a, b}}))
		must(lib.StreamSynchronize(p, st))
		mutA, err := lib.MemcpyD2H(p, a, 256<<20)
		must(err)
		if mutA.FP == postA.FP {
			t.Fatal("kernel after migration did not execute")
		}
		must(lib.Bye(p))
		// After Bye the server returned home and released everything on
		// device 1.
		if got := r.srv.CurrentDev(); got != 0 {
			t.Fatalf("server did not return home: dev %d", got)
		}
		if got := r.devs[1].UsedBytes(); got != 0 {
			t.Fatalf("device 1 still holds %d bytes after Bye", got)
		}
	})
}

// TestMigrateOutOfMemoryMovesNothing fills the target GPU so that only the
// first of two written allocations fits, with and without a target context
// to create: Migrate must fail with every allocation still on the source,
// readable there, and the target's memory as it was.
func TestMigrateOutOfMemoryMovesNothing(t *testing.T) {
	for _, ctxBytes := range []int64{0, 64 << 20} {
		e := sim.NewEngine(1)
		e.Run("root", func(p *sim.Proc) {
			r := newCostRig(e, p, 2, fastCfg(), cuda.Costs{CtxBytes: ctxBytes}, guest.OptNone)
			lib := r.lib
			must := func(err error) {
				if err != nil {
					t.Fatal(err)
				}
			}
			must(lib.Hello(p, "fn", 4<<30))
			a, err := lib.Malloc(p, 256<<20)
			must(err)
			b, err := lib.Malloc(p, 64<<20)
			must(err)
			must(lib.MemcpyH2D(p, a, gpu.HostBuffer{FP: 7, Size: 256 << 20}, 256<<20))
			must(lib.MemcpyH2D(p, b, gpu.HostBuffer{FP: 8, Size: 64 << 20}, 64<<20))
			preA, err := lib.MemcpyD2H(p, a, 256<<20)
			must(err)
			preB, err := lib.MemcpyD2H(p, b, 64<<20)
			must(err)

			target := r.devs[1]
			if _, err := target.AllocPhys(target.FreeBytes() - ctxBytes - (256+32)<<20); err != nil {
				t.Fatal(err)
			}
			used := target.UsedBytes()

			if _, err := r.srv.Migrate(p, 1); !errors.Is(err, cuda.ErrMemoryAllocation) {
				t.Fatalf("ctx %d B: Migrate = %v, want ErrMemoryAllocation", ctxBytes, err)
			}
			if got := r.srv.CurrentDev(); got != 0 {
				t.Fatalf("ctx %d B: CurrentDev after a failed migration = %d", ctxBytes, got)
			}
			if got := target.UsedBytes(); got != used {
				t.Fatalf("ctx %d B: target holds %d bytes after a failed migration, %d before", ctxBytes, got, used)
			}
			postA, err := lib.MemcpyD2H(p, a, 256<<20)
			must(err)
			postB, err := lib.MemcpyD2H(p, b, 64<<20)
			must(err)
			if postA.FP != preA.FP || postB.FP != preB.FP {
				t.Fatalf("ctx %d B: contents changed: a %x→%x, b %x→%x", ctxBytes, preA.FP, postA.FP, preB.FP, postB.FP)
			}
			must(lib.Bye(p))
		})
	}
}

func TestMigrationCostScalesWithMemory(t *testing.T) {
	move := func(bytes int64) time.Duration {
		e := sim.NewEngine(1)
		var d time.Duration
		e.Run("root", func(p *sim.Proc) {
			r := newRig(e, p, 2, fastCfg(), guest.OptNone)
			if err := r.lib.Hello(p, "fn", 15<<30); err != nil {
				t.Fatal(err)
			}
			ptr, err := r.lib.Malloc(p, bytes)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.lib.Memset(p, ptr, 1, bytes); err != nil {
				t.Fatal(err)
			}
			done := sim.NewQueue[time.Duration](e)
			r.srv.Inbox.Send(remoting.Request{Ctrl: MigrateRequest{TargetDev: 1, Done: done}})
			d, _ = done.Recv(p)
		})
		return d
	}
	small, large := move(323<<20), move(13194<<20)
	if large < 3*small {
		t.Fatalf("migration cost not memory-dominated: %v (323MB) vs %v (13194MB)", small, large)
	}
	// Table V: ~2.1s for 13194 MB at ~6.5 GB/s effective.
	if large < 1500*time.Millisecond || large > 3*time.Second {
		t.Fatalf("13GB migration took %v, want ~2s", large)
	}
}

func TestBatchedErrorSurfacesThroughGetLastError(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		r := newRig(e, p, 1, fastCfg(), guest.OptAll)
		lib := r.lib
		if err := lib.Hello(p, "fn", 1<<30); err != nil {
			t.Fatal(err)
		}
		// Launch with a bogus function pointer: batched, so no immediate
		// error...
		if err := lib.LaunchKernel(p, cuda.LaunchParams{Fn: cuda.FnPtr(0xDEAD)}); err != nil {
			t.Fatalf("batched launch returned inline error %v", err)
		}
		lib.FlushBatch(p)
		// ...but the sticky error reports it afterwards.
		code, err := lib.GetLastError(p)
		if err != nil || code == 0 {
			t.Fatalf("GetLastError = (%d, %v), want nonzero code", code, err)
		}
		// And it resets, like cudaGetLastError.
		if code, _ := lib.GetLastError(p); code != 0 {
			t.Fatalf("second GetLastError = %d, want 0", code)
		}
	})
}

// TestBatchRefusesUnbatchableEntries: a batch entry whose call is not
// batchable is not executed — a MemWrite, whose bytes only the bulk lane
// carries, and a 64-byte MemRead, whose bytes the batch's one status cannot
// carry back. The batch answers ErrInvalidValue through the server loop,
// the buffer keeps its bytes, and the batchable entry after them still runs.
func TestBatchRefusesUnbatchableEntries(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		r := newRig(e, p, 1, fastCfg(), guest.OptNone)
		mustNil(t, r.lib.Hello(p, "fn", 1<<30))
		buf, err := r.srv.Malloc(p, 4096)
		mustNil(t, err)
		want := make([]byte, 64)
		for i := range want {
			want[i] = byte(i + 1)
		}
		mustNil(t, r.srv.MemWrite(p, buf, want))
		ev, err := r.srv.EventCreate(p)
		mustNil(t, err)

		var write, read, record, batch wire.Encoder
		gen.AppendMemWriteCall(&write, buf)
		gen.AppendMemReadCall(&read, buf, 64)
		gen.AppendEventRecordCall(&record, ev, 0)
		batch.U16(remoting.CallBatch)
		batch.U32(3)
		for _, entry := range []*wire.Encoder{&write, &read, &record} {
			batch.BytesField(entry.Bytes())
		}
		replies := sim.NewQueue[remoting.Response](e)
		r.srv.Inbox.Send(remoting.Request{Payload: batch.Bytes(), ReplyTo: replies})
		resp, ok := replies.Recv(p)
		if !ok {
			t.Fatal("no reply to the batch")
		}
		var d wire.Decoder
		d.Reset(resp.Payload)
		if code := d.I32(); code != int32(cuda.Code(cuda.ErrInvalidValue)) || len(resp.Payload) != 4 || len(resp.Bulk) != 0 {
			t.Errorf("batch answered status %d with %d payload and %d bulk bytes, want ErrInvalidValue (%d) alone",
				code, len(resp.Payload), len(resp.Bulk), cuda.Code(cuda.ErrInvalidValue))
		}
		resp.Release()
		if err := r.srv.EventSynchronize(p, ev); err != nil {
			t.Errorf("the batchable entry after the refused ones did not run: EventSynchronize = %v", err)
		}
		got, err := r.srv.MemRead(p, buf, 64)
		mustNil(t, err)
		if !bytes.Equal(got, want) {
			t.Errorf("buffer holds %v after the batch, want %v", got, want)
		}
	})
}

func TestPooledHandlesSurviveSessions(t *testing.T) {
	costs := cuda.DefaultCosts()
	costs.InitJitter = 0
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		cfg := Config{PoolHandles: true, LibCosts: cudalibs.DefaultCosts()}
		r := newCostRig(e, p, 1, cfg, costs, guest.OptAll)
		p.Sleep(10 * time.Second) // prewarm
		for i := 0; i < 3; i++ {
			if err := r.lib.Hello(p, "fn", 1<<30); err != nil {
				t.Fatal(err)
			}
			start := p.Now()
			h, err := r.lib.DnnCreate(p)
			if err != nil {
				t.Fatal(err)
			}
			if d := p.Now() - start; d > 50*time.Millisecond {
				t.Fatalf("session %d: DnnCreate took %v, pool not reused", i, d)
			}
			if err := r.lib.DnnDestroy(p, h); err != nil {
				t.Fatal(err)
			}
			r.lib.FlushBatch(p)
			if err := r.lib.Bye(p); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestServerStatsTrackActivity(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		r := newRig(e, p, 1, fastCfg(), guest.OptNone)
		script(p, r.lib)
		st := r.srv.Stats()
		if st.CallsHandled == 0 || st.Kernels == 0 {
			t.Fatalf("stats = %+v", st)
		}
		if st.Busy {
			t.Fatal("server still busy after Bye")
		}
	})
}
