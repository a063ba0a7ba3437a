package dataplane

import (
	"testing"
	"time"

	"dgsf/internal/gpu"
	"dgsf/internal/metrics"
	"dgsf/internal/sim"
)

func testAlloc(t *testing.T, e *sim.Engine, size int64) *gpu.PhysAlloc {
	t.Helper()
	dev := gpu.New(e, gpu.V100Config(0))
	a, err := dev.AllocPhys(size)
	if err != nil {
		t.Fatalf("AllocPhys: %v", err)
	}
	return a
}

func TestExportImportLifecycle(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("test", func(p *sim.Proc) {
		reg := metrics.NewRegistry()
		f := NewFabric(DefaultConfig(), reg)
		pl := f.NewPlane("gpu-0")
		a := testAlloc(t, e, 64<<20)

		x := pl.Export("fn", "boxes", a)
		if x.ID() == 0 {
			t.Fatal("export ID must be nonzero")
		}
		if got, ok := f.Lookup(x.ID()); !ok || got != x {
			t.Fatal("Lookup must find the live export")
		}
		if !x.LocalTo(pl) {
			t.Fatal("export must be local to its plane")
		}
		if x.Size() != 64<<20 || x.Tag() != "boxes" {
			t.Fatalf("export metadata: size=%d tag=%q", x.Size(), x.Tag())
		}

		// One zero-copy mapping: the export stays live until it ends.
		f.BeginImport(x)
		if _, ok := f.Lookup(x.ID()); !ok {
			t.Fatal("export must survive while a mapping is live")
		}
		if !f.EndImport(x) {
			t.Fatal("last EndImport after a taken import must drop the export")
		}
		if _, ok := f.Lookup(x.ID()); ok {
			t.Fatal("dropped export must leave the namespace")
		}
		if reg.Get(CtrExports) != 1 || reg.Get(CtrImports) != 1 || reg.Get(CtrBypassHits) != 1 {
			t.Fatalf("counters: %s", reg.String())
		}
	})
}

func TestConsumeFreesWithoutMappings(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("test", func(p *sim.Proc) {
		f := NewFabric(DefaultConfig(), nil)
		pl := f.NewPlane("gpu-0")
		a := testAlloc(t, e, 1<<20)
		dev := a.Device()

		x := pl.Export("fn", "t", a)
		f.Consume(x)
		if _, ok := f.Lookup(x.ID()); ok {
			t.Fatal("consumed export with no mappings must drop immediately")
		}
		if dev.UsedBytes() != 0 {
			t.Fatalf("backing memory must be freed, still used: %d", dev.UsedBytes())
		}
	})
}

func TestPlaneFailMarksExportsUnreachable(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("test", func(p *sim.Proc) {
		f := NewFabric(DefaultConfig(), nil)
		pl := f.NewPlane("gpu-0")
		x := pl.Export("fn", "t", testAlloc(t, e, 1<<20))

		pl.Fail()
		if !pl.Failed() {
			t.Fatal("Failed() must report the crash")
		}
		if !x.SourceFailed() {
			t.Fatal("exports on a failed plane must report SourceFailed")
		}
		if _, ok := pl.BroadcastSource("m"); ok {
			t.Fatal("failed plane must not serve broadcast sources")
		}
	})
}

func TestPeerTransferTakesModeledTime(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("test", func(p *sim.Proc) {
		cfg := Config{PeerBps: 1 << 30, PeerLat: time.Millisecond}
		f := NewFabric(cfg, nil)
		src := testAlloc(t, e, 1<<30)
		dst := testAlloc(t, e, 1<<30)
		gpu.MutateKernel(src, gpu.KernelHash("produce"))

		start := p.Now()
		f.PeerTransfer(p, dst, src)
		got := p.Now() - start
		// 1 GiB at 1 GiB/s + 1ms latency: at least the nominal time.
		if got < time.Second+time.Millisecond {
			t.Fatalf("peer transfer too fast: %v", got)
		}
		if want := f.TransferTime(1 << 30); want < time.Second {
			t.Fatalf("TransferTime model off: %v", want)
		}
		if dst.Fingerprint() == 0 || dst.Fingerprint() != src.Fingerprint() {
			t.Fatalf("peer copy must carry content: fp=%d want %d", dst.Fingerprint(), src.Fingerprint())
		}
	})
}

func TestBroadcastSeedGate(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("test", func(p *sim.Proc) {
		f := NewFabric(DefaultConfig(), nil)
		pl := f.NewPlane("gpu-0")

		if pl.WaitSeed(p, "m") {
			t.Fatal("WaitSeed with no seed in flight must not wait")
		}
		pl.BeginSeed(p, "m")
		waited := false
		done := sim.NewWaitGroup(e)
		done.Add(1)
		p.Spawn("waiter", func(p *sim.Proc) {
			defer done.Done()
			waited = pl.WaitSeed(p, "m")
		})
		p.Sleep(time.Millisecond)
		pl.EndSeed("m")
		done.Wait(p)
		if !waited {
			t.Fatal("concurrent broadcaster must wait on the in-flight seed")
		}
	})
}

func TestHandoffReset(t *testing.T) {
	h := &Handoff{Mode: HandoffGPU, Export: 7, Bytes: 42, FP: 9}
	h.Reset(HandoffBounce)
	if h.Mode != HandoffBounce || h.Export != 0 || h.FP != 0 {
		t.Fatalf("Reset must clear attempt state: %+v", h)
	}
	if h.Bytes != 42 {
		t.Fatal("Reset must keep Bytes: the producer's size survives across attempts")
	}
}

func TestPlaneFailDrainsSeedGates(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("test", func(p *sim.Proc) {
		f := NewFabric(DefaultConfig(), nil)
		pl := f.NewPlane("gpu-0")
		pl.BeginSeed(p, "m1")
		pl.BeginSeed(p, "m2")
		released := 0
		done := sim.NewWaitGroup(e)
		for _, key := range []string{"m1", "m2"} {
			key := key
			done.Add(1)
			p.Spawn("waiter-"+key, func(p *sim.Proc) {
				defer done.Done()
				pl.WaitSeed(p, key)
				released++
			})
		}
		p.Sleep(time.Millisecond)
		pl.Fail()
		done.Wait(p)
		if released != 2 {
			t.Fatalf("Fail must wake all seed waiters, released=%d", released)
		}
	})
}

// TestPlaneFailIdempotent locks in Fail's re-entry contract: a flapping
// machine, or two fault paths racing to report the same death, must not
// re-strand exports, double-count stranded drops, or re-drain seed gates.
func TestPlaneFailIdempotent(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("test", func(p *sim.Proc) {
		reg := metrics.NewRegistry()
		f := NewFabric(DefaultConfig(), reg)
		pl := f.NewPlane("gpu-0")
		free := pl.Export("fn", "unmapped", testAlloc(t, e, 1<<20))
		held := pl.Export("fn", "mapped", testAlloc(t, e, 1<<20))
		f.BeginImport(held)

		pl.BeginSeed(p, "model")
		released := 0
		done := sim.NewWaitGroup(e)
		done.Add(1)
		p.Spawn("waiter", func(p *sim.Proc) {
			defer done.Done()
			pl.WaitSeed(p, "model")
			released++
		})
		p.Sleep(time.Millisecond)

		pl.Fail()
		pl.Fail() // must be a no-op
		done.Wait(p)

		if released != 1 {
			t.Fatalf("seed waiter released %d times, want 1", released)
		}
		if _, ok := f.Lookup(free.ID()); ok {
			t.Fatal("unmapped export must leave the namespace on Fail")
		}
		if got := reg.Get(CtrStranded); got != 1 {
			t.Fatalf("stranded counter after double Fail: %d, want 1 (mapped export still held)", got)
		}
		if f.LiveExports() != 1 {
			t.Fatalf("live exports after double Fail: %d, want 1", f.LiveExports())
		}

		// The consumer detaches: the mapped export drops as stranded (its
		// backing memory died with the machine — never freed here).
		f.EndImport(held)
		if got := reg.Get(CtrStranded); got != 2 {
			t.Fatalf("stranded counter after detach: %d, want 2", got)
		}
		if exp, frees, str := reg.Get(CtrExports), reg.Get(CtrExportFrees), reg.Get(CtrStranded); exp != frees+str+int64(f.LiveExports()) {
			t.Fatalf("export balance broken: exports=%d frees=%d stranded=%d live=%d", exp, frees, str, f.LiveExports())
		}

		pl.Fail() // still a no-op after quiesce
		if got := reg.Get(CtrStranded); got != 2 {
			t.Fatalf("stranded counter after third Fail: %d, want 2", got)
		}
	})
}
