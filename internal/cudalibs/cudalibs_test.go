package cudalibs

import (
	"errors"
	"testing"
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/gpu"
	"dgsf/internal/sim"
)

func rig(e *sim.Engine, p *sim.Proc, n int) (*cuda.Runtime, []*gpu.Device) {
	devs := make([]*gpu.Device, n)
	for i := range devs {
		cfg := gpu.V100Config(i)
		cfg.CopyLat, cfg.KernelLat = 0, 0
		devs[i] = gpu.New(e, cfg)
	}
	rt := cuda.NewRuntime(e, devs, cuda.Costs{})
	if err := rt.Init(p); err != nil {
		panic(err)
	}
	return rt, devs
}

func TestDNNHandleCostAndFootprint(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		rt, devs := rig(e, p, 1)
		ctx, _ := rt.CurrentContext(p)
		l := New(DefaultCosts())
		start := p.Now()
		h, err := l.Create(p, DNN, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Now() - start; got != 1200*time.Millisecond {
			t.Fatalf("cudnnCreate took %v, want 1.2s", got)
		}
		if got := devs[0].UsedBytes(); got != 386<<20 {
			t.Fatalf("cuDNN footprint = %d, want 386MB", got)
		}
		if err := l.Destroy(p, DNN, h); err != nil {
			t.Fatal(err)
		}
		if got := devs[0].UsedBytes(); got != 0 {
			t.Fatalf("footprint after destroy = %d, want 0", got)
		}
	})
}

func TestBLASHandleCostAndFootprint(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		rt, devs := rig(e, p, 1)
		ctx, _ := rt.CurrentContext(p)
		l := New(DefaultCosts())
		start := p.Now()
		h, err := l.Create(p, BLAS, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Now() - start; got != 200*time.Millisecond {
			t.Fatalf("cublasCreate took %v, want 0.2s", got)
		}
		if got := devs[0].UsedBytes(); got != 70<<20 {
			t.Fatalf("cuBLAS footprint = %d, want 70MB", got)
		}
		_ = l.Destroy(p, BLAS, h)
	})
}

func TestDescriptorLifecycle(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		l := New(DefaultCosts())
		d, err := l.CreateDescriptor(p, ConvolutionDescriptor)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.SetDescriptor(p, d); err != nil {
			t.Fatal(err)
		}
		if err := l.DestroyDescriptor(p, d); err != nil {
			t.Fatal(err)
		}
		if err := l.SetDescriptor(p, d); !errors.Is(err, cuda.ErrInvalidResourceHandle) {
			t.Fatalf("Set on destroyed descriptor = %v", err)
		}
		if got := l.DescriptorCount(); got != 0 {
			t.Fatalf("live descriptors = %d, want 0", got)
		}
	})
}

func TestDNNForwardLaunchesOnContext(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		rt, _ := rig(e, p, 1)
		ctx, _ := rt.CurrentContext(p)
		l := New(Costs{}) // zero costs: isolate kernel time
		h, _ := l.Create(p, DNN, ctx)
		buf, _ := ctx.Malloc(p, 4096)
		start := p.Now()
		if err := l.Launch(p, DNN, h, "conv", 50*time.Millisecond, []cuda.DevPtr{buf}); err != nil {
			t.Fatal(err)
		}
		if got := p.Now() - start; got != 50*time.Millisecond {
			t.Fatalf("DNNForward took %v, want 50ms", got)
		}
	})
}

func TestGEMMInvalidHandle(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		l := New(Costs{})
		if err := l.Launch(p, BLAS, 5, "", time.Millisecond, nil); !errors.Is(err, cuda.ErrInvalidResourceHandle) {
			t.Fatalf("GEMM with bad handle = %v", err)
		}
		// The two kinds share one table; a handle of one is none of the other.
		rt, _ := rig(e, p, 1)
		ctx, _ := rt.CurrentContext(p)
		h, _ := l.Create(p, DNN, ctx)
		for _, err := range []error{l.Launch(p, BLAS, h, "", time.Millisecond, nil), l.Rebind(p, BLAS, h, ctx), l.Destroy(p, BLAS, h)} {
			if !errors.Is(err, cuda.ErrInvalidResourceHandle) {
				t.Fatalf("cuDNN handle used as a cuBLAS handle = %v", err)
			}
		}
		if err := l.Destroy(p, DNN, h); err != nil {
			t.Fatal(err)
		}
	})
}

func TestRebindMovesWorkspace(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		rt, devs := rig(e, p, 2)
		ctx0, _ := rt.Context(p, 0)
		ctx1, _ := rt.Context(p, 1)
		l := New(DefaultCosts())
		h, _ := l.Create(p, DNN, ctx0)
		if got := devs[0].UsedBytes(); got != 386<<20 {
			t.Fatalf("workspace on dev0 = %d", got)
		}
		if err := l.Rebind(p, DNN, h, ctx1); err != nil {
			t.Fatal(err)
		}
		if got := devs[0].UsedBytes(); got != 0 {
			t.Fatalf("dev0 usage after rebind = %d, want 0", got)
		}
		if got := devs[1].UsedBytes(); got != 386<<20 {
			t.Fatalf("dev1 usage after rebind = %d, want 386MB", got)
		}
		// Forward now runs on the new context without error.
		if err := l.Launch(p, DNN, h, "conv", time.Millisecond, nil); err != nil {
			t.Fatal(err)
		}
	})
}

func TestIdleAPIServerFootprint(t *testing.T) {
	// Paper §V-C: context (303 MB) + cuDNN (386 MB) + cuBLAS (70 MB) ≈ 755 MB
	// for an idle pre-initialized API server.
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		dev := gpu.New(e, gpu.V100Config(0))
		costs := cuda.DefaultCosts()
		costs.InitJitter = 0
		rt := cuda.NewRuntime(e, []*gpu.Device{dev}, costs)
		_ = rt.Init(p)
		ctx, _ := rt.CurrentContext(p)
		l := New(DefaultCosts())
		_, _ = l.Create(p, DNN, ctx)
		_, _ = l.Create(p, BLAS, ctx)
		want := int64(303+386+70) << 20
		if got := dev.UsedBytes(); got != want {
			t.Fatalf("idle API server footprint = %d MB, want 759 MB (paper: ~755)", got>>20)
		}
	})
}
