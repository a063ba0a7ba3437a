package faas

import (
	"testing"
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/dataplane"
	"dgsf/internal/gpu"
	"dgsf/internal/gpuserver"
	"dgsf/internal/metrics"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
)

// testGSPlane is testGS with a data plane attached.
func testGSPlane(e *sim.Engine, p *sim.Proc, gpus, perGPU int, pl *dataplane.Plane) *gpuserver.GPUServer {
	cfg := gpuserver.DefaultConfig()
	cfg.GPUs = gpus
	cfg.ServersPerGPU = perGPU
	cfg.CUDACosts = cuda.Costs{}
	cfg.LibCosts.DNNCreateTime = 0
	cfg.LibCosts.BLASCreateTime = 0
	cfg.LibCosts.DNNBytes = 0
	cfg.LibCosts.BLASBytes = 0
	cfg.Plane = pl
	cfg.GPUConfig = func(i int) gpu.Config {
		c := gpu.V100Config(i)
		c.CopyLat, c.KernelLat = 0, 0
		return c
	}
	gs := gpuserver.New(e, cfg)
	gs.Start(p)
	return gs
}

const chainTensorBytes = int64(16 << 20)

// chainProducer makes a tensor and hands it off per the Handoff mode.
func chainProducer(h *dataplane.Handoff) *Function {
	return &Function{
		Name:   "chain-prod",
		GPUMem: 1 << 30,
		Run: func(p *sim.Proc, api gen.API) error {
			ptr, err := api.Malloc(p, chainTensorBytes)
			if err != nil {
				return err
			}
			if err := api.MemcpyH2D(p, ptr, gpu.HostBuffer{FP: 11, Size: chainTensorBytes}, chainTensorBytes); err != nil {
				return err
			}
			if h.Mode == dataplane.HandoffGPU {
				export, size, err := api.MemExport(p, ptr, "t")
				if err != nil {
					return err
				}
				h.Export, h.Bytes = export, size
				return nil
			}
			buf, err := api.MemcpyD2H(p, ptr, chainTensorBytes)
			if err != nil {
				return err
			}
			h.FP, h.Bytes = buf.FP, chainTensorBytes
			return api.Free(p, ptr)
		},
	}
}

// chainConsumer picks the tensor up per the Handoff mode. breakImport makes
// the GPU-mode import chase a bogus export, modeling a handoff lost between
// the two stages.
func chainConsumer(h *dataplane.Handoff, breakImport bool) *Function {
	return &Function{
		Name:   "chain-cons",
		GPUMem: 1 << 30,
		Run: func(p *sim.Proc, api gen.API) error {
			var ptr cuda.DevPtr
			if h.Mode == dataplane.HandoffGPU {
				export := h.Export
				if breakImport {
					export = ^uint64(0)
				}
				var err error
				ptr, _, err = api.MemImport(p, export)
				if err != nil {
					if ptr, _, err = api.PeerCopy(p, export); err != nil {
						return dataplane.ErrHandoffLost
					}
				}
			} else {
				var err error
				ptr, err = api.Malloc(p, h.Bytes)
				if err != nil {
					return err
				}
				if err := api.MemcpyH2D(p, ptr, gpu.HostBuffer{FP: h.FP, Size: h.Bytes}, h.Bytes); err != nil {
					return err
				}
			}
			return api.Free(p, ptr)
		},
	}
}

func TestInvokeChainSameServerGPU(t *testing.T) {
	e := sim.NewEngine(1)
	e.SetTimeLimit(time.Hour)
	e.Run("root", func(p *sim.Proc) {
		reg := metrics.NewRegistry()
		fab := dataplane.NewFabric(dataplane.DefaultConfig(), reg)
		gs := testGSPlane(e, p, 1, 2, fab.NewPlane("gpu-a"))
		b := NewBackend(e, gs, fastEnv())

		h := &dataplane.Handoff{}
		r := b.InvokeChain(p, ChainSpec{
			Producer: chainProducer(h),
			Consumer: chainConsumer(h, false),
			Handoff:  h,
			Fabric:   fab,
		})
		if r.Err != nil {
			t.Fatalf("chain failed: %v", r.Err)
		}
		if r.FellBack {
			t.Fatal("fell back, want a clean GPU handoff")
		}
		if reg.Get(dataplane.CtrBypassHits) != 1 {
			t.Fatalf("bypass hits = %d, want 1", reg.Get(dataplane.CtrBypassHits))
		}
		if r.E2E() <= 0 {
			t.Fatal("chain E2E must be positive")
		}
	})
}

func TestInvokeChainForceBounce(t *testing.T) {
	e := sim.NewEngine(1)
	e.SetTimeLimit(time.Hour)
	e.Run("root", func(p *sim.Proc) {
		reg := metrics.NewRegistry()
		fab := dataplane.NewFabric(dataplane.DefaultConfig(), reg)
		gs := testGSPlane(e, p, 1, 2, fab.NewPlane("gpu-a"))
		b := NewBackend(e, gs, fastEnv())

		h := &dataplane.Handoff{}
		r := b.InvokeChain(p, ChainSpec{
			Producer:    chainProducer(h),
			Consumer:    chainConsumer(h, false),
			Handoff:     h,
			Fabric:      fab,
			ForceBounce: true,
		})
		if r.Err != nil {
			t.Fatalf("bounce chain failed: %v", r.Err)
		}
		if r.FellBack {
			t.Fatal("fell back, want a plain bounce")
		}
		if reg.Get(dataplane.CtrExports) != 0 || reg.Get(dataplane.CtrImports) != 0 {
			t.Fatalf("bounce chain touched the data plane: %s", reg.String())
		}
	})
}

func TestInvokeChainFallsBackOnLostHandoff(t *testing.T) {
	e := sim.NewEngine(1)
	e.SetTimeLimit(time.Hour)
	e.Run("root", func(p *sim.Proc) {
		reg := metrics.NewRegistry()
		fab := dataplane.NewFabric(dataplane.DefaultConfig(), reg)
		gs := testGSPlane(e, p, 1, 2, fab.NewPlane("gpu-a"))
		b := NewBackend(e, gs, fastEnv())

		h := &dataplane.Handoff{}
		r := b.InvokeChain(p, ChainSpec{
			Producer: chainProducer(h),
			Consumer: chainConsumer(h, true),
			Handoff:  h,
			Fabric:   fab,
		})
		if r.Err != nil {
			t.Fatalf("chain must complete via the fallback: %v", r.Err)
		}
		if !r.FellBack {
			t.Fatal("no fallback, want a bounce fallback")
		}
		if reg.Get(dataplane.CtrFallbacks) != 1 {
			t.Fatalf("fallbacks = %d, want 1", reg.Get(dataplane.CtrFallbacks))
		}
	})
}

func TestInvokeChainCrossServerPeerCopy(t *testing.T) {
	e := sim.NewEngine(1)
	e.SetTimeLimit(time.Hour)
	e.Run("root", func(p *sim.Proc) {
		reg := metrics.NewRegistry()
		fab := dataplane.NewFabric(dataplane.DefaultConfig(), reg)
		var servers []*gpuserver.GPUServer
		for _, name := range []string{"gpu-a", "gpu-b"} {
			servers = append(servers, testGSPlane(e, p, 1, 1, fab.NewPlane(name)))
		}
		b := NewMultiBackend(e, servers, PickFixed, fastEnv())

		h := &dataplane.Handoff{}
		r := b.InvokeChain(p, ChainSpec{
			Producer:    chainProducer(h),
			Consumer:    chainConsumer(h, false),
			Handoff:     h,
			Fabric:      fab,
			CrossServer: true,
		})
		if r.Err != nil {
			t.Fatalf("cross-server chain failed: %v", r.Err)
		}
		if r.FellBack {
			t.Fatal("fell back, want a GPU handoff")
		}
		if r.Producer.Server == r.Consumer.Server {
			t.Fatalf("consumer landed on the producer's server %d; CrossServer must force it off", r.Consumer.Server)
		}
		if reg.Get(dataplane.CtrPeerCopies) != 1 || reg.Get(dataplane.CtrPeerBytes) != chainTensorBytes {
			t.Fatalf("peer counters: %s", reg.String())
		}
	})
}

func TestInvokeOnHonorsPreferenceWhenHealthy(t *testing.T) {
	e := sim.NewEngine(1)
	e.SetTimeLimit(time.Hour)
	e.Run("root", func(p *sim.Proc) {
		var servers []*gpuserver.GPUServer
		for i := 0; i < 3; i++ {
			servers = append(servers, testGS(e, p, 1, 1))
		}
		b := NewMultiBackend(e, servers, PickLeastLoaded, fastEnv())
		inv := b.InvokeOn(p, sleepFn("f", 1<<30, 0, 10*time.Millisecond), 2)
		if inv.Err != nil {
			t.Fatal(inv.Err)
		}
		if inv.Server != 2 {
			t.Fatalf("invocation ran on server %d, want the preferred 2", inv.Server)
		}

		// A dead preferred server falls through to normal routing.
		servers[2].Fail()
		inv = b.InvokeOn(p, sleepFn("f", 1<<30, 0, 10*time.Millisecond), 2)
		if inv.Err != nil {
			t.Fatal(inv.Err)
		}
		if inv.Server == 2 || inv.Server < 0 {
			t.Fatalf("invocation ran on server %d, want a healthy non-preferred server", inv.Server)
		}
	})
}
