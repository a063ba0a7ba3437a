package deploy

import (
	"fmt"
	"time"

	"dgsf/internal/controller"
	"dgsf/internal/cuda"
	"dgsf/internal/faas"
	"dgsf/internal/faults"
	"dgsf/internal/gpu"
	"dgsf/internal/gpuserver"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
	"dgsf/internal/store"
)

// Fleet is the booted store-driven deployment: machines whose agents mirror
// them into the store, a fleet backend routing through it, the placement
// controller on a remote store handle under a restart supervisor, and the
// reclaim controller.
type Fleet struct {
	Backend  *faas.FleetBackend
	Injector *faults.Injector
	// CtrlRestarts counts placement-controller replacements. The supervisor
	// writes it when its process returns: read it after Engine.Run.
	CtrlRestarts int

	placement, reclaim *controller.Controller
}

// BootFleet boots the fleet on p over st, with plan armed. cfg carries the
// caller's attempt budget and registry; its Env is set here. Each of the
// servers machines has one GPU, one API server, a data plane that costs
// nothing (the deployment measures the control plane), a host-tier model
// cache and a stage budget tight enough that reclaim has work, as adjusted.
//
// The order is fixed: backend, then per machine the server and its agent,
// the first agent sync, the served store, the injector, the supervisor, the
// reclaim controller, the session router. A process the plan's faults must
// not miss has to exist before the injector is armed.
func BootFleet(p *sim.Proc, st *store.Store, cfg faas.FleetConfig, servers int, adjust func(cfg *gpuserver.Config), plan faults.Plan) *Fleet {
	e := p.Engine()
	cfg.Env = faas.OpenFaaSEnv()
	cfg.Env.Download.Latency = 0
	cfg.Env.Download.JitterFrac = 0
	f := &Fleet{Backend: faas.NewFleet(e, st, cfg)}

	machines := make([]*gpuserver.GPUServer, servers)
	for i := range machines {
		machines[i] = GPUServer(p, func(cfg *gpuserver.Config) {
			cfg.GPUs = 1
			cfg.PoolHandles = false
			cfg.CUDACosts = cuda.Costs{}
			cfg.LibCosts.DNNCreateTime = 0
			cfg.LibCosts.BLASCreateTime = 0
			cfg.GPUConfig = func(i int) gpu.Config {
				c := gpu.V100Config(i)
				c.CopyLat, c.KernelLat = 0, 0
				return c
			}
			cfg.Cache.Enable = true
			cfg.Cache.HostBudget = 1 << 30
			cfg.Cache.DeviceBudget = -1
			if adjust != nil {
				adjust(cfg)
			}
		})
		name := fmt.Sprintf("gpu-%03d", i)
		f.Backend.AddServer(name, machines[i])
		agent := gpuserver.NewAgent(machines[i], st, name, gpuserver.AgentConfig{
			SyncPeriod:  200 * time.Millisecond,
			StageBudget: 20e6, // ~2 staged models before reclaim bites
		})
		p.SpawnDaemon("agent-"+name, agent.Run)
	}
	p.Sleep(250 * time.Millisecond) // first agent sync: fleet visible in store

	// The store, served over the simulated transport: the placement
	// controller speaks only the generated wire protocol.
	l := remoting.NewListener(e)
	p.SpawnDaemon("store-serve", func(p *sim.Proc) { store.Serve(p, st, l) })

	f.Injector = faults.NewInjector(e, plan, machines)
	f.Injector.BindStore(st)
	f.Injector.Arm(p)
	f.Backend.DialHook = f.Injector.WrapConn
	f.Backend.DialServerHook = f.Injector.WrapTargetConn

	p.Spawn("placement-supervisor", func(p *sim.Proc) {
		f.CtrlRestarts = faas.RunSupervised(p, 10*time.Millisecond, 5, func() *controller.Controller {
			// Each replica gets a fresh remote handle behind a fuse the
			// plan's controller kills can blow at a bind.
			fuse := store.NewFuse(store.NewRemote(e, remoting.Dial(e, l, remoting.NetProfile{RTT: 100 * time.Microsecond})))
			f.Injector.BindControllerFuse(fuse)
			f.placement = faas.NewPlacementController(fuse, faas.PlacementConfig{
				Resync:   100 * time.Millisecond,
				Registry: cfg.Registry,
			})
			return f.placement
		})
	})
	f.reclaim = faas.NewReclaimController(st, faas.ReclaimConfig{Resync: 200 * time.Millisecond, Registry: cfg.Registry})
	p.Spawn("reclaim", f.reclaim.Run)

	if err := f.Backend.Run(p); err != nil {
		panic(err)
	}
	return f
}

// Flood submits n invocations round-robin over four one-kernel function
// profiles, exponential gaps of mean meanGap apart, waits for all of them and
// stops the controllers.
func (f *Fleet) Flood(p *sim.Proc, n int, meanGap time.Duration) {
	fns := []*faas.Function{
		floodFn("detect", 150*time.Millisecond),
		floodFn("classify", 100*time.Millisecond),
		floodFn("embed", 250*time.Millisecond),
		floodFn("rank", 80*time.Millisecond),
	}
	for i := 0; i < n; i++ {
		f.Backend.Submit(p, fns[i%len(fns)])
		p.Sleep(time.Duration(p.Rand().ExpFloat64() * float64(meanGap)))
	}
	f.Backend.Drain(p)
	if f.placement != nil {
		f.placement.Stop()
	}
	f.reclaim.Stop()
}

// floodFn is one profile of the flood: one kernel behind a download whose
// model portion is host-cacheable, which is what feeds staged-model reclaim.
func floodFn(name string, kernel time.Duration) *faas.Function {
	return &faas.Function{
		Name:          name,
		GPUMem:        1 << 30,
		DownloadBytes: 10e6,
		ModelDLBytes:  8e6,
		Run: func(p *sim.Proc, api gen.API) error {
			fns, err := api.RegisterKernels(p, []string{"work"})
			if err != nil {
				return err
			}
			if err := api.LaunchKernel(p, cuda.LaunchParams{Fn: fns[0], Duration: kernel}); err != nil {
				return err
			}
			return api.DeviceSynchronize(p)
		},
	}
}
