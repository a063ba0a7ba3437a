package chaos

import (
	"fmt"
	"time"

	"dgsf/internal/controller"
	"dgsf/internal/cuda"
	"dgsf/internal/dataplane"
	"dgsf/internal/faas"
	"dgsf/internal/faults"
	"dgsf/internal/gpu"
	"dgsf/internal/gpuserver"
	"dgsf/internal/guest"
	"dgsf/internal/metrics"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
	"dgsf/internal/store"
	"dgsf/internal/workloads"
)

// RunSchedule executes one schedule and returns the oracle's verdict. A
// deadlock or virtual-time-limit panic from the engine is captured as a
// "hang" violation rather than crashing the campaign — a hang IS a finding.
func RunSchedule(seed int64, s Schedule) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res.Hang = true
			detail := fmt.Sprint(r)
			if len(detail) > 12000 {
				detail = detail[:12000] + " ..."
			}
			res.Violations = append(res.Violations, Violation{Check: "hang", Detail: detail})
		}
	}()
	switch s.Workload {
	case WorkloadFleet:
		return runFleetSchedule(seed, s)
	default:
		return runPipelineSchedule(seed, s)
	}
}

// chaosFleetFn builds the fleet workload's function profile: a model
// download that is host-cacheable plus one kernel, like the fleet
// experiment's, so the staged-model reclaim loop has real work.
func chaosFleetFn(name string, kernel time.Duration) *faas.Function {
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

// runFleetSchedule drives the schedule's submissions through the full
// control plane — watched store, remote placement controller under a
// supervisor, reclaim controller, one agent per machine — with the fault
// plan armed, then runs the store, session, and wire invariants.
func runFleetSchedule(seed int64, s Schedule) Result {
	var res Result
	e := sim.NewEngine(seed)
	e.SetTimeLimit(2 * time.Hour)
	reg := metrics.NewRegistry()
	st := store.New(e, reg)
	wireStart := remoting.SnapshotWireStats()

	e.Run("chaos-fleet", func(p *sim.Proc) {
		// Oracle watches first: opened at RV 0 before the cluster's first
		// write, they see the complete history of both kinds.
		sessObs, err := observe(p, st, store.KindSession)
		if err != nil {
			panic(err)
		}
		gsObs, err := observe(p, st, store.KindGPUServer)
		if err != nil {
			panic(err)
		}

		env := faas.OpenFaaSEnv()
		env.Download.Latency = 0
		env.Download.JitterFrac = 0
		// Wider than the default: the generator's partition windows must be
		// survivable by retrying through them.
		backend := faas.NewFleet(e, st, faas.FleetConfig{
			Env:          env,
			Registry:     reg,
			MaxAttempts:  10,
			RetryBackoff: 75 * time.Millisecond,
		})
		var machines []*gpuserver.GPUServer
		for i := 0; i < s.Servers; i++ {
			cfg := gpuserver.DefaultConfig()
			cfg.GPUs, cfg.ServersPerGPU = 1, 1
			// Recovery gap found by this engine (seed 1, trial 29): with
			// DefaultConfig's zero HeartbeatPeriod and QueueDeadline, a
			// KillAPIServer event is never detected and never shed, so the
			// invocation queued behind it waits past the virtual time limit.
			// Detection + shedding turn the kill into a retryable fault.
			cfg.HeartbeatPeriod = 50 * time.Millisecond
			cfg.QueueDeadline = 5 * time.Minute
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
			gs := gpuserver.New(e, cfg)
			gs.Start(p)
			machines = append(machines, gs)
			name := fmt.Sprintf("gpu-%03d", i)
			backend.AddServer(name, gs)
			agent := gpuserver.NewAgent(gs, st, name, gpuserver.AgentConfig{
				SyncPeriod:  200 * time.Millisecond,
				StageBudget: 20e6,
			})
			p.SpawnDaemon("agent-"+name, agent.Run)
		}
		p.Sleep(250 * time.Millisecond) // first agent sync: fleet visible in store

		l := remoting.NewListener(e)
		p.SpawnDaemon("store-serve", func(p *sim.Proc) { store.Serve(p, st, l) })
		remoteHandle := func() store.Interface {
			return store.NewRemote(e, remoting.Dial(e, l, remoting.NetProfile{RTT: 100 * time.Microsecond}))
		}

		inj := faults.NewInjector(e, s.Plan, machines)
		inj.BindStore(st)
		inj.Arm(p)
		backend.DialHook = inj.WrapConn
		backend.DialServerHook = inj.WrapTargetConn

		var active *controller.Controller
		p.Spawn("placement-supervisor", func(p *sim.Proc) {
			faas.RunSupervised(p, 10*time.Millisecond, 5, func() *controller.Controller {
				handle := remoteHandle()
				fuse := store.NewFuse(handle)
				inj.BindControllerFuse(fuse)
				active = faas.NewPlacementController(fuse, faas.PlacementConfig{
					Resync:   100 * time.Millisecond,
					Registry: reg,
				})
				return active
			})
		})
		reclaim := faas.NewReclaimController(st, faas.ReclaimConfig{Resync: 200 * time.Millisecond, Registry: reg})
		p.Spawn("reclaim", reclaim.Run)

		if err := backend.Run(p); err != nil {
			panic(err)
		}
		fns := []*faas.Function{
			chaosFleetFn("detect", 150*time.Millisecond),
			chaosFleetFn("classify", 100*time.Millisecond),
			chaosFleetFn("embed", 250*time.Millisecond),
			chaosFleetFn("rank", 80*time.Millisecond),
		}
		for i := 0; i < s.Invocations; i++ {
			backend.Submit(p, fns[i%len(fns)])
			p.Sleep(time.Duration(p.Rand().ExpFloat64() * float64(30*time.Millisecond)))
		}
		backend.Drain(p)
		if active != nil {
			active.Stop()
		}
		reclaim.Stop()

		// Invariant: session conservation. Every submission completes, every
		// session object converges to Done, and the store's and the
		// backend's accounting agree.
		invs := backend.Invocations()
		res.Invocations = len(invs)
		for _, inv := range invs {
			if inv.Err != nil {
				res.Failed++
				res.violate("session-conservation", "invocation %d (%s) failed: %v", inv.Seq, inv.Fn.Name, inv.Err)
			}
			res.Recoveries += inv.Recoveries
			checkGuestAccounting(&res, "invocation", inv.Seq, inv)
		}
		if len(invs) != s.Invocations {
			res.violate("session-conservation", "submitted %d invocations, backend tracked %d", s.Invocations, len(invs))
		}

		// Drain the oracle watches and snapshot current state back-to-back:
		// no sleep separates them, so the fold and the List are one atomic
		// observation of the store.
		sessObs.drain(&res)
		gsObs.drain(&res)
		sessions, _, err := st.List(p, store.KindSession)
		if err != nil {
			panic(err)
		}
		gss, _, err := st.List(p, store.KindGPUServer)
		if err != nil {
			panic(err)
		}
		sessObs.checkComplete(&res, sessions)
		gsObs.checkComplete(&res, gss)
		checkStoreCounters(&res, st, reg)

		if len(sessions) != s.Invocations {
			res.violate("session-conservation", "store holds %d sessions for %d submissions", len(sessions), s.Invocations)
		}
		done := 0
		for _, r := range sessions {
			sess := r.(*store.Session)
			if sess.Status.Phase == store.PhaseDone {
				done++
			} else {
				res.violate("session-conservation", "session %q stuck in phase %q after drain",
					sess.Meta().Name, sess.Status.Phase)
			}
		}
		if c := reg.Counter("fleet_sessions_done").Value(); c != int64(done) {
			res.violate("session-conservation", "fleet_sessions_done=%d but %d sessions are Done in the store", c, done)
		}
		if c := reg.Counter("fleet_sessions_failed").Value(); c != 0 {
			res.violate("session-conservation", "fleet_sessions_failed=%d", c)
		}
	})
	checkWireDelta(&res, remoting.SnapshotWireStats().Sub(wireStart))
	return res
}

// chaosRecovery is the pipeline guests' recovery policy: attempts sized to
// outlast the generator's partition windows, a call deadline below the
// injected stall length so stalls are detected, not waited out.
func chaosRecovery() guest.RecoveryConfig {
	return guest.RecoveryConfig{
		MaxAttempts:  10,
		BackoffBase:  5 * time.Millisecond,
		BackoffCap:   500 * time.Millisecond,
		CallDeadline: 60 * time.Second,
		FenceLag:     time.Second,
	}
}

// runPipelineSchedule drives the schedule's detect→identify chains over the
// GPU-side data plane with the fault plan armed, then runs the export,
// device-memory, guest, and wire invariants.
func runPipelineSchedule(seed int64, s Schedule) Result {
	var res Result
	e := sim.NewEngine(seed)
	e.SetTimeLimit(2 * time.Hour)
	reg := metrics.NewRegistry()
	fab := dataplane.NewFabric(dataplane.DefaultConfig(), reg)
	wireStart := remoting.SnapshotWireStats()

	e.Run("chaos-pipeline", func(p *sim.Proc) {
		var servers []*gpuserver.GPUServer
		var planes []*dataplane.Plane
		for i := 0; i < s.Servers; i++ {
			gcfg := gpuserver.DefaultConfig()
			gcfg.GPUs = 1
			gcfg.ServersPerGPU = 2
			gcfg.HeartbeatPeriod = 50 * time.Millisecond
			gcfg.QueueDeadline = 5 * time.Minute
			pl := fab.NewPlane(fmt.Sprintf("gpu-%d", i))
			gcfg.Plane = pl
			gs := gpuserver.New(e, gcfg)
			gs.Start(p)
			servers = append(servers, gs)
			planes = append(planes, pl)
		}
		// Device-memory baseline: the hosted API servers' own contexts and
		// handle pools, created by Prewarm before Start returned and alive
		// for the machine's lifetime. The pools are bounded at their
		// prewarmed size, so a healthy machine at quiesce must be exactly
		// back at this baseline.
		baseline := make([][]int, len(servers))
		for i, gs := range servers {
			for _, dev := range gs.Devices() {
				baseline[i] = append(baseline[i], dev.LiveAllocs())
			}
		}

		inj := faults.NewInjector(e, s.Plan, servers)
		inj.BindFabric(fab)
		inj.Arm(p)

		backend := faas.NewMultiBackend(e, servers, faas.PickFixed, faas.OpenFaaSEnv())
		backend.DialHook = inj.WrapConn
		backend.DialServerHook = inj.WrapTargetConn
		rc := chaosRecovery()
		backend.Recovery = &rc

		h := &dataplane.Handoff{}
		spec := faas.ChainSpec{
			Producer:    workloads.DetectStage(h),
			Consumer:    workloads.IdentifyStage(h),
			Handoff:     h,
			Fabric:      fab,
			CrossServer: s.CrossServer,
		}
		for i := 0; i < s.Invocations; i++ {
			ffBefore := reg.Counter(dataplane.CtrFabricFaults).Value()
			r := backend.InvokeChain(p, spec)
			res.Invocations++
			if r.Err != nil {
				res.Failed++
				res.violate("chain-conservation", "chain %d failed: %v", i, r.Err)
			} else if r.FellBack {
				res.Fallbacks++
			} else {
				res.GPUChains++
			}
			for _, inv := range []*faas.Invocation{r.Producer, r.Consumer} {
				if inv != nil {
					res.Recoveries += inv.Recoveries
				}
			}
			checkGuestAccounting(&res, "chain-producer", i, r.Producer)
			checkGuestAccounting(&res, "chain-consumer", i, r.Consumer)

			if s.CanaryLeak && reg.Counter(dataplane.CtrFabricFaults).Value() > ffBefore {
				// Seeded bug for the shrinker self-test: any chain whose
				// handoff took a mid-flight fabric fault leaks one export, as
				// a buggy retry path would leak its half-imported tensor.
				for j, gs := range servers {
					if !gs.Healthy() {
						continue
					}
					if phys, err := gs.Devices()[0].AllocPhys(1 << 20); err == nil {
						planes[j].Export("canary", fmt.Sprintf("leak-%d", i), phys)
					}
					break
				}
			}
		}

		// Invariant: device-memory conservation. With every chain complete
		// and every session closed, a healthy machine must be back at its
		// startup allocation baseline (failed machines keep their stranded
		// memory by design).
		for i, gs := range servers {
			if !gs.Healthy() {
				continue
			}
			for di, dev := range gs.Devices() {
				if n := dev.LiveAllocs(); n > baseline[i][di] {
					res.violate("device-leak", "server %d device %d holds %d live allocations at quiesce (startup baseline %d)",
						i, di, n, baseline[i][di])
				}
			}
		}
	})
	checkExportBalance(&res, fab)
	checkWireDelta(&res, remoting.SnapshotWireStats().Sub(wireStart))
	return res
}
