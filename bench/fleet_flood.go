package main

import (
	"fmt"
	"time"

	"dgsf/internal/controller"
	"dgsf/internal/cuda"
	"dgsf/internal/faas"
	"dgsf/internal/gpu"
	"dgsf/internal/gpuserver"
	"dgsf/internal/guest"
	"dgsf/internal/metrics"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
	"dgsf/internal/store"
)

// fleetFlood is the control-plane workload: light invocations arrive at
// 40/s (virtual, Poisson) at a fleet of single-GPU servers; every placement
// goes through the store and the placement controller (over a remote store
// handle), agents mirror machine state, the reclaim controller trims staged
// models. It is experiments.RunFleet's topology without its fault plan.
type fleetFlood struct {
	seed                 int64
	servers, invocations int
	quickServers, quickN int
}

const (
	fleetMeanGap   = 25 * time.Millisecond // 40 arrivals/s
	fleetStoreRTT  = 100 * time.Microsecond
	fleetAgentSync = 200 * time.Millisecond
)

func newFleetFlood(seed int64, quick bool) *fleetFlood {
	w := &fleetFlood{seed: seed, servers: 32, invocations: 2000, quickServers: 8, quickN: 160}
	if quick {
		w.servers, w.invocations = w.quickServers, w.quickN
	}
	return w
}

func (w *fleetFlood) setup(*tracer) error {
	out := w.run(w.quickServers, w.quickN, nil)
	if len(out.errs) > 0 {
		return fmt.Errorf("warm-up: %s", out.errs[0])
	}
	return nil
}

func (w *fleetFlood) rep(tr *tracer) repOut { return w.run(w.servers, w.invocations, tr) }
func (w *fleetFlood) close()                {}

// fleetFunctions are the four function profiles of `dgsf-bench -exp fleet`:
// one kernel of 80-250 ms and a 10 MB download of which 8 MB is a
// host-cacheable model.
func fleetFunctions() []*faas.Function {
	mk := func(name string, kernel time.Duration) *faas.Function {
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
	return []*faas.Function{
		mk("detect", 150*time.Millisecond),
		mk("classify", 100*time.Millisecond),
		mk("embed", 250*time.Millisecond),
		mk("rank", 80*time.Millisecond),
	}
}

func (w *fleetFlood) run(nServers, nInvocations int, tr *tracer) repOut {
	out := newRepOut()
	wire0 := snapshotWire()
	var g guest.Stats
	var ss storeStats
	var backend *faas.FleetBackend
	var machines []*gpuserver.GPUServer
	var agents []*gpuserver.Agent
	var sessions []store.Resource
	reg := metrics.NewRegistry()

	start := hostNow()
	e := sim.NewEngine(w.seed)
	e.SetTimeLimit(2 * time.Hour)
	if tr != nil {
		e.SetTrace(tr.simHook)
	}
	st := store.New(e, reg)
	// handle gives a component its view of the store, decorated when tracing.
	handle := func(h store.Interface, local bool) store.Interface {
		if tr == nil {
			return h
		}
		return &tracedStore{inner: h, t: tr, s: &ss, local: local}
	}
	// collect reads the run's results. It runs as the root process's last
	// act: once Engine.Run returns, ready daemons may still be taking their
	// final steps on their own goroutines, so counters read after it are
	// not stable.
	collect := func() {
		if tr != nil {
			tr.freeze()
		}
		invs := backend.Invocations()
		out.calls = int64(g.Total)
		out.invocations = int64(len(invs))
		out.attempted = out.invocations + int64(len(sessions))
		out.vals["calls_per_s"] = ratio(float64(out.calls), out.hostS)

		d := newDigest()
		var e2e, bind []float64
		var first, last time.Duration
		for i, inv := range invs {
			if inv.Err != nil {
				out.fail(fmt.Errorf("invocation %d (%s): %w", inv.Seq, inv.Fn.Name, inv.Err))
			}
			if i == 0 || inv.SubmittedAt < first {
				first = inv.SubmittedAt
			}
			if inv.Done > last {
				last = inv.Done
			}
			e2e = append(e2e, inv.E2E().Seconds())
			d.add(inv.Seq, inv.SubmittedAt, inv.DownloadDone, inv.Granted, inv.Done)
		}
		if len(sessions) != len(invs) {
			out.fail(fmt.Errorf("%d sessions in the store for %d invocations", len(sessions), len(invs)))
		}
		for _, r := range sessions {
			s := r.(*store.Session)
			if s.Status.Phase != store.PhaseDone {
				out.fail(fmt.Errorf("session %s ended %q, not Done", s.Meta().Name, s.Status.Phase))
			}
			bind = append(bind, (s.Status.PlacedAt - s.Meta().CreatedAt).Seconds())
		}
		out.vals["virt_makespan_s"] = (last - first).Seconds()
		out.vals["virt_e2e_p50_s"] = percentile(e2e, 50)
		out.vals["virt_e2e_p99_s"] = percentile(e2e, 99)

		ls := out.layers
		ls.guestCounts(g)
		var hits, misses, evictions int
		for _, gs := range machines {
			for _, srv := range gs.Servers() {
				ls.addServer(srv.Stats())
			}
			for _, dev := range gs.Devices() {
				ls["gpu.compute_busy_virt_s"] += dev.ComputeBusy().Seconds()
				ls["gpu.copy_busy_virt_s"] += dev.CopyBusy().Seconds()
			}
			ls["gpuserver.placements"] += float64(len(gs.Placements()))
			ls["gpuserver.migrations"] += float64(gs.Migrations())
			if c := gs.Cache(); c != nil {
				cs := c.Stats().Host
				hits, misses, evictions = hits+cs.Hits, misses+cs.Misses, evictions+cs.Evictions
			}
		}
		ls["gpu.util_pct"] = 100 * ratio(ls["gpu.compute_busy_virt_s"], float64(nServers)*(last-first).Seconds())
		ls.invocations(invs)
		n := float64(len(invs))
		ls["faas.retries"] = float64(reg.Get("fleet_run_retries"))
		ls["store.writes"] = float64(reg.Get("store_writes_total"))
		ls["store.conflicts"] = float64(reg.Get("store_conflicts_total"))
		ls["store.watch_events"] = float64(reg.Get("store_watch_events_total"))
		ls["store.objects_final"] = float64(reg.Get("store_objects"))
		ls["controller.placement_reconciles_per_invocation"] = ratio(float64(reg.Get("ctrl_placement_reconciles_total")), n)
		ls["controller.reclaim_reconciles_per_invocation"] = ratio(float64(reg.Get("ctrl_reclaim_reconciles_total")), n)
		ls["controller.requeues"] = float64(reg.Get("ctrl_placement_requeues_total") + reg.Get("ctrl_reclaim_requeues_total"))
		ls["controller.resyncs"] = float64(reg.Get("ctrl_placement_resyncs_total") + reg.Get("ctrl_reclaim_resyncs_total"))
		ls["controller.bind_latency_virt_p50_s"] = percentile(bind, 50)
		ls["modelcache.hit_rate"] = ratio(float64(hits), float64(hits+misses))
		ls["modelcache.evictions"] = float64(evictions)
		ls.wire(snapshotWire().Sub(wire0))
		d.add(g, reg.String())
		out.digest = d.sum()

		if tr != nil {
			ls["store.gets"] = float64(ss.gets)
			ls["store.lists"] = float64(ss.lists)
			ls["store.creates"] = float64(ss.creates)
			ls["store.updates"] = float64(ss.updates)
			ls["store.status_updates"] = float64(ss.statusUpdates)
			ls["store.deletes"] = float64(ss.deletes)
			ls["store.watches"] = float64(ss.watches)
			ls["store.list_items_per_invocation"] = ratio(float64(ss.listItems), n)
			ls["store.local_host_us_per_invocation"] = ratio(float64(ss.localHost)/1e3, n)
			tr.invocationSpans(invs)
			ls.fromTracer(tr, out.calls, out.invocations)
		}
	}
	e.Run("fleet", func(p *sim.Proc) {
		env := faas.OpenFaaSEnv()
		env.Download.Latency = 0
		env.Download.JitterFrac = 0
		backend = faas.NewFleet(e, handle(st, true), faas.FleetConfig{Env: env, Registry: reg})
		if tr != nil {
			backend.DialHook = tr.dialHook
		}
		for i := 0; i < nServers; i++ {
			cfg := gpuserver.DefaultConfig()
			cfg.GPUs, cfg.ServersPerGPU = 1, 1
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
			agent := gpuserver.NewAgent(gs, handle(st, true), name, gpuserver.AgentConfig{
				SyncPeriod:  fleetAgentSync,
				StageBudget: 20e6,
			})
			agents = append(agents, agent)
			p.SpawnDaemon("agent-"+name, agent.Run)
		}
		p.Sleep(250 * time.Millisecond) // first agent sync: fleet visible in store

		l := remoting.NewListener(e)
		p.SpawnDaemon("store-serve", func(p *sim.Proc) { store.Serve(p, st, l) })
		remote := store.NewRemote(e, remoting.Dial(e, l, remoting.NetProfile{RTT: fleetStoreRTT}))
		placement := faas.NewPlacementController(handle(remote, false), faas.PlacementConfig{
			Resync:   100 * time.Millisecond,
			Registry: reg,
		})
		p.Spawn("placement", placement.Run)
		reclaim := faas.NewReclaimController(handle(st, true), faas.ReclaimConfig{Resync: 200 * time.Millisecond, Registry: reg})
		p.Spawn("reclaim", reclaim.Run)

		if err := backend.Run(p); err != nil {
			out.fail(err)
			stopAll(placement, reclaim)
			return
		}
		fns := fleetFunctions()
		for i := range fns {
			fns[i] = harvest(fns[i], &g, tr)
		}
		for i := 0; i < nInvocations; i++ {
			backend.Submit(p, fns[i%len(fns)])
			p.Sleep(time.Duration(p.Rand().ExpFloat64() * float64(fleetMeanGap)))
		}
		backend.Drain(p)
		stopAll(placement, reclaim)

		out.hostS = hostNow().Sub(start).Seconds()
		var err error
		if sessions, _, err = st.List(p, store.KindSession); err != nil {
			out.fail(err)
		}
		collect()

		// Engine.Stop below kills every parked daemon at once, each on its
		// own goroutine. The agents unregister their store watches on the
		// way out, which must not happen concurrently: let them leave in
		// simulated order first.
		for _, a := range agents {
			a.Stop()
		}
		p.Sleep(fleetAgentSync + time.Millisecond)
	})
	e.Stop()
	return out
}

func stopAll(cs ...*controller.Controller) {
	for _, c := range cs {
		c.Stop()
	}
}
