package chaos

import (
	"fmt"
	"time"

	"dgsf/internal/dataplane"
	"dgsf/internal/deploy"
	"dgsf/internal/faas"
	"dgsf/internal/faults"
	"dgsf/internal/gpuserver"
	"dgsf/internal/metrics"
	"dgsf/internal/remoting"
	"dgsf/internal/sim"
	"dgsf/internal/store"
	"dgsf/internal/workloads"
)

// RunSchedule runs s as a campaign trial, under the root process
// "chaos-<workload>".
func RunSchedule(seed int64, s Schedule) Result {
	return Run(seed, "chaos-"+s.Workload, s)
}

// Run executes one schedule under a root process named root and returns the
// oracle's verdict. Process names seed random streams (DESIGN §7) and the
// mix submitter and the chain loop draw from the root's, so the name is
// part of the outcome: a caller that has always run a schedule under its own
// name keeps it. A panic out of the engine is captured as a violation rather
// than crashing the caller: "panic" for one in process code, with the
// process's name and stack, and "hang" for a deadlock or the virtual-time
// limit — a hang IS a finding.
func Run(seed int64, root string, s Schedule) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = engineFailure(r)
		}
	}()
	e := sim.NewEngine(seed)
	e.SetTimeLimit(2 * time.Hour)
	wireStart := remoting.SnapshotWireStats()
	switch s.Workload {
	case WorkloadFleet:
		runFleet(e, root, s, &res)
	case WorkloadMix:
		runMix(e, root, s, &res)
	default:
		runPipeline(e, root, s, &res)
	}
	checkWireDelta(&res, remoting.SnapshotWireStats().Sub(wireStart))
	return res
}

// engineFailure is the verdict on a run the engine ended by panicking with r.
// A *sim.ProcPanic prints the process's name, the value and its stack.
func engineFailure(r any) Result {
	v := Violation{Check: "hang", Detail: fmt.Sprint(r)}
	_, panicked := r.(*sim.ProcPanic)
	if panicked {
		v.Check = "panic"
	}
	if len(v.Detail) > 12000 {
		v.Detail = v.Detail[:12000] + " ..."
	}
	return Result{Hang: !panicked, Violations: []Violation{v}}
}

// runFleet drives the schedule's submissions through the full control plane
// — watched store, remote placement controller under a supervisor, reclaim
// controller, one agent per machine — with the fault plan armed, then runs
// the store, session, and guest invariants.
func runFleet(e *sim.Engine, root string, s Schedule, res *Result) {
	reg := metrics.NewRegistry()
	st := store.New(e, reg)

	e.Run(root, func(p *sim.Proc) {
		// Oracle watches first: opened at RV 0 before the cluster's first
		// write, they see the complete history of both kinds.
		sessObs, err := observe(p, st, store.KindSession, res)
		if err != nil {
			panic(err)
		}
		gsObs, err := observe(p, st, store.KindGPUServer, res)
		if err != nil {
			panic(err)
		}

		// Attempts and backoff wider than the default: the generator's
		// partition windows must be survivable by retrying through them.
		fleet := deploy.BootFleet(p, st, faas.FleetConfig{
			Registry:     reg,
			MaxAttempts:  10,
			RetryBackoff: 75 * time.Millisecond,
		}, s.Servers, deploy.DetectFailures, s.Plan)
		fleet.Flood(p, s.Invocations, 30*time.Millisecond)
		res.tally(fleet.Backend.Invocations(), s.Invocations)

		// Snapshot current state and mark the end of the oracle streams
		// back-to-back: nothing yields in between, so each fold, cut at its
		// mark, and the Lists are one atomic observation of the store.
		sessions, _, err := st.List(p, store.KindSession)
		if err != nil {
			panic(err)
		}
		gss, _, err := st.List(p, store.KindGPUServer)
		if err != nil {
			panic(err)
		}
		sessObs.mark()
		gsObs.mark()
		checkStoreCounters(res, st, reg)
		sessObs.settle(p, sessions)
		gsObs.settle(p, gss)

		// Invariant: session conservation, store side. Every session object
		// converges to Done, and the store's and the backend's accounting
		// agree.
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
}

// runMix drives the SW mix through the paper-scale backend: the smaller
// workloads in a seeded shuffle, with exponential gaps of 2 s mean, placed
// by least load on machines of 2 GPUs, with the fault plan armed. Then it
// runs the session, device-memory and guest invariants.
func runMix(e *sim.Engine, root string, s Schedule, res *Result) {
	e.Run(root, func(p *sim.Proc) {
		m := bootMachines(p, s, faas.PickLeastLoaded, func(_ int, cfg *gpuserver.Config) {
			cfg.GPUs = 2
		})
		// Whole rounds of the mix: a count that is not a multiple of its
		// four workloads shows as a session-conservation violation.
		sw := workloads.Smaller()
		m.backend.SubmitSequence(p, deploy.Stream(p, sw, s.Invocations/len(sw)), faas.ExponentialArrivals(p, 2*time.Second))
		m.backend.Drain(p)
		res.tally(m.backend.Invocations(), s.Invocations)
		res.ProviderE2E = m.backend.ProviderEndToEnd()
		res.E2ESum = m.backend.E2ESum()
		m.quiesce(res)
	})
}

// runPipeline drives the schedule's detect→identify chains over the GPU-side
// data plane with the fault plan armed, then runs the export, device-memory,
// and guest invariants.
func runPipeline(e *sim.Engine, root string, s Schedule, res *Result) {
	reg := metrics.NewRegistry()
	fab := dataplane.NewFabric(dataplane.DefaultConfig(), reg)

	e.Run(root, func(p *sim.Proc) {
		planes := make([]*dataplane.Plane, s.Servers)
		m := bootMachines(p, s, faas.PickFixed, func(i int, cfg *gpuserver.Config) {
			cfg.GPUs = 1
			planes[i] = fab.NewPlane(fmt.Sprintf("gpu-%d", i))
			cfg.Plane = planes[i]
		})
		m.inj.BindFabric(fab)

		h := &dataplane.Handoff{}
		spec := faas.ChainSpec{
			Producer:    workloads.DetectStage(h),
			Consumer:    workloads.IdentifyStage(h),
			Handoff:     h,
			Fabric:      fab,
			CrossServer: s.CrossServer,
		}
		start := p.Now()
		for i := 0; i < s.Invocations; i++ {
			ffBefore := reg.Counter(dataplane.CtrFabricFaults).Value()
			r := m.backend.InvokeChain(p, spec)
			res.Invocations++
			res.E2ESum += r.E2E()
			switch {
			case r.Err != nil:
				res.violate("chain-conservation", "chain %d failed: %v", i, r.Err)
			case r.FellBack:
				res.Fallbacks++
			default:
				res.GPUChains++
			}
			recov := 0
			for _, inv := range []*faas.Invocation{r.Producer, r.Consumer} {
				if inv != nil {
					recov += inv.Recoveries
				}
			}
			res.Recoveries += recov
			if recov > 0 {
				res.Recovered++
			}
			checkGuestAccounting(res, "chain-producer", i, r.Producer)
			checkGuestAccounting(res, "chain-consumer", i, r.Consumer)

			if s.CanaryLeak && reg.Counter(dataplane.CtrFabricFaults).Value() > ffBefore {
				// Seeded bug for the shrinker self-test: any chain whose
				// handoff took a mid-flight fabric fault leaks one export, as
				// a buggy retry path would leak its half-imported tensor.
				for j, gs := range m.servers {
					if !gs.Healthy() {
						continue
					}
					if phys, err := gs.Devices()[0].AllocPhys(1 << 20); err == nil {
						planes[j].Export(fmt.Sprintf("leak-%d", i), phys)
					}
					break
				}
			}
		}
		res.ProviderE2E = p.Now() - start
		m.quiesce(res)
	})
	checkExportBalance(res, fab)
}

// machines is what a mix or a pipeline schedule runs on: GPU servers with
// two API servers per GPU and failure detection on, their device-memory
// baseline, the schedule's fault plan armed over them, and a multi-server
// backend of recoverable guests in front.
type machines struct {
	servers  []*gpuserver.GPUServer
	baseline [][]int // live allocations per server and device, after boot
	inj      *faults.Injector
	backend  *faas.Backend
}

// bootMachines boots s.Servers machines, adjust seeing each one's index
// last, and arms s.Plan over them.
func bootMachines(p *sim.Proc, s Schedule, pick faas.ServerPick, adjust func(i int, cfg *gpuserver.Config)) *machines {
	e := p.Engine()
	m := &machines{}
	m.servers = deploy.GPUServers(p, s.Servers, func(i int, cfg *gpuserver.Config) {
		cfg.ServersPerGPU = 2
		deploy.DetectFailures(cfg)
		adjust(i, cfg)
	})
	// Device-memory baseline: the hosted API servers' own contexts and
	// handle pools, created by Prewarm before Start returned and alive for
	// the machine's lifetime. The pools are bounded at their prewarmed size,
	// so a healthy machine at quiesce must be exactly back at this baseline.
	m.baseline = make([][]int, len(m.servers))
	for i, gs := range m.servers {
		for _, dev := range gs.Devices() {
			m.baseline[i] = append(m.baseline[i], dev.LiveAllocs())
		}
	}

	m.inj = faults.NewInjector(e, s.Plan, m.servers)
	m.inj.Arm(p)

	m.backend = faas.NewMultiBackend(e, m.servers, pick, faas.OpenFaaSEnv())
	m.backend.DialHook = m.inj.WrapConn
	m.backend.DialServerHook = m.inj.WrapTargetConn
	m.backend.Recovery = deploy.Recovery()
	return m
}

// quiesce checks device-memory conservation and records what the injector
// did. With every invocation complete and every session closed, a healthy
// machine must be back at its boot baseline; a failed one keeps its stranded
// memory by design.
func (m *machines) quiesce(res *Result) {
	for i, gs := range m.servers {
		if !gs.Healthy() {
			continue
		}
		for di, dev := range gs.Devices() {
			if n := dev.LiveAllocs(); n > m.baseline[i][di] {
				res.violate("device-leak", "server %d device %d holds %d live allocations at quiesce (startup baseline %d)",
					i, di, n, m.baseline[i][di])
			}
		}
	}
	res.Killed = m.inj.Killed
	res.FailedGS = m.inj.Failed
	res.Dropped = m.inj.Dropped
	res.Corrupted = m.inj.Corrupted
}
