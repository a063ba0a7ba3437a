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
		sessObs, err := observe(p, st, store.KindSession, &res)
		if err != nil {
			panic(err)
		}
		gsObs, err := observe(p, st, store.KindGPUServer, &res)
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

		// Invariant: session conservation. Every submission completes, every
		// session object converges to Done, and the store's and the
		// backend's accounting agree.
		invs := fleet.Backend.Invocations()
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
		checkStoreCounters(&res, st, reg)
		sessObs.settle(p, sessions)
		gsObs.settle(p, gss)

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
		planes := make([]*dataplane.Plane, s.Servers)
		servers := deploy.GPUServers(p, s.Servers, func(i int, cfg *gpuserver.Config) {
			cfg.GPUs = 1
			cfg.ServersPerGPU = 2
			deploy.DetectFailures(cfg)
			planes[i] = fab.NewPlane(fmt.Sprintf("gpu-%d", i))
			cfg.Plane = planes[i]
		})
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
		// Attempts sized to outlast the generator's partition windows.
		backend.Recovery = deploy.Recovery(10)

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
