package experiments

import (
	"time"

	"dgsf/internal/deploy"
	"dgsf/internal/faas"
	"dgsf/internal/faults"
	"dgsf/internal/metrics"
	"dgsf/internal/remoting"
	"dgsf/internal/sim"
	"dgsf/internal/store"
)

// Fleet experiment: the cluster control plane at scale. A fleet of GPU
// servers (each with an agent mirroring its state into the versioned store)
// serves a burst of invocations routed entirely through watch-driven
// reconcilers — the placement controller runs over a REMOTE store handle
// (apigen-generated stubs over the simulated transport, sync CRUD plus the
// one-way status lane), machines fail mid-run, staged models overflow their
// budget and are reclaimed store-ward, and the placement controller itself
// is killed mid-reconcile (its store handle's fuse blows at a session bind)
// and restarted by a supervisor. Acceptance: every invocation completes and
// every session object converges to Done — zero lost sessions — for every
// seed.

// FleetResult is the outcome of one fleet run.
type FleetResult struct {
	Servers     int
	Invocations int
	Done        int
	Failed      int // invocations that ended with an error (must be 0)
	Lost        int // sessions not Done in the store (must be 0)
	Retried     int // sessions that needed more than one attempt

	CtrlRestarts int // placement-controller replacements after kills
	FailedGS     int // GPU-server failures injected
	StagedBytes  int64
	ProviderE2E  time.Duration

	// MetricsTable renders the run's store/controller/fleet counters.
	MetricsTable string
}

// RunFleet drives nServers machines and nInvocations invocations through
// the control plane under failures and a controller kill.
func RunFleet(seed int64, nServers, nInvocations int) FleetResult {
	res := FleetResult{Servers: nServers, Invocations: nInvocations}
	e := sim.NewEngine(seed)
	e.SetTimeLimit(2 * time.Hour)
	reg := metrics.NewRegistry()
	st := store.New(e, reg)
	wireStart := remoting.SnapshotWireStats()
	// Fault plan: two machines fail mid-run; the placement controller is
	// killed mid-reconcile 3 writes after the kill fires.
	plan := faults.Plan{
		Events: []faults.Event{
			{At: 2 * time.Second, Kind: faults.FailGPUServer, Server: 0},
			{At: 4 * time.Second, Kind: faults.FailGPUServer, Server: 1},
		},
		ControllerKills: []faults.ControllerKill{{At: time.Second, AfterWrites: 3}},
	}
	var fleet *deploy.Fleet

	e.Run("fleet", func(p *sim.Proc) {
		fleet = deploy.BootFleet(p, st, faas.FleetConfig{Registry: reg}, nServers, nil, plan)
		fleet.Flood(p, nInvocations, 25*time.Millisecond)

		for _, inv := range fleet.Backend.Invocations() {
			if inv.Err != nil {
				res.Failed++
			}
			if inv.Done > res.ProviderE2E {
				res.ProviderE2E = inv.Done
			}
		}
		rs, _, err := st.List(p, store.KindSession)
		if err != nil {
			panic(err)
		}
		for _, r := range rs {
			s := r.(*store.Session)
			if s.Status.Phase == store.PhaseDone {
				res.Done++
			} else {
				res.Lost++
			}
			if s.Status.Attempts > 1 {
				res.Retried++
			}
		}
		sms, _, err := st.List(p, store.KindStagedModel)
		if err != nil {
			panic(err)
		}
		for _, r := range sms {
			res.StagedBytes += r.(*store.StagedModel).Spec.Bytes
		}
	})
	res.CtrlRestarts = fleet.CtrlRestarts
	res.FailedGS = fleet.Injector.Failed
	// The wire-stat delta over the run reports the remoting_* counters
	// (bytes and frames on the wire) in the summary.
	remoting.PublishWireStats(reg, remoting.SnapshotWireStats().Sub(wireStart))
	res.MetricsTable = reg.String()
	return res
}
