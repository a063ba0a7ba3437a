package experiments

import (
	"errors"
	"fmt"
	"time"

	"dgsf/internal/dataplane"
	"dgsf/internal/deploy"
	"dgsf/internal/faas"
	"dgsf/internal/faults"
	"dgsf/internal/gpuserver"
	"dgsf/internal/sim"
	"dgsf/internal/workloads"
)

// Fault-tolerance experiment: the smaller-workload mix runs under injected
// control-plane failures — broken/stalled/corrupted guest connections,
// API server crashes detected by heartbeats, and a whole-GPU-server failure
// the multi-server backend must route around. Guests run in recoverable
// mode (idempotent session replay + redial); every scenario is deterministic
// per seed, and a virtual-time limit converts any hang into a hard failure
// instead of a silent stall.

// FaultsResult is the outcome of one fault scenario.
type FaultsResult struct {
	Scenario    string
	Invocations int
	Failed      int // invocations that ended with an error
	Recovered   int // invocations that recovered at least once
	Shed        int // invocations refused for (degraded) capacity reasons

	// Injection counters, from the injector.
	Killed    int // API server crashes
	FailedGS  int // whole-GPU-server failures
	Dropped   int // connections severed
	Corrupted int // connections with an injected corrupt frame

	ProviderE2E time.Duration
	E2ESum      time.Duration

	// Pipeline-scenario extras (zero elsewhere): chains that completed via
	// the GPU-side handoff and chains that fell back to the host bounce
	// after the injected failure.
	GPUChains int
	Fallbacks int
}

// faultScenario pairs a name with an injection plan builder; the plan may
// depend on the number of hosted API servers.
type faultScenario struct {
	name     string
	servers  int // GPU servers in the deployment
	plan     faults.Plan
	pipeline bool // run chained pipelines over the data plane instead of the mix
}

// faultsScenarios returns the scenario ladder: a no-fault control, then one
// fault class at a time, then a combined storm.
func faultsScenarios() []faultScenario {
	return []faultScenario{
		{name: "baseline", servers: 1},
		{
			name:    "conn-drops",
			servers: 1,
			plan:    faults.Plan{DropRate: 0.35, DropAfter: 150 * time.Millisecond, CorruptRate: 0.15},
		},
		{
			name:    "api-crash",
			servers: 1,
			plan: faults.Plan{Events: []faults.Event{
				{At: 4 * time.Second, Kind: faults.KillAPIServer, Server: 0},
				{At: 12 * time.Second, Kind: faults.KillAPIServer, Server: 2},
			}},
		},
		{
			name:    "gpu-server-fail",
			servers: 2,
			plan: faults.Plan{Events: []faults.Event{
				// Server 0 is the least-loaded tie-break favourite, so failing
				// it mid-run kills active sessions: their leases are revoked
				// and the guests must fail over to the surviving server.
				{At: 20 * time.Second, Kind: faults.FailGPUServer, Server: 0},
			}},
		},
		{
			name:     "pipeline-crash",
			servers:  2,
			pipeline: true,
			plan: faults.Plan{Events: []faults.Event{
				// PickFixed routes chains to server 0. 12.3s is inside the
				// second chain's handoff window on every CI seed: its
				// producer has exported the tensor on server 0 and finished,
				// and its consumer is still downloading. Failing the machine
				// there strands a live export — the consumer's import must
				// fail promptly (not hang) and the chain must complete via
				// the host-bounce fallback on the surviving server.
				{At: 12300 * time.Millisecond, Kind: faults.FailGPUServer, Server: 0},
			}},
		},
		{
			name:    "storm",
			servers: 2,
			plan: faults.Plan{
				DropRate:    0.25,
				DropAfter:   200 * time.Millisecond,
				StallRate:   0.10,
				StallFor:    90 * time.Second,
				CorruptRate: 0.10,
				Events: []faults.Event{
					{At: 5 * time.Second, Kind: faults.KillAPIServer, Server: 1},
					{At: 9 * time.Second, Kind: faults.FailGPUServer, Server: 1},
				},
			},
		},
	}
}

// RunFaults executes every fault scenario with the given seed and returns
// one result per scenario, the no-fault baseline first (its E2E numbers are
// the reference the deltas of the faulty runs are read against).
func RunFaults(seed int64) []FaultsResult {
	var out []FaultsResult
	for _, sc := range faultsScenarios() {
		out = append(out, runFaultScenario(seed, sc))
	}
	return out
}

func runFaultScenario(seed int64, sc faultScenario) FaultsResult {
	if sc.pipeline {
		return runPipelineFaultScenario(seed, sc)
	}
	res := FaultsResult{Scenario: sc.name}
	e := sim.NewEngine(seed)
	// Zero hangs under injection is an acceptance criterion, not a hope: a
	// run that stalls past the limit panics instead of wedging the suite.
	e.SetTimeLimit(2 * time.Hour)
	e.Run("faults", func(p *sim.Proc) {
		servers := deploy.GPUServers(p, sc.servers, func(_ int, cfg *gpuserver.Config) {
			cfg.GPUs = 2
			cfg.ServersPerGPU = 2
			deploy.DetectFailures(cfg)
		})

		inj := faults.NewInjector(e, sc.plan, servers)
		inj.Arm(p)

		backend := faas.NewMultiBackend(e, servers, faas.PickLeastLoaded, faas.OpenFaaSEnv())
		backend.DialHook = inj.WrapConn
		backend.Recovery = deploy.Recovery(6)

		backend.SubmitSequence(p, deploy.Stream(p, workloads.Smaller(), 4), faas.ExponentialArrivals(p, 2*time.Second))
		backend.Drain(p)

		for _, inv := range backend.Invocations() {
			res.Invocations++
			if inv.Err != nil {
				res.Failed++
				if isCapacityErr(inv.Err) {
					res.Shed++
				}
			}
			if inv.Recoveries > 0 {
				res.Recovered++
			}
		}
		res.ProviderE2E = backend.ProviderEndToEnd()
		res.E2ESum = backend.E2ESum()
		res.Killed = inj.Killed
		res.FailedGS = inj.Failed
		res.Dropped = inj.Dropped
		res.Corrupted = inj.Corrupted
	})
	return res
}

// runPipelineFaultScenario drives chained detect→identify pipelines over the
// GPU-side data plane while a GPU server fails mid-chain. The acceptance bar
// is zero failed chains and zero hangs: a chain whose handoff dies with the
// machine falls back to the bounce path (or recovers onto the survivor) and
// still completes.
func runPipelineFaultScenario(seed int64, sc faultScenario) FaultsResult {
	res := FaultsResult{Scenario: sc.name}
	e := sim.NewEngine(seed)
	e.SetTimeLimit(2 * time.Hour)
	fab := dataplane.NewFabric(dataplane.DefaultConfig(), nil)
	e.Run("faults-pipeline", func(p *sim.Proc) {
		servers := deploy.GPUServers(p, sc.servers, func(i int, cfg *gpuserver.Config) {
			cfg.GPUs = 1
			cfg.ServersPerGPU = 2
			deploy.DetectFailures(cfg)
			cfg.Plane = fab.NewPlane(fmt.Sprintf("gpu-%d", i))
		})

		inj := faults.NewInjector(e, sc.plan, servers)
		inj.Arm(p)

		backend := faas.NewMultiBackend(e, servers, faas.PickFixed, faas.OpenFaaSEnv())
		backend.DialHook = inj.WrapConn
		backend.Recovery = deploy.Recovery(6)

		h := &dataplane.Handoff{}
		spec := faas.ChainSpec{
			Producer: workloads.DetectStage(h),
			Consumer: workloads.IdentifyStage(h),
			Handoff:  h,
			Fabric:   fab,
		}
		const chains = 6
		start := p.Now()
		for i := 0; i < chains; i++ {
			r := backend.InvokeChain(p, spec)
			res.Invocations++
			if r.Err != nil {
				res.Failed++
			} else if r.FellBack {
				res.Fallbacks++
			} else {
				res.GPUChains++
			}
			recov := 0
			for _, inv := range []*faas.Invocation{r.Producer, r.Consumer} {
				if inv != nil {
					recov += inv.Recoveries
				}
			}
			if recov > 0 {
				res.Recovered++
			}
			res.E2ESum += r.E2E()
		}
		res.ProviderE2E = p.Now() - start
		res.Killed = inj.Killed
		res.FailedGS = inj.Failed
		res.Dropped = inj.Dropped
		res.Corrupted = inj.Corrupted
	})
	return res
}

func isCapacityErr(err error) bool {
	return errors.Is(err, faas.ErrNoCapacity)
}
