package experiments

import (
	"fmt"
	"time"

	"dgsf/internal/chaos"
	"dgsf/internal/faults"
)

// Fault-tolerance experiment: the smaller-workload mix runs under injected
// control-plane failures — broken/stalled/corrupted guest connections,
// API server crashes detected by heartbeats, and a whole-GPU-server failure
// the multi-server backend must route around. Guests run in recoverable
// mode (idempotent session replay + redial); every scenario is deterministic
// per seed. Each scenario is a fixed chaos schedule, so the chaos oracles
// judge it, and a virtual-time limit converts any hang into a violation
// instead of a silent stall.

// FaultsResult is the outcome of one fault scenario.
type FaultsResult struct {
	Scenario string
	chaos.Result
}

// mix is one run of the SW mix, four of each workload, on n GPU servers.
func mix(n int, plan faults.Plan) chaos.Schedule {
	return chaos.Schedule{Workload: chaos.WorkloadMix, Servers: n, Invocations: 16, Plan: plan}
}

// faultsScenarios is the scenario ladder: a no-fault control, then one fault
// class at a time, then a combined storm.
var faultsScenarios = []struct {
	name     string
	schedule chaos.Schedule
}{
	{"baseline", mix(1, faults.Plan{})},
	{"conn-drops", mix(1, faults.Plan{DropRate: 0.35, DropAfter: 150 * time.Millisecond, CorruptRate: 0.15})},
	{"api-crash", mix(1, faults.Plan{Events: []faults.Event{
		{At: 4 * time.Second, Kind: faults.KillAPIServer, Server: 0},
		{At: 12 * time.Second, Kind: faults.KillAPIServer, Server: 2},
	}})},
	{"gpu-server-fail", mix(2, faults.Plan{Events: []faults.Event{
		// Server 0 is the least-loaded tie-break favourite, so failing it
		// mid-run kills active sessions: their leases are revoked and the
		// guests must fail over to the surviving server.
		{At: 20 * time.Second, Kind: faults.FailGPUServer, Server: 0},
	}})},
	{"pipeline-crash", chaos.Schedule{Workload: chaos.WorkloadPipeline, Servers: 2, Invocations: 6, Plan: faults.Plan{Events: []faults.Event{
		// PickFixed routes chains to server 0. 12.3s is inside the second
		// chain's handoff window on every CI seed: its producer has
		// exported the tensor on server 0 and finished, and its consumer is
		// still downloading. Failing the machine there strands a live
		// export — the consumer's import must fail promptly (not hang) and
		// the chain must complete via the host-bounce fallback on the
		// surviving server.
		{At: 12300 * time.Millisecond, Kind: faults.FailGPUServer, Server: 0},
	}}}},
	{"storm", mix(2, faults.Plan{
		DropRate:    0.25,
		DropAfter:   200 * time.Millisecond,
		StallRate:   0.10,
		StallFor:    90 * time.Second,
		CorruptRate: 0.10,
		Events: []faults.Event{
			{At: 5 * time.Second, Kind: faults.KillAPIServer, Server: 1},
			{At: 9 * time.Second, Kind: faults.FailGPUServer, Server: 1},
		},
	})},
}

// RunFaults executes every fault scenario with the given seed and returns
// one result per scenario, the no-fault baseline first (its E2E numbers are
// the reference the deltas of the faulty runs are read against). It panics
// on the first scenario the chaos oracles find a violation in.
func RunFaults(seed int64) []FaultsResult {
	out := make([]FaultsResult, len(faultsScenarios))
	for i, sc := range faultsScenarios {
		out[i] = runScenario(seed, sc.name, sc.schedule)
		if v := out[i].Violations; len(v) > 0 {
			panic(fmt.Sprintf("faults: seed %d scenario %s: %d violation(s), first: [%s] %s",
				seed, sc.name, len(v), v[0].Check, v[0].Detail))
		}
	}
	return out
}

// runScenario runs one scenario under the root process name it has always
// had: the name seeds the random stream its submissions draw from.
func runScenario(seed int64, name string, s chaos.Schedule) FaultsResult {
	root := "faults"
	if s.Workload == chaos.WorkloadPipeline {
		root = "faults-pipeline"
	}
	return FaultsResult{Scenario: name, Result: chaos.Run(seed, root, s)}
}
