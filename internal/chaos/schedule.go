// Package chaos is a randomized fault-schedule search engine for the DGSF
// cluster. Each trial draws a random — but seed-deterministic — fault
// schedule from the full injection vocabulary (process kills, whole-machine
// failures, connection drops/stalls/corruption, controller kills, asymmetric network partitions, slow-GPU brownouts,
// store conflict storms, mid-handoff fabric faults), runs a workload under
// it, and checks a set of cluster-wide invariants afterwards: session
// conservation, data-plane export refcount balance, store ResourceVersion
// monotonicity and watch completeness, guest journal-replay accounting, and
// wire/metrics counter conservation. A schedule that violates an invariant
// is delta-debugged down to a minimal reproducer and serialized to disk.
//
// Determinism is the load-bearing property: a schedule is a pure function
// of (seed, trial), a run is a pure function of (seed, schedule), so every
// reproducer file replays the exact failure it was shrunk from.
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"dgsf/internal/faults"
)

// Workload names the harness a schedule runs against.
const (
	// WorkloadFleet drives submissions through the 120-server control plane:
	// watched store, remote placement controller under a supervisor, reclaim
	// controller, per-machine agents.
	WorkloadFleet = "fleet"
	// WorkloadPipeline drives chained detect→identify pipelines over the
	// GPU-side data plane with recoverable guests.
	WorkloadPipeline = "pipeline"
)

// Schedule is one randomized trial: a workload, its scale, and the fault
// plan injected under it. Schedules serialize to JSON so a shrunken
// reproducer can be stored and replayed.
type Schedule struct {
	Workload    string `json:"workload"`
	Servers     int    `json:"servers"`
	Invocations int    `json:"invocations"` // submissions (fleet) or chains (pipeline)

	// CrossServer forces pipeline consumers onto a different GPU server
	// than their producer, so the intermediate tensor rides the fabric
	// (PeerCopy) instead of remapping in place — the only path where
	// mid-handoff fabric faults can bite.
	CrossServer bool `json:"cross_server,omitempty"`

	Plan faults.Plan `json:"plan"`

	// CanaryLeak seeds a known bug for the shrinker self-test: the pipeline
	// harness leaks one data-plane export per chain whose handoff suffered a
	// mid-flight fabric fault, tripping the export-leak oracle. Never set by
	// the generator.
	CanaryLeak bool `json:"canary_leak,omitempty"`
}

// TrialSeed derives the RNG seed for one trial from the campaign seed,
// FNV-1a style, so trials are independent streams but reproducible from
// (seed, trial) alone.
func TrialSeed(seed int64, trial int) int64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mix(uint64(seed))
	mix(uint64(trial) + 0x9e3779b97f4a7c15)
	return int64(h >> 1) // keep it non-negative for readability in repro files
}

// Generate draws the schedule for one trial. Trials alternate between the
// fleet and pipeline workloads so every campaign exercises both; everything
// else — which fault kinds appear, how many, when, and how hard — comes
// from the trial's own RNG.
//
// The generator keeps schedules survivable by construction: it never fails
// enough machines to strand the workload, partition windows stay inside
// what the retry budgets can outlast, conflict-storm rates stay below the
// level where CAS loops stop terminating, and stalls are longer than the
// pipeline guests' call deadline so they are detectable rather than silent.
// The oracle's job is to find recovery gaps, not to report unsurvivable
// schedules as failures.
func Generate(seed int64, trial int) Schedule {
	rng := rand.New(rand.NewSource(TrialSeed(seed, trial)))
	if trial%2 == 0 {
		return generatePipeline(rng)
	}
	return generateFleet(rng)
}

// generateFleet draws a fault plan for the 120-server control plane.
// Submissions span roughly the first 1.5s; faults land in [300ms, 3s] so
// they overlap the active window and the drain tail.
func generateFleet(rng *rand.Rand) Schedule {
	s := Schedule{
		Workload:    WorkloadFleet,
		Servers:     120,
		Invocations: 24 + rng.Intn(13), // 24..36
	}
	at := func(lo, hi time.Duration) time.Duration {
		return lo + time.Duration(rng.Int63n(int64(hi-lo)))
	}

	// Whole-machine failures: at most 3 of 120, distinct machines.
	failed := map[int]bool{}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		srv := rng.Intn(s.Servers)
		if failed[srv] {
			continue
		}
		failed[srv] = true
		s.Plan.Events = append(s.Plan.Events, faults.Event{
			At: at(300*time.Millisecond, 3*time.Second), Kind: faults.FailGPUServer, Server: srv,
		})
	}
	// API-server crashes (one hosted server per machine in this harness).
	for i, n := 0, rng.Intn(4); i < n; i++ {
		s.Plan.Events = append(s.Plan.Events, faults.Event{
			At: at(300*time.Millisecond, 3*time.Second), Kind: faults.KillAPIServer, Server: rng.Intn(s.Servers),
		})
	}
	// Placement-controller kills mid-reconcile.
	for i, n := 0, rng.Intn(3); i < n; i++ {
		s.Plan.ControllerKills = append(s.Plan.ControllerKills, faults.ControllerKill{
			At: at(400*time.Millisecond, 2*time.Second), AfterWrites: rng.Intn(4),
		})
	}
	// Asymmetric partitions: a few machines unreachable from guests while
	// their agents keep heartbeating store-ward. Windows stay well inside
	// the retry budget (MaxAttempts × backoff + placement resync), and a
	// retried session leaves the machine its last attempt failed on, so it
	// does not spend that budget on one cut machine.
	for i, n := 0, rng.Intn(3); i < n; i++ {
		var cut []int
		for j, m := 0, 1+rng.Intn(5); j < m; j++ {
			cut = append(cut, rng.Intn(s.Servers))
		}
		s.Plan.Partitions = append(s.Plan.Partitions, faults.Partition{
			At:      at(300*time.Millisecond, 2*time.Second),
			Dur:     at(100*time.Millisecond, 600*time.Millisecond),
			Servers: cut,
		})
	}
	// Brownouts: slow but alive machines.
	for i, n := 0, rng.Intn(3); i < n; i++ {
		s.Plan.Brownouts = append(s.Plan.Brownouts, faults.Brownout{
			At:     at(300*time.Millisecond, 2*time.Second),
			Dur:    at(200*time.Millisecond, 2*time.Second),
			Server: rng.Intn(s.Servers),
			Factor: 2 + 6*rng.Float64(),
		})
	}
	// Conflict storms: rate capped at 0.5 — CAS retry loops run in zero
	// virtual time against the in-process store, so they must terminate
	// probabilistically within the window, not by waiting it out.
	for i, n := 0, rng.Intn(3); i < n; i++ {
		s.Plan.ConflictStorms = append(s.Plan.ConflictStorms, faults.ConflictStorm{
			At:   at(300*time.Millisecond, 2*time.Second),
			Dur:  at(100*time.Millisecond, 1*time.Second),
			Rate: 0.1 + 0.4*rng.Float64(),
		})
	}
	// Per-connection faults. Fleet guests run without a call deadline, so a
	// stall only stretches an attempt; keep them rare.
	if rng.Intn(2) == 1 {
		s.Plan.DropRate = 0.05 + 0.15*rng.Float64()
		s.Plan.DropAfter = at(20*time.Millisecond, 250*time.Millisecond)
	}
	if rng.Intn(4) == 0 {
		s.Plan.StallRate = 0.02 + 0.03*rng.Float64()
		s.Plan.StallFor = 90 * time.Second
	}
	if rng.Intn(2) == 1 {
		s.Plan.CorruptRate = 0.05 + 0.10*rng.Float64()
	}
	return s
}

// generatePipeline draws a fault plan for the data-plane pipeline harness:
// 3 machines, chains placed by PickFixed, recoverable guests. Chains run
// sequentially at roughly 4–6s each, so scheduled faults land in [1s, 20s].
func generatePipeline(rng *rand.Rand) Schedule {
	s := Schedule{
		Workload:    WorkloadPipeline,
		Servers:     3,
		Invocations: 4 + rng.Intn(3), // 4..6 chains
	}
	at := func(lo, hi time.Duration) time.Duration {
		return lo + time.Duration(rng.Int63n(int64(hi-lo)))
	}

	// At most one of three machines fails — chains must retain capacity.
	if rng.Intn(2) == 1 {
		s.Plan.Events = append(s.Plan.Events, faults.Event{
			At: at(1*time.Second, 20*time.Second), Kind: faults.FailGPUServer, Server: rng.Intn(s.Servers),
		})
	}
	// API-server crashes (2 hosted per machine → indices 0..5).
	for i, n := 0, rng.Intn(3); i < n; i++ {
		s.Plan.Events = append(s.Plan.Events, faults.Event{
			At: at(1*time.Second, 20*time.Second), Kind: faults.KillAPIServer, Server: rng.Intn(2 * s.Servers),
		})
	}
	// One partition window at a time, short enough that guest redial
	// (MaxAttempts 10, backoff cap 500ms) outlasts it.
	for i, n := 0, rng.Intn(2); i < n; i++ {
		s.Plan.Partitions = append(s.Plan.Partitions, faults.Partition{
			At:      at(1*time.Second, 15*time.Second),
			Dur:     at(200*time.Millisecond, 1200*time.Millisecond),
			Servers: []int{rng.Intn(s.Servers)},
		})
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		s.Plan.Brownouts = append(s.Plan.Brownouts, faults.Brownout{
			At:     at(1*time.Second, 15*time.Second),
			Dur:    at(500*time.Millisecond, 4*time.Second),
			Server: rng.Intn(s.Servers),
			Factor: 2 + 6*rng.Float64(),
		})
	}
	// Half the trials force the consumer onto a different server so the
	// tensor rides the fabric; only those can carry mid-handoff fabric
	// faults (the same-server import never touches it).
	s.CrossServer = rng.Intn(2) == 1
	if s.CrossServer && rng.Intn(2) == 1 {
		s.Plan.FabricFaultRate = 0.2 + 0.4*rng.Float64()
	}
	// Per-connection faults. A stall lands on a connection's first call and
	// exceeds the 60s call deadline, so the guest detects it instead of
	// waiting it out.
	if rng.Intn(2) == 1 {
		s.Plan.DropRate = 0.05 + 0.20*rng.Float64()
		s.Plan.DropAfter = at(50*time.Millisecond, 300*time.Millisecond)
	}
	if rng.Intn(3) == 0 {
		s.Plan.StallRate = 0.03 + 0.07*rng.Float64()
		s.Plan.StallFor = 90 * time.Second
	}
	if rng.Intn(2) == 1 {
		s.Plan.CorruptRate = 0.05 + 0.10*rng.Float64()
	}
	return s
}

// String renders a short human label for logs and summaries.
func (s Schedule) String() string {
	return fmt.Sprintf("%s servers=%d invs=%d faults=%d", s.Workload, s.Servers, s.Invocations, len(atomize(s.Plan)))
}
