package chaos

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dgsf/internal/faults"
	"dgsf/internal/remoting/wire/wiretest"
	"dgsf/internal/sim"
	"dgsf/internal/store"
)

func TestTrialSeedDeterministic(t *testing.T) {
	if TrialSeed(1, 0) != TrialSeed(1, 0) {
		t.Fatal("TrialSeed is not a pure function")
	}
	if TrialSeed(1, 0) < 0 {
		t.Fatal("TrialSeed must be non-negative")
	}
	seen := map[int64]bool{}
	for trial := 0; trial < 64; trial++ {
		s := TrialSeed(7, trial)
		if seen[s] {
			t.Fatalf("TrialSeed collision at trial %d", trial)
		}
		seen[s] = true
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		a := Generate(3, trial)
		b := Generate(3, trial)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: Generate is not deterministic:\n%+v\n%+v", trial, a, b)
		}
	}
	// Trials must alternate workloads so campaigns exercise both harnesses.
	if Generate(3, 0).Workload != WorkloadPipeline || Generate(3, 1).Workload != WorkloadFleet {
		t.Fatal("trial parity does not alternate pipeline/fleet")
	}
}

// TestRunScheduleDeterministic replays the same (seed, schedule) pair twice
// and demands bit-identical results — the property every reproducer file
// depends on.
func TestRunScheduleDeterministic(t *testing.T) {
	for _, trial := range []int{0, 1} {
		s := Generate(1, trial)
		a := RunSchedule(1, s)
		b := RunSchedule(1, s)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: RunSchedule is not deterministic:\n%+v\n%+v", s, a, b)
		}
	}
}

// TestCampaignCleanSmoke runs the first two trials of seed 1 — one pipeline,
// one fleet — and expects the oracle to stay quiet, the same bar the full
// CI campaign holds over 50 trials per seed.
func TestCampaignCleanSmoke(t *testing.T) {
	r := RunCampaign(1, 2, CampaignConfig{})
	if r.Violations != 0 || r.Hangs != 0 {
		t.Fatalf("clean campaign found violations: %s\ntrials: %+v", r.Summary(), r.Trials)
	}
	if r.Fleet != 1 || r.Pipeline != 1 {
		t.Fatalf("expected one trial per workload, got fleet=%d pipeline=%d", r.Fleet, r.Pipeline)
	}
	if r.Invocations == 0 {
		t.Fatal("campaign completed zero invocations")
	}
}

// TestRetriedSessionLeavesPartitionedMachine replays two shrunk fleet
// reproducers whose session spent all ten attempts on gpu-001 while a
// partition cut it off from its guests: each attempt failed at once, so the
// machine's load fell straight back to zero and placement chose it again. A
// retried session must go elsewhere while another machine fits.
func TestRetriedSessionLeavesPartitionedMachine(t *testing.T) {
	cases := []struct {
		name string
		seed int64
		s    Schedule
	}{
		{"seed15-trial27", 15, Schedule{Workload: WorkloadFleet, Servers: 120, Invocations: 34, Plan: faults.Plan{
			StallRate:   0.03439350688889698,
			StallFor:    90 * time.Second,
			CorruptRate: 0.13102666500636084,
			Partitions: []faults.Partition{
				{At: 1591982982, Dur: 339433972, Servers: []int{44, 109, 77, 87, 6}},
				{At: 1908603999, Dur: 548730197, Servers: []int{1}},
			},
		}}},
		{"seed2-trial13", 2, Schedule{Workload: WorkloadFleet, Servers: 120, Invocations: 28, Plan: faults.Plan{
			DropRate:   0.13343813357383016,
			DropAfter:  109082431,
			Partitions: []faults.Partition{{At: 1400459279, Dur: 599075630, Servers: []int{110, 1, 72, 21}}},
		}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if r := RunSchedule(c.seed, c.s); len(r.Violations) != 0 {
				t.Fatalf("%d violation(s), first: %+v", len(r.Violations), r.Violations[0])
			}
		})
	}
}

// canarySchedule builds the shrinker self-test input: a pipeline schedule
// with the seeded export leak armed, a fabric fault rate high enough to
// guarantee fallbacks (which is what triggers the leak), and a pile of
// irrelevant noise faults for ddmin to strip away.
func canarySchedule() Schedule {
	s := Schedule{
		Workload:    WorkloadPipeline,
		Servers:     3,
		Invocations: 4,
		CrossServer: true, // tensor must ride the fabric for the fault to bite
		CanaryLeak:  true,
	}
	s.Plan.FabricFaultRate = 0.9
	s.Plan.Events = append(s.Plan.Events, faults.Event{
		At: 8 * time.Second, Kind: faults.KillAPIServer, Server: 4,
	})
	s.Plan.Brownouts = append(s.Plan.Brownouts,
		faults.Brownout{At: 2 * time.Second, Dur: time.Second, Server: 1, Factor: 3},
		faults.Brownout{At: 6 * time.Second, Dur: time.Second, Server: 2, Factor: 4},
	)
	s.Plan.CorruptRate = 0.05
	s.Plan.DropRate, s.Plan.DropAfter = 0.05, 200*time.Millisecond
	return s
}

// TestShrinkerCanary is the self-test demanded by the CI chaos job: seed a
// known bug (an export leaked on every chain fallback), confirm the oracle
// catches it, and confirm the shrinker strips the six-element noise plan
// down to at most three elements while still reproducing the violation.
func TestShrinkerCanary(t *testing.T) {
	s := canarySchedule()
	r := RunSchedule(11, s)
	if len(r.Violations) == 0 {
		t.Fatal("canary schedule did not trip the oracle")
	}
	found := false
	for _, v := range r.Violations {
		if v.Check == "export-leak" {
			found = true
		}
	}
	if !found {
		t.Fatalf("canary violations missing export-leak: %+v", r.Violations)
	}

	fails := func(c Schedule) bool { return len(RunSchedule(11, c).Violations) > 0 }
	min, stats := Shrink(s, fails, 24)
	if stats.From != 6 {
		t.Fatalf("canary plan should atomize to 6 elements, got %d", stats.From)
	}
	if stats.Elements > 3 {
		t.Fatalf("shrinker left %d elements (want <= 3) after %d runs: %+v",
			stats.Elements, stats.Runs, min.Plan)
	}
	if !fails(min) {
		t.Fatal("minimized schedule no longer reproduces the violation")
	}
	if !min.CanaryLeak {
		t.Fatal("shrinking must not strip schedule fields outside the plan")
	}
}

func TestShrinkEmptyPlanFastPath(t *testing.T) {
	s := Generate(1, 1) // fleet schedule with a handful of elements
	if len(atomize(s.Plan)) == 0 {
		t.Skip("generated plan has no elements")
	}
	// A predicate that fails regardless of the plan (a pure workload bug)
	// must shrink to the empty plan in a single run.
	min, stats := Shrink(s, func(Schedule) bool { return true }, 24)
	if stats.Elements != 0 {
		t.Fatalf("always-failing predicate should shrink to 0 elements, got %d", stats.Elements)
	}
	if stats.Runs != 1 {
		t.Fatalf("empty-plan fast path should cost exactly 1 run, got %d", stats.Runs)
	}
	if got := len(atomize(min.Plan)); got != 0 {
		t.Fatalf("minimal plan still has %d elements", got)
	}
}

func TestAtomizeRebuildRoundTrip(t *testing.T) {
	s := Generate(9, 3)
	els := atomize(s.Plan)
	if !reflect.DeepEqual(rebuild(s.Plan, els), s.Plan) {
		t.Fatal("rebuild(atomize(p)) != p")
	}
	if !reflect.DeepEqual(rebuild(s.Plan, nil), faults.Plan{}) {
		t.Fatal("rebuild with no kept elements should be the zero plan")
	}
}

func TestReproRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := Repro{
		Seed:     3,
		Trial:    14,
		Schedule: canarySchedule(),
		Violations: []Violation{
			{Check: "export-leak", Detail: "1 exports still live at quiesce"},
		},
		Shrink: ShrinkStats{Runs: 9, From: 6, Elements: 1},
	}
	path, err := WriteRepro(dir, r)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "chaos-repro-seed3-trial14.json"); path != want {
		t.Fatalf("repro path %q, want %q", path, want)
	}
	got, err := ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("repro round trip mismatch:\n%+v\n%+v", got, r)
	}
}

// TestOracleCatchesWriteThroughSharedObject: a watcher that edits the object
// on an event instead of a DeepCopy of it — the store's own, shared with the
// oracle's stream — is reported with the object's kind, name and RV; the
// same consumer copying first is not.
func TestOracleCatchesWriteThroughSharedObject(t *testing.T) {
	for _, copyFirst := range []bool{false, true} {
		var res Result
		e := sim.NewEngine(1)
		st := store.New(e, nil)
		e.Run("test", func(p *sim.Proc) {
			obs, err := observe(p, st, store.KindSession, &res)
			if err != nil {
				t.Fatal(err)
			}
			w, _ := st.Watch(p, store.KindSession, 0)
			p.SpawnDaemon("consumer", func(p *sim.Proc) {
				for {
					ev, ok := w.Events.Recv(p)
					if !ok {
						return
					}
					sess := ev.Object
					if copyFirst {
						sess = sess.DeepCopy()
					}
					sess.(*store.Session).Status.Reason = "scribbled"
				}
			})
			stored, _ := st.Create(p, &store.Session{ObjectMeta: store.ObjectMeta{Name: "s1"}})
			up := stored.DeepCopy().(*store.Session)
			up.Status.Phase = store.PhasePlaced
			if _, err := st.UpdateStatus(p, up); err != nil {
				t.Fatal(err)
			}
			p.Sleep(time.Millisecond)
			sessions, _, _ := st.List(p, store.KindSession)
			obs.mark()
			obs.settle(p, sessions)
		})
		var frozen []string
		for _, v := range res.Violations {
			if v.Check != "store-object-frozen" {
				t.Errorf("copyFirst=%v: unexpected violation %+v", copyFirst, v)
			}
			frozen = append(frozen, v.Detail)
		}
		if copyFirst {
			if len(frozen) != 0 {
				t.Errorf("a consumer that copies first was reported: %v", frozen)
			}
			continue
		}
		if len(frozen) != 2 || !strings.Contains(frozen[0], `Session "s1" handed out ADDED at RV 1`) ||
			!strings.Contains(frozen[1], `Session "s1" handed out MODIFIED at RV 2`) {
			t.Errorf("write-through not reported per event: %v", frozen)
		}
	}
}

// TestSchedulesUnderPoolChecks runs fifty schedules of seed 1 twice: as they
// always run, and with the wire payload pool in checking mode — every payload
// returned to it poisoned, none reused. Server crashes, severed and corrupted
// connections and recoveries are what these schedules are made of, so a fault
// path that still reads a message after its consumer returned it, or returns
// one twice, shows here as a different result or a failed check.
func TestSchedulesUnderPoolChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("a hundred schedule runs")
	}
	const seed, n = 1, 50
	plain := make([]Result, n)
	for trial := range plain {
		plain[trial] = RunSchedule(seed, Generate(seed, trial))
	}
	wiretest.CheckPool(t)
	for trial, want := range plain {
		s := Generate(seed, trial)
		got := RunSchedule(seed, s)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trial %d (%s) under pool checks:\n%+v\nwithout:\n%+v", trial, s, got, want)
		}
		if len(got.Violations) != 0 {
			t.Errorf("trial %d (%s): %d violation(s), first: %+v", trial, s, len(got.Violations), got.Violations[0])
		}
	}
}
