package chaos

import "fmt"

// TrialReport is the outcome of one trial in a campaign.
type TrialReport struct {
	Trial    int
	Schedule Schedule
	Result   Result
	Repro    string // path of the shrunken reproducer, when the trial failed
}

// CampaignResult aggregates one campaign: n schedules drawn from one seed.
type CampaignResult struct {
	Seed       int64
	Schedules  int
	Violations int // trials with at least one invariant violation
	Hangs      int // trials that deadlocked or hit the virtual-time limit
	Fleet      int // trials run against the fleet workload
	Pipeline   int // trials run against the pipeline workload

	Invocations int // total submissions/chains across all trials
	Recoveries  int // total guest recovery episodes observed
	Fallbacks   int // total chain fallbacks observed

	Trials []TrialReport // failed trials only, with their reproducers
}

// CampaignConfig tunes a campaign.
type CampaignConfig struct {
	// ReproDir receives shrunken reproducer files for failing trials; empty
	// disables both shrinking and serialization (violations still count).
	ReproDir string
	// Log, when set, receives one line per failing trial.
	Log func(format string, args ...any)
}

// RunCampaign draws and executes n schedules from seed. Every trial is
// independently reproducible: schedule i is Generate(seed, i) and its run
// is RunSchedule(seed, schedule). Failing trials are delta-debugged to a
// minimal reproducer and serialized under cfg.ReproDir.
func RunCampaign(seed int64, n int, cfg CampaignConfig) CampaignResult {
	res := CampaignResult{Seed: seed, Schedules: n}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for trial := 0; trial < n; trial++ {
		s := Generate(seed, trial)
		if s.Workload == WorkloadFleet {
			res.Fleet++
		} else {
			res.Pipeline++
		}
		r := RunSchedule(seed, s)
		res.Invocations += r.Invocations
		res.Recoveries += r.Recoveries
		res.Fallbacks += r.Fallbacks
		if len(r.Violations) == 0 {
			continue
		}
		res.Violations++
		if r.Hang {
			res.Hangs++
		}
		report := TrialReport{Trial: trial, Schedule: s, Result: r}
		logf("chaos: seed=%d trial=%d (%s): %d violation(s), first: [%s] %s",
			seed, trial, s, len(r.Violations), r.Violations[0].Check, r.Violations[0].Detail)
		if cfg.ReproDir != "" {
			min, stats := Shrink(s, func(c Schedule) bool {
				return len(RunSchedule(seed, c).Violations) > 0
			}, 0) // 0: Shrink's default budget of runs
			repro := Repro{
				Seed:       seed,
				Trial:      trial,
				Schedule:   min,
				Violations: RunSchedule(seed, min).Violations,
				Shrink:     stats,
			}
			path, err := WriteRepro(cfg.ReproDir, repro)
			if err != nil {
				logf("chaos: writing reproducer: %v", err)
			} else {
				report.Repro = path
				logf("chaos: shrunk trial %d from %d to %d element(s) in %d runs: %s",
					trial, stats.From, stats.Elements, stats.Runs, path)
			}
		}
		res.Trials = append(res.Trials, report)
	}
	return res
}

// Summary renders the one-line greppable campaign verdict.
func (r CampaignResult) Summary() string {
	return fmt.Sprintf("chaos_summary seed=%d schedules=%d violations=%d hangs=%d fleet=%d pipeline=%d invocations=%d recoveries=%d fallbacks=%d",
		r.Seed, r.Schedules, r.Violations, r.Hangs, r.Fleet, r.Pipeline, r.Invocations, r.Recoveries, r.Fallbacks)
}
