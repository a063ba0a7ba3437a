// Package experiments regenerates every table and figure of the paper's
// evaluation (§VIII) on the simulated substrate. Each exported function is
// one experiment; cmd/dgsf-bench prints them in the paper's layout.
package experiments

import (
	"time"

	"dgsf/internal/apiserver"
	"dgsf/internal/deploy"
	"dgsf/internal/faas"
	"dgsf/internal/guest"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
	"dgsf/internal/workloads"
)

// Mode selects the execution configuration of a single-workload run.
type Mode string

// Single-workload execution modes (the rows of Table II).
const (
	ModeNative    Mode = "native"     // local GPU, no remoting
	ModeDGSF      Mode = "dgsf"       // remoted, all optimizations (OpenFaaS env)
	ModeLambda    Mode = "lambda"     // remoted, all optimizations (Lambda env)
	ModeDGSFNoOpt Mode = "dgsf-noopt" // remoted, no optimizations
	ModeCPU       Mode = "cpu"        // CPU-only baseline
)

// SingleResult is the outcome of one single-workload run.
type SingleResult struct {
	Mode      Mode
	Phases    workloads.Phases
	Total     time.Duration
	Stats     guest.Stats   // zero for native/cpu
	Migration time.Duration // non-zero if a forced migration was measured
}

// RunSingle executes one workload in one mode on a fresh simulated testbed
// and returns its phase breakdown. forceMigration, valid for DGSF modes,
// injects one API-server migration mid-processing and records its duration.
func RunSingle(seed int64, spec *workloads.Spec, mode Mode, forceMigration bool) SingleResult {
	res := SingleResult{Mode: mode}
	if mode == ModeCPU {
		// Six-vCPU container, no GPU: the measured CPU runtime (§VIII-B).
		res.Total = spec.CPUOnlyRuntime
		return res
	}
	env := faas.OpenFaaSEnv()
	if mode == ModeLambda {
		env = faas.LambdaEnv()
	}
	res.run(seed, spec, env, mode, forceMigration)
	return res
}

// run executes the workload on a fresh engine: the download every mode
// shares, then the native arm — CUDA initialization on the critical path at
// first API use — or, by default, one session against a lone API server,
// pre-warmed unless mode is ModeDGSFNoOpt.
func (res *SingleResult) run(seed int64, spec *workloads.Spec, env faas.Env, mode Mode, forceMigration bool) {
	e := sim.NewEngine(seed)
	e.Run("exp", func(p *sim.Proc) {
		t0 := p.Now()
		p.Sleep(env.Download.TransferTime(p, spec.DownloadBytes))
		res.Phases.Download = p.Now() - t0

		body := func(api gen.API) error { return spec.RunBody(p, api, &res.Phases) }
		if mode == ModeNative {
			res.Phases.Init = deploy.Native(p, spec.Name, spec.MemLimit, body)
			return
		}
		nDevs, opt := 1, env.GuestOpt
		if forceMigration {
			nDevs = 2
		}
		if mode == ModeDGSFNoOpt {
			opt = guest.OptNone
		}
		srv := deploy.APIServer(p, nDevs, mode != ModeDGSFNoOpt)
		res.Phases.Init, res.Stats = deploy.Session(p, srv, env.Net, opt, spec.Name, spec.MemLimit, func(api gen.API) error {
			if forceMigration {
				// Trigger the migration mid-processing: the control message
				// lands in the server's FIFO behind roughly half the
				// workload's calls.
				p.Spawn("migrator", func(p *sim.Proc) {
					p.Sleep(2 * time.Second) // the processing phase is underway
					res.Migration = migrate(p, srv, 1)
				})
			}
			return body(api)
		})
	})
	res.Total = res.Phases.Total()
}

// migrate asks srv to move its session to GPU dev and returns how long the
// move took.
func migrate(p *sim.Proc, srv *apiserver.Server, dev int) time.Duration {
	done := sim.NewQueue[time.Duration](p.Engine())
	srv.Inbox.Send(remoting.Request{Ctrl: apiserver.MigrateRequest{TargetDev: dev, Done: done}})
	d, _ := done.Recv(p)
	return d
}

// Table2Row is one column of Table II (the table is printed transposed).
type Table2Row struct {
	Workload  string
	PeakMemMB int64
	Native    time.Duration
	DGSF      time.Duration
	Lambda    time.Duration
	CPU       time.Duration
	Migration time.Duration
}

// Table2 reproduces Table II: per-workload peak memory and average runtime
// under native, DGSF, DGSF-on-Lambda and CPU execution, plus approximate
// migration time. Times average `runs` seeded executions, as the paper
// averages three runs.
func Table2(seed int64, runs int) []Table2Row {
	if runs <= 0 {
		runs = 3
	}
	out := make([]Table2Row, 0, 6)
	for _, spec := range workloads.All() {
		row := Table2Row{Workload: spec.Name, PeakMemMB: spec.PeakMem >> 20}
		var nat, dg, lam, mig time.Duration
		for r := 0; r < runs; r++ {
			s := seed + int64(r)
			nat += RunSingle(s, spec, ModeNative, false).Total
			dg += RunSingle(s, spec, ModeDGSF, false).Total
			lam += RunSingle(s, spec, ModeLambda, false).Total
			mig += RunSingle(s, spec, ModeDGSF, true).Migration
		}
		row.Native = nat / time.Duration(runs)
		row.DGSF = dg / time.Duration(runs)
		row.Lambda = lam / time.Duration(runs)
		row.Migration = mig / time.Duration(runs)
		row.CPU = spec.CPUOnlyRuntime
		out = append(out, row)
	}
	return out
}

// Fig3Row is one bar group of Figure 3: the phase breakdown of a workload
// under native, unoptimized DGSF and optimized DGSF execution.
type Fig3Row struct {
	Workload string
	Mode     Mode
	Phases   workloads.Phases
}

// Figure3 reproduces Figure 3: per-workload phase breakdowns.
func Figure3(seed int64) []Fig3Row {
	var out []Fig3Row
	for _, spec := range workloads.All() {
		for _, mode := range []Mode{ModeNative, ModeDGSFNoOpt, ModeDGSF} {
			r := RunSingle(seed, spec, mode, false)
			out = append(out, Fig3Row{Workload: spec.Name, Mode: mode, Phases: r.Phases})
		}
	}
	return out
}

// Tier is one cumulative optimization step of the ablation study.
type Tier string

// Ablation tiers, cumulative left to right (Fig. 4, extended with the
// pipelined submission lane).
const (
	TierNative     Tier = "native"
	TierNoOpt      Tier = "dgsf-noopt"
	TierHandlePool Tier = "+handle-pool"
	TierDescPool   Tier = "+desc-pool"
	TierBatching   Tier = "+batching"
	TierAsync      Tier = "+async"
)

// Tiers lists the ablation tiers in order.
func Tiers() []Tier {
	return []Tier{TierNative, TierNoOpt, TierHandlePool, TierDescPool, TierBatching, TierAsync}
}

// Fig4Row is one workload's ablation: processing time (downloads excluded,
// per §VIII-C) at each cumulative optimization tier.
type Fig4Row struct {
	Workload string
	Times    map[Tier]time.Duration
	Stats    map[Tier]guest.Stats
}

// Figure4 reproduces Figure 4: the ablation of DGSF's optimizations.
func Figure4(seed int64) []Fig4Row {
	var out []Fig4Row
	for _, spec := range workloads.All() {
		row := Fig4Row{
			Workload: spec.Name,
			Times:    make(map[Tier]time.Duration),
			Stats:    make(map[Tier]guest.Stats),
		}
		for _, tier := range Tiers() {
			r := runTier(seed, spec, tier)
			row.Times[tier] = r.Total - r.Phases.Download
			row.Stats[tier] = r.Stats
		}
		out = append(out, row)
	}
	return out
}

// runTier executes one ablation cell.
func runTier(seed int64, spec *workloads.Spec, tier Tier) SingleResult {
	switch tier {
	case TierNative:
		return RunSingle(seed, spec, ModeNative, false)
	case TierNoOpt:
		return RunSingle(seed, spec, ModeDGSFNoOpt, false)
	}
	// Custom combinations: pool on the server; guest tier per step.
	var res SingleResult
	res.Mode = Mode(tier)
	env := faas.OpenFaaSEnv()
	switch tier {
	case TierHandlePool:
		env.GuestOpt = guest.OptNone
	case TierDescPool:
		env.GuestOpt = guest.OptLocalDescriptors
	case TierBatching:
		env.GuestOpt = guest.OptAll
	case TierAsync:
		env.GuestOpt = guest.OptAll | guest.OptAsync
	}
	res.run(seed, spec, env, res.Mode, false)
	return res
}
