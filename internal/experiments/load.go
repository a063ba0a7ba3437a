package experiments

import (
	"time"

	"dgsf/internal/deploy"
	"dgsf/internal/faas"
	"dgsf/internal/gpu"
	"dgsf/internal/gpuserver"
	"dgsf/internal/sim"
	"dgsf/internal/workloads"
)

// Variant is a GPU-server sharing/placement configuration of §VIII-D.
type Variant struct {
	Name          string
	ServersPerGPU int
	Policy        gpuserver.Policy
	Migration     bool
}

// Variants returns the three configurations Tables III and IV compare.
func Variants() []Variant {
	return []Variant{
		{Name: "no-sharing", ServersPerGPU: 1, Policy: gpuserver.BestFit},
		{Name: "sharing-2-best-fit", ServersPerGPU: 2, Policy: gpuserver.BestFit},
		{Name: "sharing-2-worst-fit", ServersPerGPU: 2, Policy: gpuserver.WorstFit},
	}
}

// MixResult is the outcome of one mixed-workload run.
type MixResult struct {
	Variant     string
	Mix         string // "AW" (all workloads) or "SW" (smaller workloads)
	GPUs        int
	ProviderE2E time.Duration // first launch to last completion
	E2ESum      time.Duration // sum of every function's end-to-end time
	PerFn       map[string]faas.FnSummary
	MeanUtil    float64 // average GPU utilization across devices, %
}

// MixConfig parameterizes a mixed-workload run.
type MixConfig struct {
	Specs     []*workloads.Spec
	Instances int // invocations per workload
	GPUs      int
	Variant   Variant
	MeanGap   time.Duration // mean of the exponential inter-arrival gaps
}

// RunMix executes one mixed-workload experiment: `Instances` invocations of
// each workload in a random but seed-consistent order (§VIII-D).
func RunMix(seed int64, cfg MixConfig) MixResult {
	res := MixResult{
		Variant: cfg.Variant.Name,
		GPUs:    cfg.GPUs,
		Mix:     mixName(cfg.Specs),
	}
	e := sim.NewEngine(seed)
	e.Run("mix", func(p *sim.Proc) {
		gs := deploy.GPUServer(p, func(g *gpuserver.Config) {
			g.GPUs = cfg.GPUs
			g.ServersPerGPU = cfg.Variant.ServersPerGPU
			g.Policy = cfg.Variant.Policy
			g.EnableMigration = cfg.Variant.Migration
		})
		backend := faas.NewBackend(e, gs, faas.OpenFaaSEnv())
		fns := deploy.Stream(p, cfg.Specs, cfg.Instances)

		start := p.Now()
		backend.SubmitSequence(p, fns, faas.ExponentialArrivals(p, cfg.MeanGap))
		backend.Drain(p)

		deploy.MustSucceed("mix", backend.Invocations())
		res.ProviderE2E = backend.ProviderEndToEnd()
		res.E2ESum = backend.E2ESum()
		res.PerFn = backend.PerFunction()
		res.MeanUtil = deploy.MeanUtil(gs, start, p.Now())
	})
	return res
}

// AverageMix runs the experiment `runs` times with consecutive seeds and
// averages the aggregate metrics, as the paper averages repeated runs.
// Per-function summaries and the migration count come from the first run.
func AverageMix(seed int64, runs int, cfg MixConfig) MixResult {
	if runs <= 0 {
		runs = 1
	}
	var acc MixResult
	for r := 0; r < runs; r++ {
		res := RunMix(seed+int64(r), cfg)
		if r == 0 {
			acc = res
		} else {
			acc.ProviderE2E += res.ProviderE2E
			acc.E2ESum += res.E2ESum
			acc.MeanUtil += res.MeanUtil
		}
	}
	acc.ProviderE2E /= time.Duration(runs)
	acc.E2ESum /= time.Duration(runs)
	acc.MeanUtil /= float64(runs)
	return acc
}

func mixName(specs []*workloads.Spec) string {
	if len(specs) == len(workloads.All()) {
		return "AW"
	}
	return "SW"
}

// Table3 reproduces Table III: provider end-to-end time and function E2E
// sum under high load (exponential inter-arrival, 2 s mean), for all
// workloads (AW) and the four smaller workloads (SW), with and without
// sharing, on four GPUs.
func Table3(seed int64) []MixResult {
	var out []MixResult
	for _, specs := range [][]*workloads.Spec{workloads.All(), workloads.Smaller()} {
		for _, v := range Variants() {
			out = append(out, AverageMix(seed, 3, MixConfig{
				Specs:     specs,
				Instances: 10,
				GPUs:      4,
				Variant:   v,
				MeanGap:   2 * time.Second,
			}))
		}
	}
	return out
}

// Fig5Row is one bar of Figure 5: a workload's mean queueing and execution
// delay under high load.
type Fig5Row struct {
	Mix      string
	Workload string
	Queue    time.Duration
	Exec     time.Duration
}

// Figure5 reproduces Figure 5: per-workload queueing and execution delay
// under high load (sharing with two API servers per GPU, best fit).
func Figure5(seed int64) []Fig5Row {
	var out []Fig5Row
	sharing := Variants()[1]
	for _, specs := range [][]*workloads.Spec{workloads.All(), workloads.Smaller()} {
		res := RunMix(seed, MixConfig{
			Specs:     specs,
			Instances: 10,
			GPUs:      4,
			Variant:   sharing,
			MeanGap:   2 * time.Second,
		})
		for _, spec := range specs {
			s := res.PerFn[spec.Name]
			out = append(out, Fig5Row{
				Mix:      res.Mix,
				Workload: spec.Name,
				Queue:    s.MeanQueue(),
				Exec:     s.MeanExec(),
			})
		}
	}
	return out
}

// Table4 reproduces Table IV: the same mixes under low load (exponential
// inter-arrival, 3 s mean) with four and with three GPUs.
func Table4(seed int64) []MixResult {
	var out []MixResult
	for _, gpus := range []int{4, 3} {
		for _, v := range Variants() {
			out = append(out, AverageMix(seed, 3, MixConfig{
				Specs:     workloads.All(),
				Instances: 10,
				GPUs:      gpus,
				Variant:   v,
				MeanGap:   3 * time.Second,
			}))
		}
	}
	return out
}

// Figure6 reproduces Figure 6: per-workload queueing and execution delay
// under low load (four GPUs, sharing best fit).
func Figure6(seed int64) []Fig5Row {
	var out []Fig5Row
	for _, v := range []Variant{Variants()[0], Variants()[1]} {
		res := RunMix(seed, MixConfig{
			Specs:     workloads.All(),
			Instances: 10,
			GPUs:      4,
			Variant:   v,
			MeanGap:   3 * time.Second,
		})
		for _, spec := range workloads.All() {
			s := res.PerFn[spec.Name]
			out = append(out, Fig5Row{
				Mix:      v.Name,
				Workload: spec.Name,
				Queue:    s.MeanQueue(),
				Exec:     s.MeanExec(),
			})
		}
	}
	return out
}

// Fig7Result is one configuration's burst run: total completion time, mean
// utilization, and the smoothed utilization series Figure 7 plots.
type Fig7Result struct {
	Variant     string
	ProviderE2E time.Duration
	MeanUtil    float64
	Series      [][]gpu.Sample // per GPU, moving average window 5
}

// Figure7 reproduces Figure 7 and the burst numbers of §VIII-D: ten bursts
// of all six workloads, two seconds apart, without sharing and with two API
// servers per GPU under best fit. Utilization samples are taken every
// 200 ms and smoothed with a window of five.
func Figure7(seed int64) []Fig7Result {
	var out []Fig7Result
	for _, v := range []Variant{Variants()[0], Variants()[1]} {
		backend, gs, util := runBursts(seed, "burst", v.ServersPerGPU, workloads.All())
		r := Fig7Result{Variant: v.Name, ProviderE2E: backend.ProviderEndToEnd(), MeanUtil: util}
		for _, s := range gs.Samplers() {
			r.Series = append(r.Series, s.MovingAverage(5))
		}
		out = append(out, r)
	}
	return out
}

// runBursts runs §VIII-D's burst pattern — ten bursts of one invocation per
// spec, two seconds apart — on the testbed's four GPUs with perGPU API
// servers each, under the root process name root. It returns the drained
// backend, the GPU server and the mean GPU utilization over the run.
func runBursts(seed int64, root string, perGPU int, specs []*workloads.Spec) (backend *faas.Backend, gs *gpuserver.GPUServer, util float64) {
	e := sim.NewEngine(seed)
	e.Run(root, func(p *sim.Proc) {
		gs = deploy.GPUServer(p, func(g *gpuserver.Config) { g.ServersPerGPU = perGPU })
		backend = faas.NewBackend(e, gs, faas.OpenFaaSEnv())
		var fns []*faas.Function
		for _, spec := range specs {
			fns = append(fns, spec.Function())
		}
		start := p.Now()
		backend.SubmitBursts(p, fns, 10, 2*time.Second)
		backend.Drain(p)
		util = deploy.MeanUtil(gs, start, p.Now())
	})
	return backend, gs, util
}
