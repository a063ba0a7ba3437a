package experiments

import (
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/deploy"
	"dgsf/internal/faas"
	"dgsf/internal/gpu"
	"dgsf/internal/gpuserver"
	"dgsf/internal/guest"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
	"dgsf/internal/workloads"
)

// Table5Row is one row of Table V: the synthetic migration microbenchmark
// at one array size.
type Table5Row struct {
	ArrayMB      int64
	NativeE2E    time.Duration
	DGSFE2E      time.Duration
	MigratedE2E  time.Duration
	MigrationDur time.Duration
}

// Table5Sizes are the array sizes the paper measures: the memory
// requirements of three of its workloads plus K-means.
var Table5Sizes = []int64{323, 3514, 7802, 13194}

// syntheticApp is the paper's migration microbenchmark: allocate one array,
// zero it with cudaMemset, and launch two kernels that touch every element
// (§VIII-E). A single large array is the worst case for migration because
// the copy cannot be parallelized.
func syntheticApp(p *sim.Proc, api gen.API, bytes int64, betweenKernels func(*sim.Proc)) error {
	fns, err := api.RegisterKernels(p, []string{"touch"})
	if err != nil {
		return err
	}
	arr, err := api.Malloc(p, bytes)
	if err != nil {
		return err
	}
	if err := api.Memset(p, arr, 0, bytes); err != nil {
		return err
	}
	launch := func() error {
		if err := api.LaunchKernel(p, cuda.LaunchParams{Fn: fns[0], Duration: 5 * time.Millisecond, Mutates: []cuda.DevPtr{arr}}); err != nil {
			return err
		}
		return api.StreamSynchronize(p, 0)
	}
	if err := launch(); err != nil {
		return err
	}
	if betweenKernels != nil {
		betweenKernels(p)
	}
	if err := launch(); err != nil {
		return err
	}
	return api.Free(p, arr)
}

// Table5 reproduces Table V: native vs DGSF vs DGSF-with-forced-migration
// end-to-end times of the synthetic application, averaged over runs.
func Table5(seed int64, runs int) []Table5Row {
	if runs <= 0 {
		runs = 3
	}
	out := make([]Table5Row, 0, len(Table5Sizes))
	for _, mb := range Table5Sizes {
		row := Table5Row{ArrayMB: mb}
		for r := 0; r < runs; r++ {
			s := seed + int64(r)
			n, d, m, md := runMicro(s, mb<<20)
			row.NativeE2E += n
			row.DGSFE2E += d
			row.MigratedE2E += m
			row.MigrationDur += md
		}
		row.NativeE2E /= time.Duration(runs)
		row.DGSFE2E /= time.Duration(runs)
		row.MigratedE2E /= time.Duration(runs)
		row.MigrationDur /= time.Duration(runs)
		out = append(out, row)
	}
	return out
}

// runMicro measures the three Table V configurations at one array size.
func runMicro(seed int64, bytes int64) (nativeE2E, dgsfE2E, migratedE2E, migDur time.Duration) {
	const name, mem = "micro", 15 << 30
	// Native: CUDA initialization dominates (~3 s, §VIII-E).
	sim.NewEngine(seed).Run("native", func(p *sim.Proc) {
		start := p.Now()
		deploy.Native(p, name, mem, func(api gen.API) error { return syntheticApp(p, api, bytes, nil) })
		nativeE2E = p.Now() - start
	})

	// DGSF with and without a forced migration right before the second
	// kernel.
	for _, forced := range []bool{false, true} {
		sim.NewEngine(seed).Run("dgsf", func(p *sim.Proc) {
			srv := deploy.APIServer(p, 2, true)
			var between func(p *sim.Proc)
			if forced {
				between = func(p *sim.Proc) { migDur = migrate(p, srv, 1) }
			}
			start := p.Now()
			deploy.Session(p, srv, remoting.OpenFaaSNet(), guest.OptAll, name, mem, func(api gen.API) error {
				return syntheticApp(p, api, bytes, between)
			})
			if forced {
				migratedE2E = p.Now() - start
			} else {
				dgsfE2E = p.Now() - start
			}
		})
	}
	return
}

// Fig8Result is one configuration of the Figure 8 scenario.
type Fig8Result struct {
	Config      string
	Total       time.Duration // time to finish all four functions
	Migrations  int
	UtilSeries  [][]gpu.Sample // per GPU, moving average window 5
	PerWorkload map[string]time.Duration
}

// Figure8 reproduces the §VIII-E migration case study: two NLP and two
// image-classification functions on a two-GPU server. The image
// classifications download more data, so the NLPs reach the GPUs first.
// Configurations: no sharing, worst-fit sharing, best-fit sharing (the
// pathological case: both NLPs pack onto one GPU) and best-fit sharing with
// migration (the monitor repairs the imbalance once the classifications
// finish).
func Figure8(seed int64) []Fig8Result {
	configs := []struct {
		name      string
		perGPU    int
		policy    gpuserver.Policy
		migration bool
	}{
		{"no-sharing", 1, gpuserver.BestFit, false},
		{"worst-fit", 2, gpuserver.WorstFit, false},
		{"best-fit", 2, gpuserver.BestFit, false},
		{"best-fit+migration", 2, gpuserver.BestFit, true},
	}
	var out []Fig8Result
	for _, c := range configs {
		r := Fig8Result{Config: c.name, PerWorkload: map[string]time.Duration{}}
		e := sim.NewEngine(seed)
		e.Run("fig8", func(p *sim.Proc) {
			gs := deploy.GPUServer(p, func(g *gpuserver.Config) {
				g.GPUs = 2
				g.ServersPerGPU = c.perGPU
				g.Policy = c.policy
				g.EnableMigration = c.migration
				g.MinImbalanceTicks = 3
			})
			// Deterministic downloads: the scenario depends on the NLP
			// functions (1262 MB) reaching the GPUs just before the image
			// classifications (1297 MB), as in the paper's run.
			env := faas.OpenFaaSEnv()
			env.Download.JitterFrac = 0
			backend := faas.NewBackend(e, gs, env)
			nlp := workloads.QuestionAnswering().Function()
			img := workloads.ImageClassification().Function()
			start := p.Now()
			for i := 0; i < 2; i++ {
				backend.Submit(p, nlp)
			}
			for i := 0; i < 2; i++ {
				backend.Submit(p, img)
			}
			backend.Drain(p)
			r.Total = p.Now() - start
			r.Migrations = gs.Migrations()
			for name, s := range backend.PerFunction() {
				r.PerWorkload[name] = s.MeanE2E()
			}
			deploy.MustSucceed("fig8 "+c.name, backend.Invocations())
			for _, s := range gs.Samplers() {
				r.UtilSeries = append(r.UtilSeries, s.MovingAverage(5))
			}
		})
		out = append(out, r)
	}
	return out
}
