package experiments

import (
	"time"

	"dgsf/internal/deploy"
	"dgsf/internal/faas"
	"dgsf/internal/gpuserver"
	"dgsf/internal/modelcache"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
	"dgsf/internal/workloads"
)

// CachePoint is one invocation's timing under a given cache state.
type CachePoint struct {
	E2E      time.Duration // submission to completion
	Download time.Duration // object-store fetch (model + inputs)
	Load     time.Duration // model load phase inside the session
}

// CacheRow compares, for one workload, a cold invocation against a repeat
// invocation that hits the host-staged tier and one that hits the
// GPU-resident tier of the model cache.
type CacheRow struct {
	Workload string
	Cold     CachePoint
	WarmHost CachePoint // repeat with the device tier disabled
	WarmGPU  CachePoint // repeat with the full cache
}

// CacheColdWarm measures cold vs warm invocations for every workload that
// ships a model. Two deployments per workload, each a single API server on
// one GPU with the model cache enabled: one with the device tier disabled —
// the repeat invocation restages the working set from host memory — and one
// with the full cache — the repeat invocation adopts the GPU-resident
// working set and skips the model load phase entirely. In both deployments
// the repeat's model download is served by the host-staged object cache.
func CacheColdWarm(seed int64) []CacheRow {
	var out []CacheRow
	for _, spec := range workloads.All() {
		if spec.ModelBytes == 0 {
			continue // nothing to cache (kmeans)
		}
		row := CacheRow{Workload: spec.Name}
		row.Cold, row.WarmHost = coldWarmPair(seed, spec, -1)
		_, row.WarmGPU = coldWarmPair(seed, spec, 0)
		out = append(out, row)
	}
	return out
}

// coldWarmPair runs the workload twice back-to-back on a fresh single-server
// deployment and returns both invocations' timings. deviceBudget < 0
// disables the GPU-resident tier; 0 uses the default budget.
func coldWarmPair(seed int64, spec *workloads.Spec, deviceBudget int64) (first, second CachePoint) {
	e := sim.NewEngine(seed)
	e.Run("cache-"+spec.Name, func(p *sim.Proc) {
		gs := deploy.GPUServer(p, func(g *gpuserver.Config) {
			g.GPUs = 1
			g.Cache = modelcache.Config{Enable: true, DeviceBudget: deviceBudget}
		})
		backend := faas.NewBackend(e, gs, faas.OpenFaaSEnv())
		for _, pt := range []*CachePoint{&first, &second} {
			var ph workloads.Phases
			f := spec.Function()
			f.Run = func(p *sim.Proc, api gen.API) error {
				return spec.RunBody(p, api, &ph)
			}
			inv := backend.Submit(p, f)
			backend.Drain(p)
			pt.E2E = inv.E2E()
			pt.Download = inv.DownloadDone - inv.SubmittedAt
			pt.Load = ph.Load
		}
		deploy.MustSucceed("cache", backend.Invocations())
	})
	return first, second
}

// CacheLoadResult aggregates one mixed-load run with the model cache on.
type CacheLoadResult struct {
	Policy       string
	ProviderE2E  time.Duration
	E2ESum       time.Duration
	Stats        modelcache.Stats
	DownloadHits int // invocations whose model download came from the host cache
	Invocations  int
}

// CacheUnderLoad runs the smaller-workload mix of Table III (10 instances
// each, 4 GPUs, two API servers per GPU) with the model cache enabled,
// comparing best-fit placement against the locality-aware policy. The mean
// inter-arrival gap is 5 s — moderate load: under full saturation at most
// one API server is ever idle and placement policy has no choice to make.
// Locality routes repeat invocations to API servers already holding their
// model, so its GPU-resident hit rate should exceed best-fit's.
func CacheUnderLoad(seed int64) []CacheLoadResult {
	var out []CacheLoadResult
	for _, pol := range []gpuserver.Policy{gpuserver.BestFit, gpuserver.PolicyLocality} {
		r := CacheLoadResult{Policy: pol.String()}
		e := sim.NewEngine(seed)
		e.Run("cache-load", func(p *sim.Proc) {
			gs := deploy.GPUServer(p, func(g *gpuserver.Config) {
				g.ServersPerGPU = 2
				g.Policy = pol
				g.Cache = modelcache.Config{Enable: true}
			})
			backend := faas.NewBackend(e, gs, faas.OpenFaaSEnv())
			backend.SubmitSequence(p, deploy.Stream(p, workloads.Smaller(), 10), faas.ExponentialArrivals(p, 5*time.Second))
			backend.Drain(p)
			deploy.MustSucceed("cache load", backend.Invocations())
			for _, inv := range backend.Invocations() {
				if inv.ModelCached {
					r.DownloadHits++
				}
			}
			r.Invocations = len(backend.Invocations())
			r.ProviderE2E = backend.ProviderEndToEnd()
			r.E2ESum = backend.E2ESum()
			r.Stats = gs.Cache().Stats()
		})
		out = append(out, r)
	}
	return out
}
