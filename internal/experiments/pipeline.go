package experiments

import (
	"fmt"
	"time"

	"dgsf/internal/dataplane"
	"dgsf/internal/deploy"
	"dgsf/internal/faas"
	"dgsf/internal/gpuserver"
	"dgsf/internal/metrics"
	"dgsf/internal/remoting"
	"dgsf/internal/sim"
	"dgsf/internal/workloads"
)

// Pipeline experiment: the GPU-side data plane for chained functions. Three
// parts, each comparing the data-plane path against the historical
// bounce-through-host baseline in an otherwise identical world:
//
//   - Same-server handoff: detect→identify on one GPU server (two API
//     servers sharing the GPU). The intermediate tensor moves by
//     MemExport/MemImport — a zero-copy VMM remap — versus a D2H copy, an
//     object-store round trip and an H2D re-upload.
//   - Cross-server handoff: producer and consumer pinned to different GPU
//     servers, across a sweep of guest↔server RTTs. The tensor rides the
//     bandwidth-modeled peer fabric (PeerCopy) versus the same bounce.
//   - Model fan-out: an N-way ensemble burst on one GPU server. The first
//     session seeds the model from the host tier once and every other
//     session clones it device-to-device (ModelBroadcast), versus N
//     independent host-to-device uploads contending on one copy engine.
//
// Every part must hold for every seed: the experiment reports strict
// comparisons, and CI greps them on seeds 1, 2, 3 and 7.

// PipelineCrossPoint is one RTT point of the cross-server sweep.
type PipelineCrossPoint struct {
	RTT        time.Duration
	Peer       time.Duration // chain E2E via PeerCopy
	Bounce     time.Duration // chain E2E via the objstore bounce
	PeerCopies int64
}

// PipelineResult is the outcome of the full pipeline experiment.
type PipelineResult struct {
	// Part A: same-server chain.
	SameHandoff time.Duration
	SameBounce  time.Duration
	BypassHits  int64
	Fallbacks   int64

	// Part B: cross-server chain across RTTs.
	Cross []PipelineCrossPoint

	// Part C: N-way broadcast fan-out.
	FanOut          int
	BroadcastE2E    time.Duration
	BaselineE2E     time.Duration
	BroadcastLoads  int64
	BroadcastClones int64

	// MetricsTable renders the same-server run's data-plane counters.
	MetricsTable string
}

// RunPipeline executes all three parts with the given seed.
func RunPipeline(seed int64) PipelineResult {
	var res PipelineResult

	// Part A: same-server handoff vs bounce. The wire-stat delta around the
	// measured chain surfaces the remoting_* counters (bytes, frames) in the
	// summary next to the data-plane counters.
	wireStart := remoting.SnapshotWireStats()
	handoff, reg := runPipelineChain(seed, pipelineChainOpts{})
	remoting.PublishWireStats(reg, remoting.SnapshotWireStats().Sub(wireStart))
	bounce, _ := runPipelineChain(seed, pipelineChainOpts{forceBounce: true})
	res.SameHandoff, res.SameBounce = handoff, bounce
	res.BypassHits = reg.Get(dataplane.CtrBypassHits)
	res.Fallbacks = reg.Get(dataplane.CtrFallbacks)
	res.MetricsTable = reg.String()

	// Part B: cross-server handoff vs bounce, across guest↔server RTTs.
	for _, rtt := range []time.Duration{
		200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond,
	} {
		peer, preg := runPipelineChain(seed, pipelineChainOpts{cross: true, rtt: rtt})
		bnc, _ := runPipelineChain(seed, pipelineChainOpts{cross: true, rtt: rtt, forceBounce: true})
		res.Cross = append(res.Cross, PipelineCrossPoint{
			RTT:        rtt,
			Peer:       peer,
			Bounce:     bnc,
			PeerCopies: preg.Get(dataplane.CtrPeerCopies),
		})
	}

	// Part C: broadcast fan-out vs independent uploads.
	res.FanOut = 4
	var breg *metrics.Registry
	res.BroadcastE2E, breg = runPipelineBroadcast(seed, res.FanOut, true)
	res.BaselineE2E, _ = runPipelineBroadcast(seed, res.FanOut, false)
	res.BroadcastLoads = breg.Get(dataplane.CtrBroadcastLoads)
	res.BroadcastClones = breg.Get(dataplane.CtrBroadcastClones)
	return res
}

// pipelineChainOpts selects a chain-world variant.
type pipelineChainOpts struct {
	cross       bool          // two GPU servers, consumer forced off-producer
	forceBounce bool          // baseline: skip the GPU-side path
	rtt         time.Duration // guest↔API-server RTT override (0: env default)
}

// runPipelineChain builds one world, runs a warm-up chain and a measured
// chain, and returns the measured chain's E2E plus the fabric's registry.
func runPipelineChain(seed int64, opts pipelineChainOpts) (time.Duration, *metrics.Registry) {
	e := sim.NewEngine(seed)
	e.SetTimeLimit(time.Hour)
	reg := metrics.NewRegistry()
	fab := dataplane.NewFabric(dataplane.DefaultConfig(), reg)
	var e2e time.Duration

	e.Run("pipeline-chain", func(p *sim.Proc) {
		// Same server: producer and consumer share the one GPU. Cross: one
		// API server on each of two machines.
		nServers, perGPU := 1, 2
		if opts.cross {
			nServers, perGPU = 2, 1
		}
		servers := deploy.GPUServers(p, nServers, func(i int, cfg *gpuserver.Config) {
			cfg.GPUs = 1
			cfg.ServersPerGPU = perGPU
			cfg.Plane = fab.NewPlane(fmt.Sprintf("gpu-%d", i))
		})

		env := faas.OpenFaaSEnv()
		env.Download.JitterFrac = 0 // measured deltas are pure data-plane effects
		if opts.rtt > 0 {
			env.Net.RTT = opts.rtt
		}
		backend := faas.NewMultiBackend(e, servers, faas.PickFixed, env)

		h := &dataplane.Handoff{}
		spec := faas.ChainSpec{
			Producer:    workloads.DetectStage(h),
			Consumer:    workloads.IdentifyStage(h),
			Handoff:     h,
			Fabric:      fab,
			CrossServer: opts.cross,
			ForceBounce: opts.forceBounce,
		}
		for i := 0; i < 2; i++ { // warm-up chain, then the measured chain
			r := backend.InvokeChain(p, spec)
			if r.Err != nil {
				panic(r.Err)
			}
			e2e = r.E2E()
		}
	})
	return e2e, reg
}

// runPipelineBroadcast stages the ensemble model into one GPU server's host
// tier, then fires fanOut simultaneous ensemble members at it and measures
// the burst. withPlane toggles the data plane: without it ModelBroadcast
// misses and every member pays its own host-to-device upload.
func runPipelineBroadcast(seed int64, fanOut int, withPlane bool) (time.Duration, *metrics.Registry) {
	e := sim.NewEngine(seed)
	e.SetTimeLimit(time.Hour)
	reg := metrics.NewRegistry()
	fab := dataplane.NewFabric(dataplane.DefaultConfig(), reg)
	modelBytes := int64(104) * workloads.MB
	var e2e time.Duration

	e.Run("pipeline-broadcast", func(p *sim.Proc) {
		gs := deploy.GPUServer(p, func(cfg *gpuserver.Config) {
			cfg.GPUs = 1
			cfg.ServersPerGPU = fanOut
			cfg.Cache.Enable = true
			cfg.Cache.DeviceBudget = -1 // host tier only: pins stage out at Bye
			if withPlane {
				cfg.Plane = fab.NewPlane("bcast-plane")
			}
		})

		env := faas.OpenFaaSEnv()
		env.Download.JitterFrac = 0
		backend := faas.NewBackend(e, gs, env)

		// Warm-up: one run persists the model; its Bye stages the working
		// set into the host tier, which is what ModelBroadcast seeds from.
		backend.Invoke(p, workloads.SeedEnsembleModel(modelBytes))

		start := p.Now()
		for i := 0; i < fanOut; i++ {
			backend.Submit(p, workloads.EnsembleMember(modelBytes))
		}
		backend.Drain(p)
		deploy.MustSucceed("broadcast", backend.Invocations())
		e2e = p.Now() - start
	})
	return e2e, reg
}
