package experiments

import (
	"time"

	"dgsf/internal/deploy"
	"dgsf/internal/faas"
	"dgsf/internal/gpuserver"
	"dgsf/internal/guest"
	"dgsf/internal/metrics"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
	"dgsf/internal/workloads"
)

// Ablation experiments for the design choices DESIGN.md calls out. These go
// beyond the paper's figures: the scheduling ablation implements §VIII-D's
// explicitly-deferred future work ("policies like shortest-function-first,
// which could improve throughput at some loss of fairness"); the sharing
// sweep quantifies §VIII-D's observation that "adding more workers to GPUs
// yields no significant improvement"; the RTT sweep shows where remoting
// overhead starts to erase the pre-initialization win.

// SchedResult compares queue policies on the heavy-load mix.
type SchedResult struct {
	Policy      string
	ProviderE2E time.Duration
	E2ESum      time.Duration
	QueueMean   time.Duration
	QueueStd    time.Duration // fairness proxy: higher spread = less fair
	QueueMax    time.Duration
}

// SchedulingAblation runs the Table III AW mix under FCFS and SJF.
func SchedulingAblation(seed int64) []SchedResult {
	var out []SchedResult
	for _, q := range []gpuserver.QueuePolicy{gpuserver.FCFS, gpuserver.SJF} {
		r := SchedResult{Policy: q.String()}
		e := sim.NewEngine(seed)
		e.Run("sched", func(p *sim.Proc) {
			gs := deploy.GPUServer(p, func(g *gpuserver.Config) {
				g.ServersPerGPU = 2
				g.Queue = q
			})
			backend := faas.NewBackend(e, gs, faas.OpenFaaSEnv())
			// Warm the backend's learned-duration history with one round,
			// then measure a shuffled heavy-load stream.
			for _, spec := range workloads.All() {
				backend.Submit(p, spec.Function())
			}
			backend.Drain(p)
			warmup := len(workloads.All())
			backend.SubmitSequence(p, deploy.Stream(p, workloads.All(), 10), faas.ExponentialArrivals(p, 2*time.Second))
			backend.Drain(p)

			var queue metrics.Series
			var e2eSum time.Duration
			invs := backend.Invocations()[warmup:]
			first, last := invs[0].SubmittedAt, time.Duration(0)
			for _, inv := range invs {
				queue.Add(inv.QueueDelay)
				e2eSum += inv.E2E()
				if inv.Done > last {
					last = inv.Done
				}
			}
			r.ProviderE2E = last - first
			r.E2ESum = e2eSum
			r.QueueMean = queue.Mean()
			r.QueueStd = queue.Std()
			r.QueueMax = queue.Max()
		})
		out = append(out, r)
	}
	return out
}

// SharingResult is one point of the sharing-degree sweep.
type SharingResult struct {
	ServersPerGPU int
	ProviderE2E   time.Duration
	E2ESum        time.Duration
	MeanUtil      float64
}

// SharingSweep runs the burst workload with 1..4 API servers per GPU, using
// the four smaller workloads (at three or more pre-warmed API servers per
// GPU, the two whole-GPU workloads can no longer fit at all). The paper:
// with two servers per GPU a burst completes 9% sooner; "adding more
// workers to GPUs yields no significant improvement because each workload
// uses most of the GPU's memory" (§VIII-D).
func SharingSweep(seed int64) []SharingResult {
	var out []SharingResult
	for per := 1; per <= 4; per++ {
		backend, _, util := runBursts(seed, "sweep", per, workloads.Smaller())
		out = append(out, SharingResult{
			ServersPerGPU: per,
			ProviderE2E:   backend.ProviderEndToEnd(),
			E2ESum:        backend.E2ESum(),
			MeanUtil:      util,
		})
	}
	return out
}

// RTTResult is one point of the network-latency sensitivity sweep.
type RTTResult struct {
	Workload  string
	RTT       time.Duration
	Native    time.Duration
	DGSF      time.Duration // fully optimized synchronous guest (OptAll)
	DGSFAsync time.Duration // OptAll plus the pipelined submission lane
}

// RTTSweepRTTs lists the round-trip latencies the sweep covers, from
// in-rack to cross-zone.
func RTTSweepRTTs() []time.Duration {
	return []time.Duration{
		50 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
		1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	}
}

// RTTSweep measures two workloads under increasing remoting round-trip
// latency. DGSF beats native at in-rack latencies because
// pre-initialization outweighs per-call overhead; as the RTT grows,
// per-call overhead erases the win — quantifying how far the GPU pool can
// be disaggregated before transparency is no longer free. The async column
// shows how far the pipelined submission lane pushes that horizon: one-way
// submissions hide the outbound latency that batching alone still pays on
// every synchronizing call.
func RTTSweep(seed int64) []RTTResult {
	var out []RTTResult
	for _, spec := range []*workloads.Spec{
		workloads.FaceIdentification(), workloads.ImageClassification(),
	} {
		native := RunSingle(seed, spec, ModeNative, false).Total
		for _, rtt := range RTTSweepRTTs() {
			out = append(out, RTTResult{
				Workload:  spec.Name,
				RTT:       rtt,
				Native:    native,
				DGSF:      rttRun(seed, spec, rtt, guest.OptAll),
				DGSFAsync: rttRun(seed, spec, rtt, guest.OptAll|guest.OptAsync),
			})
		}
	}
	return out
}

// rttRun executes one cell of the RTT sweep on its own engine, so every
// configuration sees an identical virtual testbed and results are
// deterministic per (seed, workload, rtt, opt).
func rttRun(seed int64, spec *workloads.Spec, rtt time.Duration, opt guest.Opt) time.Duration {
	var total time.Duration
	e := sim.NewEngine(seed)
	e.Run("rtt", func(p *sim.Proc) {
		env := faas.OpenFaaSEnv()
		env.Net.RTT = rtt

		srv := deploy.APIServer(p, 1, true)
		start := p.Now()
		p.Sleep(env.Download.TransferTime(p, spec.DownloadBytes))
		deploy.Session(p, srv, env.Net, opt, spec.Name, spec.MemLimit, func(api gen.API) error {
			return spec.RunBody(p, api, nil)
		})
		total = p.Now() - start
	})
	return total
}

// ScaleResult is one point of the GPU-server scale-out experiment.
type ScaleResult struct {
	Servers     int
	Pick        string
	ProviderE2E time.Duration
	E2ESum      time.Duration
}

// ScaleOut runs a heavy stream over one and two GPU servers with fixed and
// least-loaded selection, demonstrating §IV's "scaling up GPU servers in
// DGSF is simple" and the selection policies it sketches.
func ScaleOut(seed int64) []ScaleResult {
	type cfg struct {
		n    int
		pick faas.ServerPick
		name string
	}
	cfgs := []cfg{
		{1, faas.PickFixed, "fixed"},
		{2, faas.PickFixed, "fixed"},
		{2, faas.PickLeastLoaded, "least-loaded"},
	}
	var out []ScaleResult
	for _, c := range cfgs {
		r := ScaleResult{Servers: c.n, Pick: c.name}
		e := sim.NewEngine(seed)
		e.Run("scale", func(p *sim.Proc) {
			servers := deploy.GPUServers(p, c.n, func(_ int, g *gpuserver.Config) { g.GPUs = 2 })
			backend := faas.NewMultiBackend(e, servers, c.pick, faas.OpenFaaSEnv())
			backend.SubmitSequence(p, deploy.Stream(p, workloads.Smaller(), 6), faas.ExponentialArrivals(p, 2*time.Second))
			backend.Drain(p)
			r.ProviderE2E = backend.ProviderEndToEnd()
			r.E2ESum = backend.E2ESum()
		})
		out = append(out, r)
	}
	return out
}
