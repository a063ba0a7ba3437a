package main

import (
	"fmt"
	"runtime"
	"time"

	"dgsf/internal/apiserver"
	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/faas"
	"dgsf/internal/gpu"
	"dgsf/internal/guest"
	"dgsf/internal/native"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
	"dgsf/internal/workloads"
)

// The guest tiers single_fn compares.
const (
	tierPipelined = guest.OptAll | guest.OptAsync
	tierSync      = guest.OptNone
)

// Stack levels for peeling: the same function body runs against ever more
// of the remoting stack, and a layer's host cost is the difference of
// successive levels.
const (
	levelNative    = iota // L0: native.New -> cuda/gpu, no remoting
	levelAPIServer        // L1: apiserver.Server methods called directly
	levelCodec            // L2: gen.Client -> inlineCaller -> gen.Dispatch, no transport
	levelGuest            // L3: guest.Lib over the inline caller
	levelFull             // L4: guest.Lib over the sim transport to a running server
)

// fnRun is the outcome of one function body on one fresh engine.
type fnRun struct {
	total, download     time.Duration // virtual: Phases.Total() and its download part
	guest               guest.Stats   // zero below levelGuest
	srv                 apiserver.Stats
	computeBusy, copies time.Duration
	endAt               time.Duration // engine clock when the body finished
	err                 error
}

// inlineCaller is a remoting.Caller with no transport: the encoded request
// goes straight into gen.Dispatch on the calling process.
type inlineCaller struct{ srv gen.API }

func (c inlineCaller) Roundtrip(p *sim.Proc, req []byte, _ int64) ([]byte, error) {
	resp, _ := gen.Dispatch(p, c.srv, req)
	return resp, nil
}
func (c inlineCaller) Close() {}

// launchExpander issues the __cudaPush/PopCallConfiguration pair around each
// launch, as the guest library does at OptNone, so the levels below the
// guest see exactly the call stream the guest forwards at the sync tier.
type launchExpander struct{ gen.API }

func (x launchExpander) LaunchKernel(p *sim.Proc, lp cuda.LaunchParams) error {
	if err := x.API.PushCallConfiguration(p, lp.Grid, lp.Block, lp.Stream); err != nil {
		return err
	}
	if err := x.API.LaunchKernel(p, lp); err != nil {
		return err
	}
	return x.API.PopCallConfiguration(p)
}

// runFunction runs one workload spec the way experiments.runTier does — root
// process "exp" on a fresh engine (per-process RNG streams are seeded by
// name), download, one V100, one pre-warmed API server — at the given stack
// level and guest tier. tr, when non-nil, decorates the API and the
// transport and counts sim events.
func runFunction(seed int64, spec *workloads.Spec, level int, opt guest.Opt, tr *tracer) fnRun {
	var res fnRun
	env := faas.OpenFaaSEnv()
	e := sim.NewEngine(seed)
	if tr != nil {
		e.SetTrace(tr.simHook)
	}
	e.Run("exp", func(p *sim.Proc) {
		var ph workloads.Phases
		t0 := p.Now()
		p.Sleep(env.Download.TransferTime(p, spec.DownloadBytes))
		ph.Download = p.Now() - t0

		dev := gpu.New(e, gpu.V100Config(0))
		rt := cuda.NewRuntime(e, []*gpu.Device{dev}, cuda.DefaultCosts())
		var srv *apiserver.Server
		if level >= levelAPIServer {
			srv = apiserver.NewServer(e, rt, apiserver.Config{
				PoolHandles: true,
				CUDACosts:   cuda.DefaultCosts(),
				LibCosts:    cudalibs.DefaultCosts(),
			})
			if err := srv.Prewarm(p); err != nil {
				res.err = err
				return
			}
		}

		var api gen.API
		var lib *guest.Lib
		switch level {
		case levelNative:
			api = launchExpander{native.New(rt, cudalibs.DefaultCosts())}
		case levelAPIServer:
			api = launchExpander{srv}
		case levelCodec:
			api = launchExpander{&gen.Client{T: inlineCaller{srv}}}
		case levelGuest:
			lib = guest.New(inlineCaller{srv}, opt)
			api = lib
		case levelFull:
			p.SpawnDaemon("apiserver", srv.Run)
			c := remoting.Dial(e, &remoting.Listener{Incoming: srv.Inbox}, env.Net)
			if tr != nil {
				tr.freshCtx(p.Name())
				c = tr.wrapConn(p, c)
			}
			lib = guest.New(c, opt)
			api = lib
		}
		if tr != nil && level == levelFull {
			api = tr.wrapAPI(p, api)
		}

		t0 = p.Now()
		if res.err = api.Hello(p, spec.Name, spec.MemLimit); res.err != nil {
			return
		}
		ph.Init = p.Now() - t0
		if res.err = spec.RunBody(p, api, &ph); res.err != nil {
			return
		}
		if lib != nil {
			lib.FlushBatch(p)
		}
		if res.err = api.Bye(p); res.err != nil {
			return
		}
		if lib != nil {
			res.guest = lib.Stats()
		}
		if srv != nil {
			res.srv = srv.Stats()
		}
		res.total, res.download = ph.Total(), ph.Download
		res.computeBusy, res.copies = dev.ComputeBusy(), dev.CopyBusy()
		res.endAt = p.Now()
	})
	e.Stop()
	if res.err != nil {
		res.err = fmt.Errorf("%s level %d: %w", spec.Name, level, res.err)
	}
	return res
}

// quickSpecs shrinks the six paper workloads for warm-ups and tests: the
// same call mix, a fraction of the batches and descriptor churn.
func quickSpecs() []*workloads.Spec {
	specs := workloads.All()
	for _, s := range specs {
		s.Batches = max(1, s.Batches/16)
		s.LoadDescPairs /= 10
		s.LoadOps = max(1, s.LoadOps/5)
	}
	return specs
}

// --- stack peeling ---

// peelResult is the host cost of each layer per call, from the sync-tier
// call stream (every level executes the same M calls).
type peelResult struct {
	calls      int        // M: calls per pass (six functions)
	roundtrips int        // round trips at L4
	levelNs    [5]float64 // host ns per pass at each level, fastest of the passes
	failed     int
}

// peelResolution is how far a level's time may fall below the time of the
// level under it and still count as non-negative. The fastest of five
// quarter-second passes wanders by up to 6% between runs on a shared 2-vCPU
// box, while L1-L0 is about 1% of L0 (the API server adds a few ns to a
// ~900 ns model call): the check is there to catch a level that skips work,
// not to resolve that 1%.
const peelResolution = 0.08

// peelCheckReps is the number of untraced repetitions from which the peel's
// two timing checks are enforced; see singleFn.traceExtras.
const peelCheckReps = 5

// peel runs the six functions at every stack level, `passes` times over, and
// keeps each level's fastest pass: a neighbour on the machine can only slow a
// pass down, so the fastest is the steadiest estimate, and a difference of
// two levels needs steady ones. The levels take turns within a pass so that a
// slow minute hits them alike.
func peel(seed int64, specs []*workloads.Spec, passes int) peelResult {
	var r peelResult
	for i := 0; i < passes; i++ {
		for level := levelNative; level <= levelFull; level++ {
			calls, rts := 0, 0
			runtime.GC() // as before every repetition the sum is compared with
			start := hostNow()
			for _, spec := range specs {
				run := runFunction(seed, spec, level, tierSync, nil)
				if run.err != nil {
					r.failed++
				}
				calls += run.guest.Total
				rts += run.guest.Roundtrips()
			}
			ns := float64(hostNow().Sub(start))
			if i == 0 || ns < r.levelNs[level] {
				r.levelNs[level] = ns
			}
			if level == levelFull {
				r.calls, r.roundtrips = calls, rts
			}
		}
	}
	return r
}

// nonNegative reports whether no level is cheaper than the one under it by
// more than the resolution.
func (r peelResult) nonNegative() bool {
	for level := levelAPIServer; level <= levelFull; level++ {
		if r.levelNs[level] < (1-peelResolution)*r.levelNs[level-1] {
			return false
		}
	}
	return true
}

// perCall returns level l's host ns per call minus level l-1's.
func (r peelResult) perCall(l int) float64 {
	below := 0.0
	if l > 0 {
		below = r.levelNs[l-1]
	}
	return ratio(r.levelNs[l]-below, float64(r.calls))
}

// --- sim engine probes ---

// probe runs root as the root process of a fresh engine and returns the
// run's length in host nanoseconds.
func probe(name string, root func(p *sim.Proc)) float64 {
	e := sim.NewEngine(1)
	start := hostNow()
	e.Run(name, root)
	return float64(hostNow().Sub(start))
}

// probeSwitch: two processes ping-pong over two queues; every Recv parks
// one and wakes the other. Returns host ns per process switch.
func probeSwitch(n int) float64 {
	var ping, pong *sim.Queue[int]
	ns := probe("ping", func(p *sim.Proc) {
		ping, pong = sim.NewQueue[int](p.Engine()), sim.NewQueue[int](p.Engine())
		p.Spawn("pong", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				v, _ := ping.Recv(p)
				pong.Send(v)
			}
		})
		for i := 0; i < n; i++ {
			ping.Send(i)
			pong.Recv(p)
		}
	})
	return ratio(ns, float64(2*n))
}

// probeSleep: one process sleeps n times; each sleep is a timer push, a
// clock advance and a self-wake. Returns host ns per sleep.
func probeSleep(n int) float64 {
	ns := probe("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	return ratio(ns, float64(n))
}

// probeSpawn: the root spawns n processes that exit at once. Returns host
// ns per spawn-and-exit.
func probeSpawn(n int) float64 {
	ns := probe("spawner", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Spawn("child", func(*sim.Proc) {})
			p.Yield()
		}
	})
	return ratio(ns, float64(n))
}

// probeSwitchMany: procs processes sleep staggered periods, so the timer
// heap holds procs entries and the run queue is never a single process —
// the shape of paper_mix. Returns host ns per wake-up.
func probeSwitchMany(procs, rounds int) float64 {
	ns := probe("root", func(p *sim.Proc) {
		for i := 0; i < procs; i++ {
			period := time.Duration(50+i) * time.Microsecond
			p.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
				for r := 0; r < rounds; r++ {
					p.Sleep(period)
				}
			})
		}
	})
	return ratio(ns, float64(procs*rounds))
}
