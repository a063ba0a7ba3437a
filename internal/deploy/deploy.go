// Package deploy boots the three deployments the evaluation runs on, each in
// one place: the lone pre-warmed API server with one function attached (and
// its native arm), GPU servers from gpuserver.DefaultConfig behind a
// serverless backend, and the store-driven fleet. internal/experiments,
// internal/chaos and the dgsf facade pass only what they change.
//
// The boot order is part of the result: process names seed the RNG streams,
// pids fix run-queue and teardown order, and counters print in registration
// order. Every function here must be called from a simulated process.
package deploy

import (
	"fmt"
	"time"

	"dgsf/internal/apiserver"
	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/faas"
	"dgsf/internal/gpu"
	"dgsf/internal/gpuserver"
	"dgsf/internal/guest"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
	"dgsf/internal/workloads"
)

// APIServer boots one API server over gpus simulated V100s and leaves its
// request loop running as the daemon "apiserver". With pool set it keeps
// handle pools and is pre-warmed first, off any function's critical path, as
// the GPU server's manager does.
func APIServer(p *sim.Proc, gpus int, pool bool) *apiserver.Server {
	e := p.Engine()
	devs := make([]*gpu.Device, gpus)
	for i := range devs {
		devs[i] = gpu.New(e, gpu.V100Config(i))
	}
	srv := apiserver.NewServer(e, cuda.NewRuntime(e, devs, cuda.DefaultCosts()), apiserver.Config{
		PoolHandles: pool,
		CUDACosts:   cuda.DefaultCosts(),
		LibCosts:    cudalibs.DefaultCosts(),
	})
	if pool {
		if err := srv.Prewarm(p); err != nil {
			panic(err)
		}
	}
	p.SpawnDaemon("apiserver", srv.Run)
	return srv
}

// Session runs one function against srv: it dials over net, opens the
// session as name with a mem-byte limit, runs body on a guest library at tier
// opt and says Bye. It returns how long Hello took and the library's
// counters; any failure panics.
func Session(p *sim.Proc, srv *apiserver.Server, net remoting.NetProfile, opt guest.Opt, name string, mem int64, body func(api gen.API) error) (hello time.Duration, st guest.Stats) {
	lib := guest.New(remoting.Dial(p.Engine(), &remoting.Listener{Incoming: srv.Inbox}, net), opt)
	hello = open(p, lib, name, mem)
	must(name, body(lib))
	must(name, lib.Bye(p))
	return hello, lib.Stats()
}

// Native is Session's native arm: body runs on a local V100, so CUDA
// initialization lands on the critical path, inside the returned Hello time.
func Native(p *sim.Proc, name string, mem int64, body func(api gen.API) error) (hello time.Duration) {
	e := p.Engine()
	rt := cuda.NewRuntime(e, []*gpu.Device{gpu.New(e, gpu.V100Config(0))}, cuda.DefaultCosts())
	api := apiserver.NewNative(rt, cudalibs.DefaultCosts())
	hello = open(p, api, name, mem)
	must(name, body(api))
	return hello
}

func open(p *sim.Proc, api gen.API, name string, mem int64) time.Duration {
	t0 := p.Now()
	must(name, api.Hello(p, name, mem))
	return p.Now() - t0
}

func must(name string, err error) {
	if err != nil {
		panic(fmt.Sprintf("%s: %v", name, err))
	}
}

// GPUServer boots one GPU server from gpuserver.DefaultConfig — the paper's
// testbed — as adjusted, and returns it ready to grant leases.
func GPUServer(p *sim.Proc, adjust func(cfg *gpuserver.Config)) *gpuserver.GPUServer {
	cfg := gpuserver.DefaultConfig()
	adjust(&cfg)
	gs := gpuserver.New(p.Engine(), cfg)
	gs.Start(p)
	return gs
}

// GPUServers boots n GPU servers one after the other; adjust sees each
// server's index just before that server is built.
func GPUServers(p *sim.Proc, n int, adjust func(i int, cfg *gpuserver.Config)) []*gpuserver.GPUServer {
	servers := make([]*gpuserver.GPUServer, n)
	for i := range servers {
		servers[i] = GPUServer(p, func(cfg *gpuserver.Config) { adjust(i, cfg) })
	}
	return servers
}

// Stream returns n invocations of each spec in an order shuffled from p's
// RNG: random, but the same for the same seed (§VIII-D).
func Stream(p *sim.Proc, specs []*workloads.Spec, n int) []*faas.Function {
	var fns []*faas.Function
	for _, spec := range specs {
		f := spec.Function()
		for i := 0; i < n; i++ {
			fns = append(fns, f)
		}
	}
	p.Rand().Shuffle(len(fns), func(i, j int) { fns[i], fns[j] = fns[j], fns[i] })
	return fns
}

// MeanUtil averages the utilization (percent) of gs's GPUs over [start, end].
func MeanUtil(gs *gpuserver.GPUServer, start, end time.Duration) float64 {
	var util float64
	for _, s := range gs.Samplers() {
		util += s.MeanUtil(start, end)
	}
	return util / float64(len(gs.Samplers()))
}

// MustSucceed panics on the first failed invocation: an experiment that
// reports timings has no row for a function that did not run.
func MustSucceed(what string, invs []*faas.Invocation) {
	for _, inv := range invs {
		if inv.Err != nil {
			panic(fmt.Sprintf("%s: %s failed: %v", what, inv.Fn.Name, inv.Err))
		}
	}
}

// DetectFailures turns on the GPU server's failure handling: heartbeats that
// declare a silent API server dead and a deadline that sheds requests queued
// behind one. Without both a killed API server is never detected and the
// invocation queued behind it waits past the virtual time limit (found by
// the chaos engine: seed 1, trial 29).
func DetectFailures(cfg *gpuserver.Config) {
	cfg.HeartbeatPeriod = 50 * time.Millisecond
	cfg.QueueDeadline = 5 * time.Minute
}

// Recovery is the recovery policy guests run under when faults are injected,
// with the given redial budget per episode. The call deadline is far above
// any legitimate synchronous call (fences included) and below the injected
// stall lengths, so it fires only on dead or stalled servers; the fence lag
// keeps the pipelined lane from running blind for long.
func Recovery(attempts int) *guest.RecoveryConfig {
	return &guest.RecoveryConfig{
		MaxAttempts:  attempts,
		BackoffBase:  5 * time.Millisecond,
		BackoffCap:   500 * time.Millisecond,
		CallDeadline: 60 * time.Second,
		FenceLag:     time.Second,
	}
}
