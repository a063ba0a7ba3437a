// Package dgsf is a Go reproduction of DGSF — "DGSF: Disaggregated GPUs for
// Serverless Functions" (Fingler et al., IPDPS 2022) — on a deterministic
// simulated substrate.
//
// DGSF lets serverless functions use GPUs transparently: a guest library
// interposes the application's CUDA/cuDNN/cuBLAS calls and remotes them to
// an API server on a disaggregated GPU server, with serverless-specific
// optimizations (pre-initialized runtimes, pooled handles, guest-side
// descriptor emulation, call batching) and live API-server migration
// between GPUs that preserves the application's virtual address space.
//
// This package is the public facade: it boots a simulated deployment (a
// GPU server plus a serverless backend) and runs workloads against it.
// The building blocks live under internal/ — see DESIGN.md for the map —
// and internal/experiments regenerates every table and figure of the
// paper's evaluation.
//
// Quickstart:
//
//	cluster := dgsf.NewCluster(dgsf.Config{GPUs: 4})
//	cluster.Simulate(func(s *dgsf.Session) {
//	    res, err := s.Invoke("faceidentification")
//	    if err != nil { ... }
//	    fmt.Println(res.E2E)
//	})
package dgsf

import (
	"fmt"
	"time"

	"dgsf/internal/deploy"
	"dgsf/internal/faas"
	"dgsf/internal/gpuserver"
	"dgsf/internal/sim"
	"dgsf/internal/workloads"
)

// Placement selects the GPU-placement policy of the GPU server's monitor.
type Placement string

// Placement policies.
const (
	BestFit  Placement = "best-fit"
	WorstFit Placement = "worst-fit"
	FirstFit Placement = "first-fit"
	// Locality prefers API servers whose model cache already holds the
	// function's model; it implies ModelCache and falls back to best-fit.
	Locality Placement = "locality"
)

// Environment selects the execution-environment profile functions run in.
type Environment string

// Environments.
const (
	OpenFaaS Environment = "openfaas" // the paper's primary deployment
	Lambda   Environment = "lambda"   // AWS Lambda: slower, jittery downloads
)

// Config parameterizes a simulated DGSF deployment.
type Config struct {
	Seed             int64       // RNG seed; equal seeds replay identically
	GPUs             int         // physical GPUs on the GPU server (default 4)
	APIServersPerGPU int         // >1 enables GPU sharing (default 1)
	Placement        Placement   // default BestFit
	Migration        bool        // let the monitor migrate API servers
	Environment      Environment // default OpenFaaS
	NoPrewarm        bool        // disable runtime/handle pre-initialization
	// ModelCache enables the per-GPU-server model cache: repeat invocations
	// skip the model download (host-staged tier) and, when the working set
	// is still GPU-resident, the model load phase. Implied by Locality.
	ModelCache bool
}

// Cluster is a simulated DGSF deployment: one GPU server and a serverless
// backend, on a private virtual clock.
type Cluster struct {
	cfg Config
}

// NewCluster returns a deployment with the given configuration.
func NewCluster(cfg Config) *Cluster {
	if cfg.GPUs <= 0 {
		cfg.GPUs = 4
	}
	if cfg.APIServersPerGPU <= 0 {
		cfg.APIServersPerGPU = 1
	}
	if cfg.Placement == "" {
		cfg.Placement = BestFit
	}
	if cfg.Environment == "" {
		cfg.Environment = OpenFaaS
	}
	return &Cluster{cfg: cfg}
}

// Simulate boots the deployment and runs body inside the simulation. It
// returns when body and every function it submitted have finished. Virtual
// time is unrelated to wall time: hours of simulated execution complete in
// milliseconds.
func (c *Cluster) Simulate(body func(s *Session)) {
	e := sim.NewEngine(c.cfg.Seed)
	e.Run("dgsf", func(p *sim.Proc) {
		gs := deploy.GPUServer(p, func(gcfg *gpuserver.Config) {
			gcfg.GPUs = c.cfg.GPUs
			gcfg.ServersPerGPU = c.cfg.APIServersPerGPU
			gcfg.EnableMigration = c.cfg.Migration
			gcfg.PoolHandles = !c.cfg.NoPrewarm
			switch c.cfg.Placement {
			case WorstFit:
				gcfg.Policy = gpuserver.WorstFit
			case FirstFit:
				gcfg.Policy = gpuserver.FirstFit
			case Locality:
				gcfg.Policy = gpuserver.PolicyLocality
			}
			gcfg.Cache.Enable = c.cfg.ModelCache || c.cfg.Placement == Locality
		})
		env := faas.OpenFaaSEnv()
		if c.cfg.Environment == Lambda {
			env = faas.LambdaEnv()
		}
		backend := faas.NewBackend(e, gs, env)
		s := &Session{p: p, gs: gs, backend: backend}
		body(s)
		backend.Drain(p)
	})
}

// Session is the handle body code uses to drive a running deployment.
type Session struct {
	p       *sim.Proc
	gs      *gpuserver.GPUServer
	backend *faas.Backend
}

// Workloads lists the deployable workload names (the paper's six
// benchmarks, §VII).
func Workloads() []string {
	var out []string
	for _, s := range workloads.All() {
		out = append(out, s.Name)
	}
	return out
}

// Result summarizes one finished invocation.
type Result struct {
	Workload string
	E2E      time.Duration // submission to completion
	Download time.Duration
	Queue    time.Duration // waiting for an API server
	Exec     time.Duration // GPU-session time
}

// Pending is an in-flight invocation submitted with Submit.
type Pending struct {
	inv *faas.Invocation
	s   *Session
}

// Invoke runs one workload to completion and returns its timing summary.
func (s *Session) Invoke(workload string) (Result, error) {
	pd, err := s.Submit(workload)
	if err != nil {
		return Result{}, err
	}
	return pd.Wait()
}

// Submit launches a workload asynchronously.
func (s *Session) Submit(workload string) (*Pending, error) {
	spec, err := workloads.ByName(workload)
	if err != nil {
		return nil, err
	}
	inv := s.backend.Submit(s.p, spec.Function())
	return &Pending{inv: inv, s: s}, nil
}

// Wait blocks until the invocation completes and returns its summary.
func (pd *Pending) Wait() (Result, error) {
	// The backend tracks completion via Done timestamps; poll on the
	// virtual clock (cheap: the clock only advances through real events).
	for pd.inv.Done == 0 && pd.inv.Err == nil {
		pd.s.p.Sleep(10 * time.Millisecond)
	}
	inv := pd.inv
	if inv.Err != nil {
		return Result{}, fmt.Errorf("dgsf: %s failed: %w", inv.Fn.Name, inv.Err)
	}
	return Result{
		Workload: inv.Fn.Name,
		E2E:      inv.E2E(),
		Download: inv.DownloadDone - inv.SubmittedAt,
		Queue:    inv.QueueDelay,
		Exec:     inv.Done - inv.Granted,
	}, nil
}

// Sleep advances virtual time, e.g. to space out submissions.
func (s *Session) Sleep(d time.Duration) { s.p.Sleep(d) }

// Now returns the current virtual time.
func (s *Session) Now() time.Duration { return s.p.Now() }

// Utilization returns each GPU's mean utilization (percent) so far.
func (s *Session) Utilization() []float64 {
	var out []float64
	for _, smp := range s.gs.Samplers() {
		out = append(out, smp.MeanUtil(0, 0))
	}
	return out
}

// Migrations returns how many API-server migrations the monitor performed.
func (s *Session) Migrations() int { return s.gs.Migrations() }

// CacheStats summarizes the model cache's activity so far. Zero-valued
// when the deployment runs without a cache.
type CacheStats struct {
	GPUHits    int // sessions that adopted a GPU-resident working set
	HostHits   int // sessions that restaged the working set from host memory
	Misses     int // sessions that loaded their model from scratch
	Evictions  int // GPU-resident working sets demoted to the host tier
	HitRate    float64
	GPUHitRate float64
}

// CacheStats reports the model cache's counters, all zero without a cache.
func (s *Session) CacheStats() CacheStats {
	c := s.gs.Cache()
	if c == nil {
		return CacheStats{}
	}
	st := c.Stats()
	return CacheStats{
		GPUHits:    st.DeviceHits,
		HostHits:   st.HostHits,
		Misses:     st.Misses,
		Evictions:  st.DeviceEvictions,
		HitRate:    st.HitRate(),
		GPUHitRate: st.DeviceHitRate(),
	}
}

// Summary aggregates all finished invocations by workload name.
func (s *Session) Summary() map[string]Aggregate {
	out := map[string]Aggregate{}
	for name, fs := range s.backend.PerFunction() {
		out[name] = Aggregate{
			Count:     fs.Count,
			MeanE2E:   fs.MeanE2E(),
			MeanQueue: fs.MeanQueue(),
			MeanExec:  fs.MeanExec(),
		}
	}
	return out
}

// Aggregate summarizes repeated invocations of one workload.
type Aggregate struct {
	Count     int
	MeanE2E   time.Duration
	MeanQueue time.Duration
	MeanExec  time.Duration
}
