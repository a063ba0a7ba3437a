// Package faas implements the serverless backend side of the DGSF
// deployment: function submission, warm execution environments, GPU-server
// selection, and per-invocation bookkeeping (queueing and end-to-end
// latency), plus the arrival processes the evaluation uses (fixed-interval,
// exponential, bursts).
//
// Per the paper's scope (§IV), general function management — container
// creation, cold starts — is factored out: every invocation runs in a warm
// environment, and the measured quantities are download time, GPU queueing
// delay at the GPU server, and GPU execution time.
package faas

import (
	"errors"
	"fmt"
	"time"

	"dgsf/internal/gpuserver"
	"dgsf/internal/guest"
	"dgsf/internal/modelcache"
	"dgsf/internal/objstore"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
)

// ErrNoCapacity reports a GPU memory requirement no GPU server can satisfy.
var ErrNoCapacity = errors.New("faas: no GPU server can satisfy the function's GPU memory requirement")

// Env is an execution-environment profile: how fast this environment
// downloads from the object store and what its network to the GPU server
// looks like.
type Env struct {
	Name     string
	Download objstore.Env        // path from S3 to the function container
	Net      remoting.NetProfile // path from the container to the GPU server
	GuestOpt guest.Opt
}

// OpenFaaSEnv models the paper's primary deployment: OpenFaaS on an EC2
// instance co-located with the GPU server.
func OpenFaaSEnv() Env {
	return Env{
		Name:     "openfaas",
		Download: objstore.Env{Bps: 280e6, Latency: 30 * time.Millisecond, JitterFrac: 0.05},
		Net:      remoting.OpenFaaSNet(),
		GuestOpt: guest.OptAll,
	}
}

// LambdaEnv models the AWS Lambda deployment: lower bandwidth, larger
// variance (§VIII-B).
func LambdaEnv() Env {
	return Env{
		Name:     "lambda",
		Download: objstore.Env{Bps: 45e6, Latency: 60 * time.Millisecond, JitterFrac: 0.30},
		Net:      remoting.LambdaNet(),
		GuestOpt: guest.OptAll,
	}
}

// Function is a deployed serverless function.
type Function struct {
	Name          string
	GPUMem        int64 // declared GPU memory requirement (§II)
	DownloadBytes int64 // models + inputs fetched before GPU work
	// ModelDLBytes is the model portion of DownloadBytes — the immutable
	// part a model cache may serve from the GPU server's host memory
	// instead of the object store. Zero means nothing is cacheable and the
	// whole download always goes to the store.
	ModelDLBytes int64
	// Run executes the function's GPU phase against an attached guest
	// library. The backend has already opened the session (Hello) and will
	// close it (Bye) afterwards.
	Run func(p *sim.Proc, api gen.API) error
}

// Invocation records one function execution.
type Invocation struct {
	Fn  *Function
	Seq int

	SubmittedAt  time.Duration
	DownloadDone time.Duration
	Granted      time.Duration
	Done         time.Duration
	QueueDelay   time.Duration
	ModelCached  bool // model bytes served from the GPU server's host cache
	Recoveries   int  // guest session recoveries during the GPU phase
	Redials      int  // redial attempts across those recoveries
	Replayed     int  // journal entries replayed across those recoveries
	Journaled    int  // journal entries recorded by the guest library
	Server       int  // index of the GPU server that ran it (-1: never placed)
	Err          error

	// pref is a placement preference, stored as server index + 1 so the
	// zero value means "no preference". Chained invocations use it to land
	// a consumer on (or off) its producer's GPU server.
	pref int
}

// E2E returns the invocation's end-to-end latency (launch to completion).
func (inv *Invocation) E2E() time.Duration { return inv.Done - inv.SubmittedAt }

// ServerPick selects a GPU server for a function when the deployment has
// several. The paper's prototype uses a fixed policy (§IV) and notes that a
// commercial deployment could choose "the least loaded GPU server to
// optimize latency or the opposite to increase utilization".
type ServerPick int

// GPU-server selection policies.
const (
	PickFixed ServerPick = iota // always the first server (paper's prototype)
	PickLeastLoaded
)

// Backend dispatches function invocations onto one or more GPU servers.
type Backend struct {
	executor
	servers []*gpuserver.GPUServer
	pick    ServerPick

	// Recovery, when set, runs guests in recoverable mode: per-call
	// deadlines, an idempotent replay journal, and redial onto a healthy GPU
	// server after a failure. The Redial field is supplied per invocation by
	// the backend.
	Recovery *guest.RecoveryConfig

	outstanding []int // backend-side in-flight count per server
}

// NewBackend returns a backend over one GPU server. The paper's prototype
// likewise "uses a fixed policy to choose, given a function requesting a
// GPU, which GPU server to use" (§IV).
func NewBackend(e *sim.Engine, gs *gpuserver.GPUServer, env Env) *Backend {
	return NewMultiBackend(e, []*gpuserver.GPUServer{gs}, PickFixed, env)
}

// NewMultiBackend returns a backend balancing over several GPU servers.
func NewMultiBackend(e *sim.Engine, servers []*gpuserver.GPUServer, pick ServerPick, env Env) *Backend {
	if len(servers) == 0 {
		panic("faas: backend needs at least one GPU server")
	}
	return &Backend{
		executor:    newExecutor(e, env),
		servers:     servers,
		pick:        pick,
		outstanding: make([]int, len(servers)),
	}
}

// cacheAware reports whether any GPU server runs a model cache; only then
// does the backend split downloads and route on model locality.
func (b *Backend) cacheAware() bool {
	for _, gs := range b.servers {
		if gs.Cache() != nil {
			return true
		}
	}
	return false
}

// selectServer applies the GPU-server selection policy, returning the
// chosen server's index. The backend keeps its own in-flight counters so
// that simultaneous selections do not herd onto one server before the GPU
// servers' monitors observe the load.
func (b *Backend) selectServer() int {
	si := 0
	if b.pick == PickLeastLoaded {
		bestLoad := b.load(0)
		for i := 1; i < len(b.servers); i++ {
			if l := b.load(i); l < bestLoad {
				si, bestLoad = i, l
			}
		}
	}
	// Degraded-mode routing: never hand new work to a GPU server that can no
	// longer grant leases while a healthy one exists.
	if !b.servers[si].Healthy() {
		if h := b.selectHealthy(); h >= 0 {
			return h
		}
	}
	return si
}

// selectServerFor routes an invocation toward a GPU server already holding
// the function's model — a GPU-resident or host-staged working set, or a
// host-cached model download — least loaded among the holders. With no
// holder it falls back to the configured selection policy.
func (b *Backend) selectServerFor(fn *Function) int {
	obj := b.modelObject(fn)
	best, bestLoad := -1, 0
	for i, gs := range b.servers {
		c := gs.Cache()
		if !gs.Healthy() || c == nil || (!c.HasModel(fn.Name) && !c.Host().PeekName(obj)) {
			continue
		}
		if l := b.load(i); best < 0 || l < bestLoad {
			best, bestLoad = i, l
		}
	}
	if best >= 0 {
		return best
	}
	return b.selectServer()
}

// load scores a server: monitor-visible occupancy plus the backend's own
// not-yet-visible dispatches; queued work weighs double — it is all delay.
func (b *Backend) load(i int) int {
	active, queued := b.servers[i].Load()
	return active + 2*queued + b.outstanding[i]
}

// Submit launches one invocation asynchronously and returns its record.
func (b *Backend) Submit(p *sim.Proc, fn *Function) *Invocation {
	inv := b.newInvocation(p, fn)
	b.inflight.Add(1)
	p.Spawn(fmt.Sprintf("fn-%s-%d", fn.Name, inv.Seq), func(p *sim.Proc) {
		defer b.inflight.Done()
		b.execute(p, inv)
	})
	return inv
}

// Invoke runs one invocation synchronously on the calling proc and returns
// its completed record. Chained pipelines use it: the consumer must not be
// dispatched until the producer's tensor handoff exists.
func (b *Backend) Invoke(p *sim.Proc, fn *Function) *Invocation {
	return b.InvokeOn(p, fn, -1)
}

// InvokeOn is Invoke with a placement preference: the invocation lands on
// GPU server index server when it is healthy, falling back to the normal
// selection policy otherwise. Pass -1 for no preference.
func (b *Backend) InvokeOn(p *sim.Proc, fn *Function, server int) *Invocation {
	inv := b.newInvocation(p, fn)
	if server >= 0 && server < len(b.servers) {
		inv.pref = server + 1
	}
	b.execute(p, inv)
	return inv
}

// execute runs one invocation: download, acquire a GPU, run, release.
func (b *Backend) execute(p *sim.Proc, inv *Invocation) {
	fn := inv.Fn
	cacheAware := fn.ModelDLBytes > 0 && fn.ModelDLBytes <= fn.DownloadBytes && b.cacheAware()

	// With a model cache the server choice determines which host cache can
	// serve the model bytes, so routing happens before the download. An
	// explicit placement preference (chained invocations consuming a tensor
	// produced on a particular server) overrides both routing paths.
	si := -1
	if pi := inv.pref - 1; pi >= 0 && b.servers[pi].Healthy() {
		si = pi
		b.outstanding[si]++
	} else if cacheAware {
		si = b.selectServerFor(fn)
		b.outstanding[si]++
	}

	// Phase 1: fetch models and inputs from the object store. This happens
	// before the GPU is requested, which is why slow-downloading functions
	// reach the GPU later (§VIII-E). A cache-aware download splits off the
	// model blob, which the chosen GPU server may already stage on its host.
	var host *modelcache.LRU
	if cacheAware {
		host = hostCache(b.servers[si])
	}
	b.download(p, inv, cacheAware, host)

	// Phase 2: request a virtual GPU from the serverless backend's chosen
	// GPU server; queueing happens inside its monitor. The expected-GPU-time
	// hint comes from the backend's history of this function (for SJF).
	if si < 0 {
		si = b.selectServer()
		b.outstanding[si]++
	}
	gs := b.servers[si]
	lease, aerr := gs.AcquireHint(p, fn.Name, fn.GPUMem, b.history[fn.Name])
	if aerr != nil {
		// Degraded-mode routing: a refusal usually means the chosen GPU
		// server failed between selection and acquire (or shed the request).
		// Route around the dead capacity onto another healthy server before
		// giving up on the invocation.
		if nsi := b.selectHealthyExcept(si); nsi >= 0 {
			b.outstanding[si]--
			b.outstanding[nsi]++
			si, gs = nsi, b.servers[nsi]
			lease, aerr = gs.AcquireHint(p, fn.Name, fn.GPUMem, b.history[fn.Name])
		}
	}
	if aerr != nil {
		// No GPU server can (currently) satisfy this request: impossible
		// memory requirement, every API server dead, or deadline shedding.
		b.outstanding[si]--
		inv.Server = si
		inv.Err = fmt.Errorf("%w: %v", ErrNoCapacity, aerr)
		inv.Done = p.Now()
		return
	}
	inv.Granted = p.Now()
	inv.QueueDelay = lease.QueueDelay

	// Phase 3: attach the guest library and run the function body. With a
	// recovery policy the guest redials through the backend: the old lease is
	// dropped (the monitor usually revoked it already) and a fresh one is
	// acquired on a healthy GPU server.
	relocate := func(p *sim.Proc, old *gpuserver.GPUServer, lost *gpuserver.Lease) (*gpuserver.GPUServer, *gpuserver.Lease, error) {
		_ = old.Release(lost) // best effort; revoked leases error, which is fine
		nsi := b.selectHealthy()
		if nsi < 0 {
			return nil, nil, fmt.Errorf("%w: no healthy GPU server to recover onto", ErrNoCapacity)
		}
		nl, err := b.servers[nsi].AcquireHint(p, fn.Name, fn.GPUMem, b.history[fn.Name])
		if err != nil {
			return nil, nil, err
		}
		b.outstanding[si]--
		b.outstanding[nsi]++
		si = nsi
		return b.servers[nsi], nl, nil
	}
	err := b.runGuest(p, inv, gs, lease, b.Recovery, relocate)
	b.outstanding[si]--
	inv.Server = si
	inv.Err = err
	inv.Done = p.Now()
	if err == nil {
		b.recordExec(fn.Name, inv.Done-inv.Granted)
	}
}

// selectHealthy returns the least-loaded GPU server still able to grant
// leases, or -1 when none is.
func (b *Backend) selectHealthy() int { return b.selectHealthyExcept(-1) }

// selectHealthyExcept is selectHealthy skipping one server index (the one
// that just refused an acquire); pass -1 to consider all.
func (b *Backend) selectHealthyExcept(skip int) int {
	best, bestLoad := -1, 0
	for i, gs := range b.servers {
		if i == skip || !gs.Healthy() {
			continue
		}
		if l := b.load(i); best < 0 || l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// E2ESum returns the sum of all invocations' end-to-end times — the
// "Function E2E Sum" column of Tables III and IV.
func (b *Backend) E2ESum() time.Duration {
	var sum time.Duration
	for _, inv := range b.invocations {
		sum += inv.E2E()
	}
	return sum
}

// ProviderEndToEnd returns the provider-side makespan: first submission to
// last completion — the "End to end" column of Tables III and IV.
func (b *Backend) ProviderEndToEnd() time.Duration {
	if len(b.invocations) == 0 {
		return 0
	}
	first := b.invocations[0].SubmittedAt
	var last time.Duration
	for _, inv := range b.invocations {
		if inv.SubmittedAt < first {
			first = inv.SubmittedAt
		}
		if inv.Done > last {
			last = inv.Done
		}
	}
	return last - first
}

// PerFunction aggregates mean queue delay and mean E2E per function name.
func (b *Backend) PerFunction() map[string]FnSummary {
	acc := map[string]FnSummary{}
	for _, inv := range b.invocations {
		s := acc[inv.Fn.Name]
		s.Count++
		s.TotalQueue += inv.QueueDelay
		s.TotalE2E += inv.E2E()
		s.TotalExec += inv.Done - inv.Granted
		acc[inv.Fn.Name] = s
	}
	return acc
}

// FnSummary aggregates invocations of one function.
type FnSummary struct {
	Count      int
	TotalQueue time.Duration
	TotalE2E   time.Duration
	TotalExec  time.Duration
}

// MeanQueue returns the mean queueing delay.
func (s FnSummary) MeanQueue() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.TotalQueue / time.Duration(s.Count)
}

// MeanE2E returns the mean end-to-end latency.
func (s FnSummary) MeanE2E() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.TotalE2E / time.Duration(s.Count)
}

// MeanExec returns the mean post-grant execution time.
func (s FnSummary) MeanExec() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.TotalExec / time.Duration(s.Count)
}

// --- arrival processes (§VIII-D) ---

// Arrivals yields the delay before each successive submission.
type Arrivals func(i int) time.Duration

// FixedArrivals launches a function every d.
func FixedArrivals(d time.Duration) Arrivals {
	return func(int) time.Duration { return d }
}

// ExponentialArrivals draws inter-arrival gaps from an exponential
// distribution with the given mean, using the engine's deterministic RNG.
// The paper's "rate equal to 2" heavy load is a 2 s mean; "rate equal to 3"
// light load is a 3 s mean.
func ExponentialArrivals(p *sim.Proc, mean time.Duration) Arrivals {
	return func(int) time.Duration {
		return time.Duration(p.Rand().ExpFloat64() * float64(mean))
	}
}

// SubmitSequence submits fns in order, sleeping per the arrival process
// between submissions (the first submission happens immediately).
func (b *Backend) SubmitSequence(p *sim.Proc, fns []*Function, next Arrivals) []*Invocation {
	out := make([]*Invocation, 0, len(fns))
	for i, fn := range fns {
		if i > 0 {
			p.Sleep(next(i))
		}
		out = append(out, b.Submit(p, fn))
	}
	return out
}

// SubmitBursts submits the whole set of fns at once, repeated rounds times
// with gap between bursts (§VIII-D's burst experiment).
func (b *Backend) SubmitBursts(p *sim.Proc, fns []*Function, rounds int, gap time.Duration) {
	for r := 0; r < rounds; r++ {
		if r > 0 {
			p.Sleep(gap)
		}
		for _, fn := range fns {
			b.Submit(p, fn)
		}
	}
}
