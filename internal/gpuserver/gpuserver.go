// Package gpuserver implements a DGSF GPU server: a disaggregated machine
// holding physical GPUs whose only job is to run API servers for remote
// serverless functions (§IV, §V-A).
//
// The package follows the paper's structure:
//
//   - the manager bootstraps the machine: it probes the devices, creates
//     and pre-warms the API servers, announces readiness, then idles;
//   - the monitor owns all runtime decisions: it assigns incoming function
//     GPU requests to API servers (FCFS, with best-fit / worst-fit /
//     first-fit placement over GPU memory), tracks per-server and per-GPU
//     state, and fixes load imbalance by migrating API servers between GPUs;
//   - API servers (internal/apiserver) execute the remoted calls.
package gpuserver

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"dgsf/internal/apiserver"
	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/dataplane"
	"dgsf/internal/gpu"
	"dgsf/internal/modelcache"
	"dgsf/internal/remoting"
	"dgsf/internal/sim"
)

// Policy selects how the monitor places functions onto GPUs.
type Policy int

// Placement policies (§VIII-E): best-fit condenses functions onto as few
// GPUs as possible; worst-fit spreads them. PolicyLocality composes with
// best-fit: it first prefers an idle API server already holding the
// function's model in the GPU-resident cache (internal/modelcache) and
// falls back to best-fit when no such server fits — warm-host and cold
// placements are then whatever best-fit picks.
const (
	FirstFit Policy = iota
	BestFit
	WorstFit
	PolicyLocality
)

func (p Policy) String() string {
	switch p {
	case BestFit:
		return "best-fit"
	case WorstFit:
		return "worst-fit"
	case PolicyLocality:
		return "locality"
	default:
		return "first-fit"
	}
}

// QueuePolicy selects how the monitor orders waiting GPU requests.
type QueuePolicy int

// Queue policies. The paper's prototype enforces FCFS and explicitly leaves
// "policies like shortest-function-first, which could improve throughput at
// some loss of fairness" as future work (§VIII-D); SJF implements that
// future work using the duration hints the serverless backend learns from
// past invocations.
const (
	FCFS QueuePolicy = iota
	SJF
)

func (q QueuePolicy) String() string {
	if q == SJF {
		return "sjf"
	}
	return "fcfs"
}

// Config parameterizes a GPU server.
type Config struct {
	GPUs          int // number of physical GPUs
	GPUConfig     func(int) gpu.Config
	ServersPerGPU int // API servers homed per GPU; 1 disables sharing
	Policy        Policy
	Queue         QueuePolicy // FCFS (paper default) or SJF (future work)
	PoolHandles   bool        // pre-initialize runtimes and handle pools
	CUDACosts     cuda.Costs
	LibCosts      cudalibs.Costs

	// Migration policy (§V-D). When enabled, the monitor moves an API
	// server from a GPU running two or more functions to an idle GPU once
	// the imbalance has persisted for MinImbalanceTicks monitor periods
	// (transient idleness — e.g. a function still downloading its inputs —
	// must not trigger a move).
	EnableMigration   bool
	MinImbalanceTicks int // default 5

	// Cache configures the model cache (internal/modelcache). Disabled by
	// default: with Cache.Enable false the GPU server behaves exactly as it
	// did before the subsystem existed.
	Cache modelcache.Config

	// Plane, when non-nil, is this machine's view of the GPU-side data
	// plane (internal/dataplane): create a cluster Fabric, then hand each
	// GPU server a Fabric.NewPlane. Every API server on the machine shares
	// it, which is what makes same-server tensor handoff zero-copy. Nil
	// disables the data plane; the new remoted calls then fail cleanly and
	// chains bounce through the host as before.
	Plane *dataplane.Plane

	// Failure detection (fault-tolerance layer). HeartbeatPeriod > 0 makes
	// the monitor probe every API server through its FIFO inbox; a probe
	// unanswered within one period is a miss, and heartbeatMisses consecutive
	// misses declare the server dead — its lease is force-released, its
	// placement slot leaves the rotation, and the server is fenced (crashed)
	// so a slow-but-alive process cannot resurface with stale state. Zero
	// disables detection, preserving pre-fault-tolerance behavior exactly.
	HeartbeatPeriod time.Duration

	// QueueDeadline > 0 sheds GPU requests that have waited longer than this
	// at the next monitor tick, failing them with ErrCapacity instead of
	// letting them queue forever on a degraded server.
	QueueDeadline time.Duration
}

// Fixed periods and thresholds: nothing ever set them to anything else.
const (
	monitorPeriod   = 200 * time.Millisecond // statistics/migration tick
	samplePeriod    = 200 * time.Millisecond // NVML-style utilization sampling
	heartbeatMisses = 3                      // consecutive missed probes that declare an API server dead
)

// ErrCapacity is the typed error for GPU requests the server cannot satisfy:
// never-placeable memory demands, requests shed past the queue deadline, and
// requests arriving after the machine failed. Callers (the serverless
// backend) treat it as "route elsewhere or fail fast", never "retry here".
var ErrCapacity = errors.New("gpuserver: capacity exhausted")

// ErrCapacity must survive the generated stubs' status encoding: remote
// callers shed by a GPU server route on errors.Is(err, ErrCapacity).
func init() { cuda.RegisterWireSentinel(9020, ErrCapacity) }

// ErrNotLeased is the typed error for lease-lifecycle misuse: releasing a
// nil lease (an Acquire that failed), releasing twice, or releasing a lease
// the monitor already revoked when its server died.
var ErrNotLeased = errors.New("gpuserver: not leased")

// DefaultConfig mirrors the paper's testbed: one p3.8xlarge GPU server with
// four V100s, one API server per GPU, no sharing, best fit.
func DefaultConfig() Config {
	return Config{
		GPUs:          4,
		GPUConfig:     gpu.V100Config,
		ServersPerGPU: 1,
		Policy:        BestFit,
		PoolHandles:   true,
		CUDACosts:     cuda.DefaultCosts(),
		LibCosts:      cudalibs.DefaultCosts(),
	}
}

// Lease is a granted GPU assignment for one function execution.
type Lease struct {
	Server     *apiserver.Server
	FnID       string
	Mem        int64
	QueueDelay time.Duration // time spent waiting for an API server
	grantedAt  time.Duration
	released   bool // set by Release or by the monitor revoking a dead server
	listener   *remoting.Listener
}

// Listener returns the remoting endpoint of the leased API server.
func (l *Lease) Listener() *remoting.Listener { return l.listener }

// acquireReq is a pending GPU request in the monitor's queue.
type acquireReq struct {
	fnID    string
	mem     int64
	hint    time.Duration // expected GPU time (0 = unknown); used by SJF
	reply   *sim.Queue[acquireResult]
	arrived time.Duration
}

// acquireResult is the monitor's answer to an acquire: a lease, or a typed
// error explaining why none will ever come.
type acquireResult struct {
	lease *Lease
	err   error
}

// PlacementRecord logs one grant, for experiments and tests.
type PlacementRecord struct {
	FnID       string
	Mem        int64
	GPU        int
	Server     int
	QueueDelay time.Duration
}

// GPUServer is one disaggregated GPU machine.
type GPUServer struct {
	cfg  Config
	e    *sim.Engine
	devs []*gpu.Device

	servers []*apiserver.Server
	// listeners[i] is servers[i]'s remoting endpoint, one for all its leases:
	// the reply queues a lease's connections leave behind serve the next.
	listeners []*remoting.Listener
	samplers  []*gpu.Sampler
	cache     *modelcache.Manager // nil when the model cache is disabled

	// Monitor state.
	requests *sim.Queue[monitorMsg]
	waiting  []*acquireReq  // emptied in place: it keeps its capacity
	leased   map[int]*Lease // server ID -> active lease
	baseline []int64        // device bytes in use after pre-warm
	dead     map[int]bool   // server ID -> declared dead (out of rotation)
	failed   bool           // whole-machine failure injected

	placements     []PlacementRecord
	migrations     int
	migCooldown    time.Duration
	imbalanceTicks int
}

// monitorMsg is the monitor's mailbox item: an acquire, a release, a tick,
// a death report from a heartbeat prober, or a whole-machine failure.
type monitorMsg struct {
	acquire *acquireReq
	release *Lease
	tick    bool
	dead    *int // server ID declared dead by its heartbeat
	failAll bool // the whole GPU server machine failed
}

// New builds a GPU server. Call Start from a simulated process to boot it.
func New(e *sim.Engine, cfg Config) *GPUServer {
	if cfg.GPUConfig == nil {
		cfg.GPUConfig = gpu.V100Config
	}
	if cfg.ServersPerGPU <= 0 {
		cfg.ServersPerGPU = 1
	}
	if cfg.MinImbalanceTicks <= 0 {
		cfg.MinImbalanceTicks = 5
	}
	gs := &GPUServer{
		cfg:      cfg,
		e:        e,
		requests: sim.NewQueue[monitorMsg](e),
		leased:   make(map[int]*Lease),
		baseline: make([]int64, cfg.GPUs),
		dead:     make(map[int]bool),
	}
	if cfg.Cache.Enable {
		gs.cache = modelcache.NewManager(cfg.Cache)
	}
	for i := 0; i < cfg.GPUs; i++ {
		gs.devs = append(gs.devs, gpu.New(e, cfg.GPUConfig(i)))
	}
	return gs
}

// Devices exposes the physical GPUs (for experiments and samplers).
func (gs *GPUServer) Devices() []*gpu.Device { return gs.devs }

// Servers exposes the API servers.
func (gs *GPUServer) Servers() []*apiserver.Server { return gs.servers }

// Samplers exposes the per-GPU utilization samplers.
func (gs *GPUServer) Samplers() []*gpu.Sampler { return gs.samplers }

// Placements returns the grant log.
func (gs *GPUServer) Placements() []PlacementRecord { return gs.placements }

// Migrations returns how many API server migrations the monitor initiated.
func (gs *GPUServer) Migrations() int { return gs.migrations }

// Cache returns the model cache, or nil when disabled.
func (gs *GPUServer) Cache() *modelcache.Manager { return gs.cache }

// Start boots the GPU server: the manager creates and pre-warms API servers
// (in parallel, as a fleet bring-up would), then hands control to the
// monitor and the utilization samplers. Start returns when the server is
// ready to accept functions.
func (gs *GPUServer) Start(p *sim.Proc) {
	// Manager phase.
	id := 0
	wg := sim.NewWaitGroup(gs.e)
	for g := 0; g < gs.cfg.GPUs; g++ {
		for k := 0; k < gs.cfg.ServersPerGPU; k++ {
			rt := cuda.NewRuntime(gs.e, gs.devs, gs.cfg.CUDACosts)
			srv := apiserver.NewServer(gs.e, rt, apiserver.Config{
				ID:          id,
				HomeDev:     g,
				PoolHandles: gs.cfg.PoolHandles,
				CUDACosts:   gs.cfg.CUDACosts,
				LibCosts:    gs.cfg.LibCosts,
				Cache:       gs.cache,
				Plane:       gs.cfg.Plane,
			})
			gs.servers = append(gs.servers, srv)
			gs.listeners = append(gs.listeners, &remoting.Listener{Incoming: srv.Inbox})
			id++
			if gs.cfg.PoolHandles {
				wg.Add(1)
				s := srv
				p.Spawn(fmt.Sprintf("prewarm-%d", s.ID()), func(p *sim.Proc) {
					if err := s.Prewarm(p); err != nil {
						panic(err)
					}
					wg.Done()
				})
			}
		}
	}
	wg.Wait(p)
	for _, srv := range gs.servers {
		p.SpawnDaemon(fmt.Sprintf("apiserver-%d", srv.ID()), srv.Run)
	}
	for i, d := range gs.devs {
		gs.baseline[i] = d.UsedBytes()
		s := gpu.NewSampler(d, samplePeriod)
		gs.samplers = append(gs.samplers, s)
		s.Start(gs.e)
	}
	// Monitor phase: the manager "idles until shut down, passing all
	// responsibilities to the monitor".
	p.SpawnDaemon("monitor", gs.monitor)
	var tick func()
	tick = func() {
		gs.requests.Send(monitorMsg{tick: true})
		gs.e.At(gs.e.Now()+monitorPeriod, tick)
	}
	gs.e.At(p.Now()+monitorPeriod, tick)
	if gs.cfg.HeartbeatPeriod > 0 {
		for i := range gs.servers {
			sid := i
			p.SpawnDaemon(fmt.Sprintf("heartbeat-%d", sid), func(p *sim.Proc) {
				gs.heartbeat(p, sid)
			})
		}
	}
}

// heartbeat probes one API server through its inbox. A ping unanswered
// within one period is a miss; heartbeatMisses consecutive misses (or a
// definitively closed inbox) report the server dead to the monitor, and the
// prober exits. The miss threshold tolerates servers busy in a long API
// call — the inbox is FIFO, so a ping behind a long kernel answers late,
// not never.
func (gs *GPUServer) heartbeat(p *sim.Proc, sid int) {
	srv := gs.servers[sid]
	misses := 0
	for {
		p.Sleep(gs.cfg.HeartbeatPeriod)
		if gs.dead[sid] || gs.failed {
			return
		}
		done := sim.NewQueue[struct{}](gs.e)
		if !srv.Inbox.TrySend(remoting.Request{Ctrl: apiserver.PingRequest{Done: done}}) {
			gs.requests.Send(monitorMsg{dead: &sid})
			return
		}
		if _, ok, timedOut := done.RecvTimeout(p, gs.cfg.HeartbeatPeriod); !ok || timedOut {
			misses++
			if misses >= heartbeatMisses {
				gs.requests.Send(monitorMsg{dead: &sid})
				return
			}
		} else {
			misses = 0
		}
	}
}

// Capacity returns the number of functions the server can run concurrently,
// the figure the manager announces to the serverless backend. Dead API
// servers leave the rotation.
func (gs *GPUServer) Capacity() int {
	n := 0
	for _, srv := range gs.servers {
		if !gs.dead[srv.ID()] {
			n++
		}
	}
	return n
}

// Healthy reports whether the machine can still grant leases: it has not
// suffered a whole-server failure and at least one API server is alive. The
// serverless backend routes around unhealthy GPU servers.
func (gs *GPUServer) Healthy() bool { return !gs.failed && gs.Capacity() > 0 }

// Fail injects a whole-GPU-server failure: every API server crashes, all
// leases are revoked, waiting requests fail with ErrCapacity, and the
// machine reports unhealthy forever after. The fault framework calls this;
// there is no recovery for the machine itself, only around it. Idempotent:
// a second Fail (machine flap, or two fault paths reporting one death) is a
// no-op — in particular the plane must not re-strand its exports.
func (gs *GPUServer) Fail() {
	if gs.failed {
		return
	}
	gs.failed = true // flip eagerly so routing reacts before the monitor drains
	if gs.cfg.Plane != nil {
		// The machine's device memory is gone: exports published here become
		// unreachable and broadcast sources vanish, so data-plane consumers
		// get prompt errors (and fall back to the bounce path) instead of
		// copying from a dead GPU.
		gs.cfg.Plane.Fail()
	}
	gs.requests.Send(monitorMsg{failAll: true})
}

// Acquire requests an API server for a function needing mem bytes of GPU
// memory, blocking until one is granted per the queue policy. A nil lease
// comes with a typed error: ErrCapacity when the request can never be
// satisfied here (too large, machine failed, or shed past the queue
// deadline).
func (gs *GPUServer) Acquire(p *sim.Proc, fnID string, mem int64) (*Lease, error) {
	return gs.AcquireHint(p, fnID, mem, 0)
}

// AcquireHint is Acquire with an expected-GPU-time hint for SJF scheduling.
func (gs *GPUServer) AcquireHint(p *sim.Proc, fnID string, mem int64, hint time.Duration) (*Lease, error) {
	reply := sim.NewQueue[acquireResult](gs.e)
	gs.requests.Send(monitorMsg{acquire: &acquireReq{fnID: fnID, mem: mem, hint: hint, reply: reply, arrived: p.Now()}})
	res, ok := reply.Recv(p)
	if !ok {
		return nil, fmt.Errorf("%w: GPU server shut down", ErrCapacity)
	}
	return res.lease, res.err
}

// Load reports the server's current occupancy: active leases and queued
// requests. The serverless backend's least-loaded GPU-server selection
// policy reads this (§IV: "choosing the least loaded GPU server").
func (gs *GPUServer) Load() (active, queued int) {
	return len(gs.leased), len(gs.waiting)
}

// Release returns a leased API server to the pool. It rejects lifecycle
// misuse with ErrNotLeased: a nil lease (the matching Acquire failed), a
// double release, or a lease the monitor already revoked because its server
// died. Before this guard existed, such calls silently corrupted the
// monitor's active count and per-GPU memory commitments.
func (gs *GPUServer) Release(lease *Lease) error {
	if lease == nil {
		return fmt.Errorf("%w: nil lease (was the Acquire refused?)", ErrNotLeased)
	}
	if lease.released {
		return fmt.Errorf("%w: server %d lease already released", ErrNotLeased, lease.Server.ID())
	}
	lease.released = true
	gs.requests.Send(monitorMsg{release: lease})
	return nil
}

// monitor is the GPU server's brain: it grants requests in arrival order,
// updates statistics, and triggers migrations.
func (gs *GPUServer) monitor(p *sim.Proc) {
	for {
		msg, ok := gs.requests.Recv(p)
		if !ok {
			return
		}
		switch {
		case msg.acquire != nil:
			if gs.failed || gs.Capacity() == 0 {
				msg.acquire.reply.TrySend(acquireResult{err: fmt.Errorf("%w: no live API servers", ErrCapacity)})
				break
			}
			if msg.acquire.mem > gs.maxPlaceable() {
				// The request can never be satisfied on this GPU server
				// (e.g. a 14 GB function on GPUs whose idle API servers
				// already hold too much); fail it instead of queueing it
				// forever.
				msg.acquire.reply.TrySend(acquireResult{err: fmt.Errorf("%w: request of %d bytes exceeds any live GPU's capacity", ErrCapacity, msg.acquire.mem)})
				break
			}
			gs.waiting = append(gs.waiting, msg.acquire)
		case msg.release != nil:
			gs.releaseLocked(msg.release)
		case msg.dead != nil:
			gs.markDead(*msg.dead)
		case msg.failAll:
			gs.failed = true
			for _, srv := range gs.servers {
				gs.markDead(srv.ID())
			}
			for _, req := range gs.waiting {
				req.reply.TrySend(acquireResult{err: fmt.Errorf("%w: GPU server failed", ErrCapacity)})
			}
			clear(gs.waiting)
			gs.waiting = gs.waiting[:0]
		case msg.tick:
			gs.shedExpired(p)
			if gs.cfg.EnableMigration {
				gs.maybeMigrate(p)
			}
		}
		gs.drainQueue(p)
	}
}

// markDead takes one API server out of rotation: the server is fenced
// (crashed, so a slow-but-alive process cannot resurface with stale state),
// its active lease — if any — is revoked, which ends its memory commitment.
// The holder of a revoked lease discovers the death through its broken
// connection; a later Release of it reports ErrNotLeased.
func (gs *GPUServer) markDead(sid int) {
	if gs.dead[sid] {
		return
	}
	gs.dead[sid] = true
	srv := gs.servers[sid]
	if !srv.Crashed() {
		srv.Crash()
	}
	if lease, ok := gs.leased[sid]; ok {
		lease.released = true
		delete(gs.leased, sid)
	}
}

// shedExpired fails waiting requests older than the queue deadline with
// ErrCapacity — graceful degradation instead of unbounded queueing when the
// rotation has shrunk.
func (gs *GPUServer) shedExpired(p *sim.Proc) {
	if gs.cfg.QueueDeadline <= 0 {
		return
	}
	kept := gs.waiting[:0]
	for _, req := range gs.waiting {
		if p.Now()-req.arrived > gs.cfg.QueueDeadline {
			req.reply.TrySend(acquireResult{err: fmt.Errorf("%w: queued longer than %v", ErrCapacity, gs.cfg.QueueDeadline)})
			continue
		}
		kept = append(kept, req)
	}
	clear(gs.waiting[len(kept):])
	gs.waiting = kept
}

// drainQueue grants as many waiting requests as the queue policy allows.
// Under FCFS (the paper's policy, §VIII-D), only the head may be granted —
// a large function at the head forces later small ones to wait. Under SJF
// the shortest-hinted placeable request is granted, trading fairness for
// throughput.
func (gs *GPUServer) drainQueue(p *sim.Proc) {
	for len(gs.waiting) > 0 {
		var srv *apiserver.Server
		var req *acquireReq
		if gs.cfg.Queue == SJF {
			srv, req = gs.placeAnySJF()
		} else {
			req = gs.waiting[0]
			srv = gs.place(req.fnID, req.mem)
			if srv == nil && gs.cache != nil {
				srv = gs.reclaimAndPlace(p, req)
			}
			if srv != nil {
				gs.waiting = slices.Delete(gs.waiting, 0, 1)
			}
		}
		if srv == nil {
			return
		}
		lease := &Lease{
			Server:     srv,
			FnID:       req.fnID,
			Mem:        req.mem,
			QueueDelay: p.Now() - req.arrived,
			grantedAt:  p.Now(),
			listener:   gs.listeners[srv.ID()],
		}
		gs.leased[srv.ID()] = lease
		gs.placements = append(gs.placements, PlacementRecord{
			FnID:       req.fnID,
			Mem:        req.mem,
			GPU:        srv.HomeDev(),
			Server:     srv.ID(),
			QueueDelay: lease.QueueDelay,
		})
		req.reply.TrySend(acquireResult{lease: lease})
	}
}

// maxPlaceable returns the largest memory request any GPU still hosting a
// live API server could ever grant.
func (gs *GPUServer) maxPlaceable() int64 {
	var max int64
	for g := range gs.devs {
		live := false
		for _, srv := range gs.servers {
			if srv.HomeDev() == g && !gs.dead[srv.ID()] {
				live = true
				break
			}
		}
		if !live {
			continue
		}
		if free := gs.devs[g].Cfg.MemBytes - gs.baseline[g]; free > max {
			max = free
		}
	}
	return max
}

// placeAnySJF scans the waiting queue in ascending hint order and grants
// the first request that fits anywhere, removing it from the queue.
func (gs *GPUServer) placeAnySJF() (*apiserver.Server, *acquireReq) {
	order := make([]int, len(gs.waiting))
	for i := range order {
		order[i] = i
	}
	// Selection sort by hint: the queue is short and determinism matters.
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if gs.waiting[order[j]].hint < gs.waiting[order[i]].hint {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	for _, idx := range order {
		req := gs.waiting[idx]
		if srv := gs.place(req.fnID, req.mem); srv != nil {
			gs.waiting = slices.Delete(gs.waiting, idx, idx+1)
			return srv, req
		}
	}
	return nil, nil
}

// place picks an idle API server whose home GPU fits mem, per policy.
// GPU-resident cached models (model cache pins) count as used memory on
// their GPU — except the candidate server's own pin when it belongs to
// fnID, because ModelAttach adopts that allocation into the new session
// rather than duplicating it.
func (gs *GPUServer) place(fnID string, mem int64) *apiserver.Server {
	type cand struct {
		srv   *apiserver.Server
		free  int64
		local bool
	}
	var best *cand
	for _, srv := range gs.servers {
		// Out of rotation: heartbeat-declared dead, or already observed as a
		// crashed process. The monitor parents the API server processes, so
		// an exit is visible immediately — heartbeats exist for the
		// hung-but-alive case, not to delay reusing an obvious corpse.
		if gs.dead[srv.ID()] || srv.Crashed() {
			continue
		}
		if _, busy := gs.leased[srv.ID()]; busy {
			continue
		}
		g := srv.HomeDev()
		free := gs.devs[g].Cfg.MemBytes - gs.baseline[g] - gs.committed(g)
		local := false
		if gs.cache != nil {
			free -= gs.cache.PinnedBytes(g)
			if pinFn, pinBytes, ok := gs.cache.PinnedFn(srv.ID()); ok && pinFn == fnID {
				free += pinBytes
				local = true
			}
		}
		if free < mem {
			continue
		}
		c := &cand{srv: srv, free: free, local: local}
		if best == nil {
			best = c
			continue
		}
		switch gs.cfg.Policy {
		case BestFit:
			if c.free < best.free {
				best = c
			}
		case WorstFit:
			if c.free > best.free {
				best = c
			}
		case PolicyLocality:
			// Prefer a server already holding the model on-device; fall
			// back to best-fit among equals.
			switch {
			case c.local && !best.local:
				best = c
			case c.local == best.local && c.free < best.free:
				best = c
			}
		case FirstFit:
			// keep the first found
		}
	}
	if best == nil {
		return nil
	}
	return best.srv
}

// committed returns the memory declared by the functions now running on GPU
// g. A lease counts where its API server currently is, not where it is homed:
// a migrated session weighs on the GPU it moved to.
func (gs *GPUServer) committed(g int) int64 {
	var sum int64
	for _, srv := range gs.servers {
		if lease, ok := gs.leased[srv.ID()]; ok && srv.CurrentDev() == g {
			sum += lease.Mem
		}
	}
	return sum
}

// reclaimAndPlace frees GPU-resident cached models under memory pressure:
// the oldest pin on an idle server is demoted to the host tier (D2H at
// copy-engine bandwidth, performed by the API server itself), then
// placement is retried. It returns nil only once no reclaimable pin is
// left and the request still does not fit.
func (gs *GPUServer) reclaimAndPlace(p *sim.Proc, req *acquireReq) *apiserver.Server {
	skip := make(map[int]bool)
	for {
		sid, ok := gs.cache.OldestPin(func(id int) bool {
			_, busy := gs.leased[id]
			return !busy && !gs.dead[id] && !skip[id]
		})
		if !ok {
			return nil
		}
		done := sim.NewQueue[struct{}](gs.e)
		if !gs.servers[sid].Inbox.TrySend(remoting.Request{Ctrl: apiserver.EvictModelRequest{Done: done}}) {
			skip[sid] = true // crashed under us; its scavenge drops the pin
			continue
		}
		done.Recv(p)
		if srv := gs.place(req.fnID, req.mem); srv != nil {
			return srv
		}
	}
}

// releaseLocked returns a server to the pool.
func (gs *GPUServer) releaseLocked(lease *Lease) {
	id := lease.Server.ID()
	if cur, ok := gs.leased[id]; !ok || cur != lease {
		return // stale release
	}
	delete(gs.leased, id)
	// If the tenant's connection died before its Bye arrived, the session is
	// still open server-side and would refuse the next tenant's Hello. A
	// reset through the FIFO inbox scavenges it after any still-queued
	// one-way work from the dead guest and before the next Hello. TrySend:
	// a crashed server's inbox is closed, and its run loop scavenges anyway.
	lease.Server.Inbox.TrySend(remoting.Request{Ctrl: apiserver.ResetRequest{}})
}

// maybeMigrate fixes GPU load imbalance: if one GPU runs two or more
// functions while another sits idle, move one of them (§V-D, §VIII-E).
func (gs *GPUServer) maybeMigrate(p *sim.Proc) {
	if p.Now() < gs.migCooldown {
		return
	}
	// Leases in API-server-ID order: the victim below breaks ties by position,
	// so the order must be a function of the seed, not of the map.
	busyPerGPU := make([]int, gs.cfg.GPUs)
	var active []*Lease
	for _, srv := range gs.servers {
		if lease, ok := gs.leased[srv.ID()]; ok {
			busyPerGPU[srv.CurrentDev()]++
			active = append(active, lease)
		}
	}
	// Find the most contended and a fully idle GPU.
	src, dst := -1, -1
	for g := 0; g < gs.cfg.GPUs; g++ {
		if busyPerGPU[g] >= 2 && (src == -1 || busyPerGPU[g] > busyPerGPU[src]) {
			src = g
		}
		if busyPerGPU[g] == 0 && dst == -1 {
			dst = g
		}
	}
	if src == -1 || dst == -1 {
		gs.imbalanceTicks = 0
		return
	}
	// Require the imbalance to persist before acting.
	gs.imbalanceTicks++
	if gs.imbalanceTicks < gs.cfg.MinImbalanceTicks {
		return
	}
	// Pick a movable lease on src whose session memory fits dst.
	var pick *Lease
	for _, lease := range active {
		if lease.Server.CurrentDev() != src {
			continue
		}
		need := lease.Mem
		if free := gs.devs[dst].Cfg.MemBytes - gs.devs[dst].UsedBytes(); free < need+gs.cfg.CUDACosts.CtxBytes {
			continue
		}
		if pick == nil || lease.Server.Stats().SessionMem < pick.Server.Stats().SessionMem {
			pick = lease // prefer the cheapest move
		}
	}
	if pick == nil {
		return
	}
	gs.migrations++
	gs.imbalanceTicks = 0
	gs.migCooldown = p.Now() + 2*monitorPeriod
	// TrySend: the picked server may have crashed since the last heartbeat.
	pick.Server.Inbox.TrySend(remoting.Request{Ctrl: apiserver.MigrateRequest{TargetDev: dst}})
}
