package faas

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"dgsf/internal/controller"
	"dgsf/internal/gpuserver"
	"dgsf/internal/metrics"
	"dgsf/internal/sim"
	"dgsf/internal/store"
)

// ErrNoPlacement reports that a session exhausted its placement attempts.
var ErrNoPlacement = errors.New("faas: session exhausted its placement attempts")

// FleetConfig parameterizes the fleet backend.
type FleetConfig struct {
	Env Env
	// MaxAttempts bounds run attempts per session before it fails
	// terminally; 0 means 5.
	MaxAttempts int
	// RetryBackoff is the pause before a failed attempt hands the session
	// back to Pending, so the attempt budget outlives the window in which
	// the store still advertises a just-dead machine as healthy; 0 means
	// 100ms.
	RetryBackoff time.Duration
	// Registry receives the fleet's counters; nil means a private one.
	Registry *metrics.Registry
}

// FleetBackend is the cluster-scale serverless backend: where Backend holds
// direct pointers into every GPU server's monitor, FleetBackend routes all
// cross-component state through the cluster store. Submit records a Session
// object; the placement controller (a watch-driven reconciler) binds Pending
// sessions to healthy GPU servers using only stored state; the executor
// observes its session turning Placed and then drives the data plane —
// download, lease, guest calls — against the chosen machine. Machine health
// and capacity arrive via the GPU servers' agents, never by calling into
// the monitor.
type FleetBackend struct {
	executor
	st  store.Interface
	cfg FleetConfig

	// Data-plane handles: leases and guest connections still need the real
	// machine. Placement decisions never read these.
	servers map[string]*gpuserver.GPUServer

	waiters map[string]*sim.Queue[*store.Session]

	sessionsDone   *metrics.Counter
	sessionsFailed *metrics.Counter
	runRetries     *metrics.Counter
}

// NewFleet returns a fleet backend over the given store handle.
func NewFleet(e *sim.Engine, st store.Interface, cfg FleetConfig) *FleetBackend {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &FleetBackend{
		executor:       newExecutor(e, cfg.Env),
		st:             st,
		cfg:            cfg,
		servers:        make(map[string]*gpuserver.GPUServer),
		waiters:        make(map[string]*sim.Queue[*store.Session]),
		sessionsDone:   reg.Counter("fleet_sessions_done"),
		sessionsFailed: reg.Counter("fleet_sessions_failed"),
		runRetries:     reg.Counter("fleet_run_retries"),
	}
}

// AddServer registers a machine's data-plane handle under the name its agent
// publishes to the store.
func (b *FleetBackend) AddServer(name string, gs *gpuserver.GPUServer) {
	b.servers[name] = gs
}

// Run starts the session-event router: one watch over the Session keyspace
// whose events fan out to the per-session executor queues. Call it once
// before the first Submit.
func (b *FleetBackend) Run(p *sim.Proc) error {
	w, err := b.st.Watch(p, store.KindSession, 0)
	if err != nil {
		return err
	}
	p.SpawnDaemon("fleet-session-router", func(p *sim.Proc) {
		for {
			ev, ok := w.Events.Recv(p)
			if !ok {
				return
			}
			sess, ok := ev.Object.(*store.Session)
			if !ok {
				continue
			}
			if q, ok := b.waiters[sess.Meta().Name]; ok {
				q.TrySend(sess)
			}
		}
	})
	return nil
}

// Submit records a Session in the store and launches its executor. The
// placement controller — possibly in another failure domain — picks the
// machine; the executor runs the data plane once placed.
func (b *FleetBackend) Submit(p *sim.Proc, fn *Function) *Invocation {
	inv := b.newInvocation(p, fn)
	name := fn.Name + "-" + strconv.Itoa(inv.Seq)
	b.waiters[name] = sim.NewQueue[*store.Session](b.e)
	b.inflight.Add(1)
	p.Spawn("fleet-"+name, func(p *sim.Proc) {
		defer b.inflight.Done()
		defer delete(b.waiters, name)
		b.executeSession(p, inv, name)
	})
	return inv
}

// executeSession drives one invocation through the control plane: create
// Pending, wait for Placed, run the data plane, mark Done — or hand the
// session back to Pending on a failed attempt until the attempt budget runs
// out.
func (b *FleetBackend) executeSession(p *sim.Proc, inv *Invocation, name string) {
	fn := inv.Fn
	sess := &store.Session{}
	sess.ObjectMeta.Name = name
	sess.Spec.MemBytes = fn.GPUMem
	if _, err := b.st.Create(p, sess); err != nil {
		inv.Err = err
		inv.Done = p.Now()
		b.sessionsFailed.Inc()
		return
	}

	downloaded := false
	q := b.waiters[name]
	for {
		cur, ok := q.Recv(p)
		if !ok {
			inv.Err = fmt.Errorf("%w: session router stopped", ErrNoPlacement)
			break
		}
		switch cur.Status.Phase {
		case store.PhaseFailed:
			inv.Err = fmt.Errorf("%w: %s", ErrNoPlacement, cur.Status.Reason)
		case store.PhasePlaced:
			gs, ok := b.servers[cur.Status.Server]
			if !ok {
				b.endAttempt(p, name, fmt.Sprintf("unknown server %q", cur.Status.Server))
				continue
			}
			if !downloaded {
				// The model portion is served from the placed machine's
				// host cache when it has one.
				host := hostCache(gs)
				b.download(p, inv, host != nil, host)
				downloaded = true
			}
			err := b.runOnce(p, inv, cur, gs)
			if err != nil {
				b.runRetries.Inc()
				p.Sleep(b.cfg.RetryBackoff)
				b.endAttempt(p, name, err.Error())
				continue
			}
			b.finishSession(p, name)
			inv.Done = p.Now()
			b.sessionsDone.Inc()
			b.recordExec(fn.Name, inv.Done-inv.Granted)
			return
		default:
			continue
		}
		break
	}
	inv.Done = p.Now()
	b.sessionsFailed.Inc()
	b.finalizeFailed(p, name)
}

// runOnce performs one placed attempt: lease, attach, run, release.
func (b *FleetBackend) runOnce(p *sim.Proc, inv *Invocation, sess *store.Session, gs *gpuserver.GPUServer) error {
	fn := inv.Fn
	lease, err := gs.AcquireHint(p, fn.Name, fn.GPUMem, b.history[fn.Name])
	if err != nil {
		return err
	}
	inv.Granted = p.Now()
	inv.QueueDelay = lease.QueueDelay

	up := sess.DeepCopy().(*store.Session)
	up.Status.Phase = store.PhaseRunning
	// Async lane: purely observability; a dropped conflict is harmless.
	_ = b.st.UpdateStatusAsync(p, up)

	return b.runGuest(p, inv, gs, lease, nil, nil)
}

// endAttempt hands a session back to Pending after a failed attempt (the
// placement controller decides the next machine), or marks it Failed once
// the attempt budget is exhausted. Status.Server keeps naming the machine
// the attempt failed on: a Pending session occupies no machine, and
// placement passes over that one while another fits. Conflicts retry: the
// executor owns the session's phase transitions at this point. Any other
// failure is dropped, here and in the three writers below: the object is
// gone, or the handle halted and recovery takes over.
func (b *FleetBackend) endAttempt(p *sim.Proc, name, reason string) {
	_ = store.ModifyStatus(p, b.st, store.KindSession, name, func(up *store.Session) bool {
		if up.Status.Attempts >= b.cfg.MaxAttempts {
			up.Status.Phase = store.PhaseFailed
		} else {
			up.Status.Phase = store.PhasePending
		}
		up.Status.Reason = reason
		return true
	})
}

// finishSession marks a session Done.
func (b *FleetBackend) finishSession(p *sim.Proc, name string) {
	_ = store.ModifyStatus(p, b.st, store.KindSession, name, func(up *store.Session) bool {
		up.Status.Phase = store.PhaseDone
		return true
	})
}

// finalizeFailed pins the terminal Failed phase in the store (the router may
// have reported it already; this is idempotent).
func (b *FleetBackend) finalizeFailed(p *sim.Proc, name string) {
	_ = store.ModifyStatus(p, b.st, store.KindSession, name, func(up *store.Session) bool {
		if up.Terminal() {
			return false
		}
		up.Status.Phase = store.PhaseFailed
		return true
	})
}

// --- placement controller ---

// PlacementConfig parameterizes the fleet placement controller.
type PlacementConfig struct {
	// Resync is the level-trigger period; 0 means 100ms.
	Resync time.Duration
	// Registry receives the controller's counters.
	Registry *metrics.Registry
}

// NewPlacementController builds the reconciler that binds Pending sessions
// to healthy GPU servers. It decides from the controller's watch-fed cache of
// the store alone: machine state arrives via the agents' published status,
// never from the monitors, and the store itself is touched only to write.
// The reconcile performs two writes — the session's Placed status, then the
// chosen server's reservation bookkeeping — and the control plane stays
// correct if it dies between them: the reservation is a load-smoothing hint;
// the load that placement acts on is derived from the sessions themselves.
func NewPlacementController(st store.Interface, cfg PlacementConfig) *controller.Controller {
	if cfg.Resync <= 0 {
		cfg.Resync = 100 * time.Millisecond
	}
	load := make(serverLoad)
	return controller.New(controller.Options{
		Name:     "placement",
		Store:    st,
		Kinds:    []store.Kind{store.KindSession},
		Observe:  []store.Kind{store.KindGPUServer},
		OnChange: load.track,
		Resync:   cfg.Resync,
		Registry: cfg.Registry,
	}, controller.Func(func(p *sim.Proc, c *controller.Cache, key controller.Key) error {
		return reconcilePlacement(p, c, load, key)
	}))
}

// serverLoad counts, per GPU server, the sessions bound to it and not yet
// terminal. It is kept current as the cache changes (every session event, and
// the controller's own binds as they are folded back), so placing a session
// never iterates the Session keyspace.
type serverLoad map[string]int

// track is the placement cache's OnChange hook.
func (l serverLoad) track(old, cur store.Resource) {
	if s, ok := old.(*store.Session); ok && boundTo(s) != "" {
		l[s.Status.Server]--
	}
	if s, ok := cur.(*store.Session); ok && boundTo(s) != "" {
		l[s.Status.Server]++
	}
}

// boundTo names the machine a session occupies: its server while placed or
// running; none once terminal, nor while Pending, when Status.Server names
// the machine its last attempt failed on (endAttempt).
func boundTo(s *store.Session) string {
	if s.Terminal() || s.Status.Phase == store.PhasePending {
		return ""
	}
	return s.Status.Server
}

// reconcilePlacement places one Pending session. The attempt budget is the
// executor's alone (FleetConfig.MaxAttempts): endAttempt is the only writer
// of Pending and turns a session Failed instead once the budget is spent, so
// every Pending session seen here still has an attempt left. A cached view
// that lags the store (already bound by a predecessor, or bounced again by
// the executor) fails the bind with a conflict and the key is retried.
func reconcilePlacement(p *sim.Proc, c *controller.Cache, load serverLoad, key controller.Key) error {
	sess, _ := c.Get(key.Kind, key.Name).(*store.Session)
	if sess == nil {
		return nil
	}
	if sess.Status.Phase != "" && sess.Status.Phase != store.PhasePending {
		return nil
	}

	target := pickServer(c, load, sess)
	if target == nil {
		return fmt.Errorf("no healthy GPU server fits session %s (%d bytes)", key.Name, sess.Spec.MemBytes)
	}

	// The bind is the commit point: the executor acts on it regardless of
	// what happens to this controller next.
	up := sess.DeepCopy().(*store.Session)
	up.Status.Phase = store.PhasePlaced
	up.Status.Server = target.Meta().Name
	up.Status.Attempts++
	up.Status.PlacedAt = p.Now()
	up.Status.Reason = ""
	_, err := c.UpdateStatus(p, up)
	return err
}

// pickServer chooses the machine for a session using only cached state: the
// least-loaded healthy machine that fits the memory demand wins, first in
// name order among equals.
//
// A retried session does not go back to the machine its last attempt failed
// on while any other machine fits. A machine cut off from its guests fails
// every attempt at once, so its load drops straight back and it would
// otherwise win the next placement too, until the attempt budget is spent.
func pickServer(c *controller.Cache, load serverLoad, sess *store.Session) *store.GPUServer {
	failed := ""
	if sess.Status.Phase == store.PhasePending {
		failed = sess.Status.Server
	}
	var best, fallback *store.GPUServer
	bestLoad := 0
	for _, name := range c.Names(store.KindGPUServer) {
		gs := c.Get(store.KindGPUServer, name).(*store.GPUServer)
		if !canHost(gs, sess) {
			continue
		}
		if name == failed {
			fallback = gs
			continue
		}
		if l := load[name]; best == nil || l < bestLoad {
			best, bestLoad = gs, l
		}
	}
	if best == nil {
		return fallback
	}
	return best
}

// canHost reports whether a server is schedulable and fits the session.
func canHost(gs *store.GPUServer, sess *store.Session) bool {
	return gs.Status.Healthy && gs.Status.Capacity != 0 &&
		sess.Spec.MemBytes <= gs.Spec.MemBytesPerGPU
}

// --- reclaim controller ---

// ReclaimConfig parameterizes the staged-model reclaim controller.
type ReclaimConfig struct {
	// Resync is the level-trigger period; 0 means 200ms.
	Resync time.Duration
	// Registry receives the controller's counters.
	Registry *metrics.Registry
}

// NewReclaimController builds the reconciler that bounds each machine's
// staged-model bytes: when the mirrored StagedModel objects of a server
// exceed its StageBudget, the oldest (lowest recency sequence) are deleted
// from the store, and the machine's agent evicts the corresponding host-tier
// entries when it observes the deletions. Occupancy thus flows store-ward
// (agent publishes), and eviction decisions flow machine-ward (agent
// applies) — the controller never touches a cache directly.
func NewReclaimController(st store.Interface, cfg ReclaimConfig) *controller.Controller {
	if cfg.Resync <= 0 {
		cfg.Resync = 200 * time.Millisecond
	}
	return controller.New(controller.Options{
		Name:     "reclaim",
		Store:    st,
		Kinds:    []store.Kind{store.KindGPUServer, store.KindStagedModel},
		Resync:   cfg.Resync,
		Registry: cfg.Registry,
	}, controller.Func(func(p *sim.Proc, c *controller.Cache, key controller.Key) error {
		server := key.Name
		if key.Kind == store.KindStagedModel {
			// StagedModel names are "<server>/<object>".
			if i := strings.Index(key.Name, "/"); i >= 0 {
				server = key.Name[:i]
			} else {
				return nil
			}
		}
		return reconcileReclaim(p, c, server)
	}))
}

// reconcileReclaim trims one server's staged set under its budget.
func reconcileReclaim(p *sim.Proc, c *controller.Cache, server string) error {
	gs, _ := c.Get(store.KindGPUServer, server).(*store.GPUServer)
	if gs == nil || gs.Spec.StageBudget <= 0 {
		return nil
	}
	// The server's models are the names under its prefix, adjacent in the
	// cache's sorted order.
	names := c.Names(store.KindStagedModel)
	prefix := store.StagedModelName(server, "")
	names = names[sort.SearchStrings(names, prefix):]
	var sum int64
	n := 0
	for n < len(names) && strings.HasPrefix(names[n], prefix) {
		sum += c.Get(store.KindStagedModel, names[n]).(*store.StagedModel).Spec.Bytes
		n++
	}
	if sum <= gs.Spec.StageBudget {
		return nil
	}
	staged := make([]*store.StagedModel, n)
	for i, name := range names[:n] {
		staged[i] = c.Get(store.KindStagedModel, name).(*store.StagedModel)
	}
	// Oldest first: ascending recency sequence, name as deterministic tie-break.
	sort.Slice(staged, func(i, j int) bool {
		if staged[i].Status.Seq != staged[j].Status.Seq {
			return staged[i].Status.Seq < staged[j].Status.Seq
		}
		return staged[i].Meta().Name < staged[j].Meta().Name
	})
	for _, sm := range staged {
		if sum <= gs.Spec.StageBudget {
			break
		}
		err := c.Delete(p, store.KindStagedModel, sm.Meta().Name, 0)
		if err != nil && !store.IsNotFound(err) {
			return err
		}
		sum -= sm.Spec.Bytes
	}
	return nil
}

// RunSupervised runs a controller factory under a restart supervisor: each
// halt (a blown store fuse — the injected crash) spawns a replacement built
// from a fresh store handle, after restartDelay. It returns when a
// controller stops without halting, or after maxRestarts replacements.
func RunSupervised(p *sim.Proc, restartDelay time.Duration, maxRestarts int, build func() *controller.Controller) (restarts int) {
	for {
		ctrl := build()
		ctrl.Run(p)
		if !ctrl.Halted() || restarts >= maxRestarts {
			return restarts
		}
		restarts++
		if restartDelay > 0 {
			p.Sleep(restartDelay)
		}
	}
}
