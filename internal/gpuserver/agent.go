package gpuserver

import (
	"sort"
	"time"

	"dgsf/internal/modelcache"
	"dgsf/internal/sim"
	"dgsf/internal/store"
)

// Agent is the GPU server's fleet-facing half: it mirrors the machine's
// state into the cluster store and applies cluster decisions back onto the
// machine, so the fleet backend and the reclaim controller never touch the
// monitor's internals directly — all cross-component state flows through
// watched, versioned objects.
//
// Outbound, each sync tick publishes the GPUServer status (health and
// capacity) when it changed, and a StagedModel object per host-tier cache
// entry. Inbound, the agent watches StagedModel deletions — the reclaim
// controller's eviction verdicts — and evicts the corresponding host-tier
// entries.
type Agent struct {
	gs   *GPUServer
	st   store.Interface
	name string
	cfg  AgentConfig

	watch *store.Watch
	// published is the agent's view of its own StagedModel objects in the
	// store, by host-tier key name: seeded by the one List at start-up, then
	// kept by the watch stream and the agent's own writes, so a sync tick
	// diffs the host tier against it without listing the fleet's models.
	published map[string]*store.StagedModel
	stopped   bool

	// entries and resident are syncStaged's scratch, kept across ticks.
	entries  []modelcache.Entry
	resident map[string]bool
}

// AgentConfig parameterizes an Agent.
type AgentConfig struct {
	// SyncPeriod is the status-publication interval; 0 means 100ms.
	SyncPeriod time.Duration
	// StageBudget is the staged-bytes bound the reclaim controller enforces
	// for this server; 0 adopts the host tier's own LRU budget (making the
	// controller a no-op until the deployment sets a tighter policy bound).
	StageBudget int64
}

// NewAgent binds a GPU server to the cluster store under the given name.
func NewAgent(gs *GPUServer, st store.Interface, name string, cfg AgentConfig) *Agent {
	if cfg.SyncPeriod <= 0 {
		cfg.SyncPeriod = 100 * time.Millisecond
	}
	return &Agent{gs: gs, st: st, name: name, cfg: cfg, resident: make(map[string]bool)}
}

// Stop ends the agent's sync loop at the next tick.
func (a *Agent) Stop() { a.stopped = true }

// Run registers the machine's objects and then syncs until stopped or the
// store handle dies. Run it as a daemon after GPUServer.Start.
func (a *Agent) Run(p *sim.Proc) {
	if err := a.register(p); err != nil {
		return
	}
	// List-then-watch the staged models: the list seeds the published view
	// (what a predecessor left behind, after an agent restart), the watch
	// from its RV carries evictions and keeps the view current.
	rv, err := a.relistStaged(p)
	if err != nil {
		return
	}
	w, err := a.st.Watch(p, store.KindStagedModel, rv)
	if err != nil {
		return
	}
	a.watch = w
	defer w.Stop()
	for !a.stopped {
		if err := a.tick(p); err != nil {
			return
		}
		p.Sleep(a.cfg.SyncPeriod)
	}
}

// tick is one sync period's work: evictions in, status and staged models
// out. A tick that finds nothing changed writes nothing and allocates
// nothing.
func (a *Agent) tick(p *sim.Proc) error {
	if err := a.applyEvents(p); err != nil {
		return err
	}
	if err := a.publishStatus(p); err != nil {
		return err
	}
	return a.syncStaged(p)
}

// register creates (or adopts, after an agent restart) the GPUServer object.
func (a *Agent) register(p *sim.Proc) error {
	obj := &store.GPUServer{}
	obj.ObjectMeta.Name = a.name
	if len(a.gs.devs) > 0 {
		obj.Spec.MemBytesPerGPU = a.gs.devs[0].Cfg.MemBytes
	}
	obj.Spec.StageBudget = a.stageBudget()
	if _, err := a.st.Create(p, obj); err != nil && !store.IsExists(err) {
		return err
	}
	return nil
}

// stageBudget resolves the effective staged-bytes bound.
func (a *Agent) stageBudget() int64 {
	if a.cfg.StageBudget > 0 {
		return a.cfg.StageBudget
	}
	if c := a.gs.Cache(); c != nil {
		return c.Host().Budget()
	}
	return 0
}

// publishStatus writes the machine's health and capacity into the GPUServer
// status when either differs from the stored one. It compares against the
// frozen object the Get returns and copies it only for a write, as nearly
// every tick finds nothing changed. Conflicts retry against fresh state.
func (a *Agent) publishStatus(p *sim.Proc) error {
	for {
		cur, err := a.st.Get(p, store.KindGPUServer, a.name)
		if err != nil {
			return err
		}
		healthy, capacity := a.gs.Healthy(), a.gs.Capacity()
		if pub := cur.(*store.GPUServer).Status; pub.Healthy == healthy && pub.Capacity == capacity {
			return nil
		}
		up := cur.DeepCopy().(*store.GPUServer)
		up.Status.Healthy = healthy
		up.Status.Capacity = capacity
		if _, err := a.st.UpdateStatus(p, up); !store.IsConflict(err) {
			return err
		}
	}
}

// relistStaged replaces the published view with the store's current
// StagedModel objects of this server and returns the list's RV. Whatever the
// view held that the store no longer has was deleted unseen — after a watch
// gap, by the reclaim controller for all the agent can tell — so it is
// evicted like an observed deletion.
func (a *Agent) relistStaged(p *sim.Proc) (uint64, error) {
	rs, rv, err := a.st.List(p, store.KindStagedModel)
	if err != nil {
		return 0, err
	}
	was := a.published
	a.published = make(map[string]*store.StagedModel)
	for _, r := range rs {
		if sm := r.(*store.StagedModel); sm.Spec.Server == a.name {
			a.published[sm.Spec.Object] = sm
		}
	}
	gone := make([]string, 0, len(was))
	for object := range was {
		if _, ok := a.published[object]; !ok {
			gone = append(gone, object)
		}
	}
	sort.Strings(gone)
	for _, object := range gone {
		a.evict(object)
	}
	return rv, nil
}

// applyEvents drains the pending StagedModel events of this server into the
// published view and evicts the host-tier entry of every deleted object.
// Running this before syncStaged in the same tick keeps the two from
// fighting: an evicted entry is gone from the LRU before the diff would
// re-publish it.
func (a *Agent) applyEvents(p *sim.Proc) error {
	for {
		ev, ok := a.watch.Events.TryRecv()
		if !ok {
			return nil
		}
		if ev.Type == store.Gap {
			if _, err := a.relistStaged(p); err != nil {
				return err
			}
			continue
		}
		sm, ok := ev.Object.(*store.StagedModel)
		if !ok || sm.Spec.Server != a.name {
			continue
		}
		cur := a.published[sm.Spec.Object]
		if ev.Type != store.Deleted {
			if cur == nil || cur.Meta().ResourceVersion < sm.Meta().ResourceVersion {
				a.published[sm.Spec.Object] = sm
			}
			continue
		}
		if cur != nil && cur.Meta().ResourceVersion < ev.RV {
			delete(a.published, sm.Spec.Object)
		}
		a.evict(sm.Spec.Object)
	}
}

// evict removes the named object's host-tier entry, if resident.
func (a *Agent) evict(object string) {
	if c := a.gs.Cache(); c != nil {
		c.Host().RemoveName(object)
	}
}

// syncStaged diffs the host tier against the published view: new entries are
// created, departed entries deleted, recency changes pushed on the async lane
// (the reclaim controller deletes lowest-sequence objects first; the view
// takes the new sequence when the write's Modified event comes back).
func (a *Agent) syncStaged(p *sim.Proc) error {
	c := a.gs.Cache()
	if c == nil {
		return nil
	}
	a.entries = c.Host().AppendEntries(a.entries[:0])
	clear(a.resident)
	for _, e := range a.entries {
		a.resident[e.Key.Name] = true
		seq := c.Host().Seq(e.Key)
		sm, ok := a.published[e.Key.Name]
		if !ok {
			obj := &store.StagedModel{}
			obj.ObjectMeta.Name = store.StagedModelName(a.name, e.Key.Name)
			obj.Spec.Server = a.name
			obj.Spec.Object = e.Key.Name
			obj.Spec.Bytes = e.Bytes
			obj.Status.Seq = seq
			stored, err := a.st.Create(p, obj)
			if err != nil {
				if store.IsExists(err) {
					continue // its Added event is on the way
				}
				return err
			}
			a.published[e.Key.Name] = stored.(*store.StagedModel)
			continue
		}
		if sm.Status.Seq != seq {
			up := sm.DeepCopy().(*store.StagedModel)
			up.Status.Seq = seq
			// NotFound: deleted since the view last heard; its event is due.
			if err := a.st.UpdateStatusAsync(p, up); err != nil && !store.IsNotFound(err) {
				return err
			}
		}
	}
	var departed []string
	for object := range a.published {
		if !a.resident[object] {
			departed = append(departed, object)
		}
	}
	sort.Strings(departed)
	for _, object := range departed {
		err := a.st.Delete(p, store.KindStagedModel, a.published[object].Meta().Name, 0)
		if err != nil && !store.IsNotFound(err) {
			return err
		}
		delete(a.published, object)
	}
	return nil
}
