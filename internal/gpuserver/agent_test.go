package gpuserver

import (
	"testing"
	"time"

	"dgsf/internal/modelcache"
	"dgsf/internal/sim"
	"dgsf/internal/store"
)

// listCounter counts List calls on an agent's store handle.
type listCounter struct {
	store.Interface
	lists int
}

func (s *listCounter) List(p *sim.Proc, kind store.Kind) ([]store.Resource, uint64, error) {
	s.lists++
	return s.Interface.List(p, kind)
}

// TestAgentMirrorsStagedModelsFromItsOwnView drives the agent's staged-model
// loop through each of its moves — publish, recency update, a deletion by
// the reclaim controller, a departure from the host tier — next to another
// machine's objects, and checks it needed exactly one List for all of it:
// the one at start-up that seeds its view.
func TestAgentMirrorsStagedModelsFromItsOwnView(t *testing.T) {
	e := sim.NewEngine(1)
	e.SetTimeLimit(time.Minute)
	st := store.New(e, nil)
	handle := &listCounter{Interface: st}
	const tick = 10 * time.Millisecond
	e.Run("root", func(p *sim.Proc) {
		cfg := fastConfig(1, 1, BestFit)
		cfg.Cache = modelcache.Config{Enable: true, HostBudget: 1 << 30, DeviceBudget: -1}
		gs := New(e, cfg)
		gs.Start(p)
		host := gs.Cache().Host()

		// A neighbour's object and a leftover of this machine's previous agent.
		for _, sm := range []store.StagedModelSpec{
			{Server: "gpu-b", Object: "theirs", Bytes: 1},
			{Server: "gpu-a", Object: "leftover", Bytes: 1},
		} {
			obj := &store.StagedModel{Spec: sm}
			obj.ObjectMeta.Name = store.StagedModelName(sm.Server, sm.Object)
			if _, err := st.Create(p, obj); err != nil {
				t.Fatalf("Create: %v", err)
			}
		}
		a := NewAgent(gs, handle, "gpu-a", AgentConfig{SyncPeriod: tick})
		p.SpawnDaemon("agent", a.Run)

		staged := func() map[string]uint64 {
			rs, _, err := st.List(p, store.KindStagedModel)
			if err != nil {
				t.Fatalf("List: %v", err)
			}
			out := map[string]uint64{}
			for _, r := range rs {
				out[r.Meta().Name] = r.(*store.StagedModel).Status.Seq
			}
			return out
		}
		k0, k1 := modelcache.Key{Name: "m0", FP: 0}, modelcache.Key{Name: "m1", FP: 1}
		host.Put(k0, 100)
		host.Put(k1, 100)
		p.Sleep(2 * tick)
		got := staged()
		if _, ok := got["gpu-a/leftover"]; ok {
			t.Error("leftover of the previous agent, not resident, still in the store")
		}
		if len(got) != 3 || got["gpu-a/m0"] != host.Seq(k0) || got["gpu-a/m1"] != host.Seq(k1) {
			t.Fatalf("published = %v, want gpu-a/m0, gpu-a/m1 at their host sequence and gpu-b/theirs", got)
		}

		// Recency moves: the stored sequence follows.
		host.Get(k0)
		p.Sleep(2 * tick)
		if got := staged(); got["gpu-a/m0"] != host.Seq(k0) {
			t.Errorf("m0 seq in store = %d, host = %d", got["gpu-a/m0"], host.Seq(k0))
		}

		// The reclaim controller's verdict: evicted, and not re-published.
		if err := st.Delete(p, store.KindStagedModel, "gpu-a/m0", 0); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		p.Sleep(2 * tick)
		if host.Peek(k0) {
			t.Error("m0 still resident after its StagedModel was deleted")
		}
		if _, ok := staged()["gpu-a/m0"]; ok {
			t.Error("m0 re-published after eviction")
		}

		// A departure from the host tier: the agent retracts the object.
		host.Remove(k1)
		p.Sleep(2 * tick)
		if got := staged(); len(got) != 1 {
			t.Errorf("after m1 left the host tier the store holds %v, want gpu-b/theirs only", got)
		}
		a.Stop()
		p.Sleep(tick)
	})
	if handle.lists != 1 {
		t.Errorf("agent issued %d Lists, want 1 (start-up)", handle.lists)
	}
}

// statusCounter counts GPUServer status writes on an agent's store handle.
type statusCounter struct {
	store.Interface
	writes int
}

func (s *statusCounter) UpdateStatus(p *sim.Proc, r store.Resource) (store.Resource, error) {
	if r.Kind() == store.KindGPUServer {
		s.writes++
	}
	return s.Interface.UpdateStatus(p, r)
}

// TestAgentPublishesOnlyOnChange: a sync tick writes the GPUServer status
// only when health or capacity moved. Twenty quiet periods after the first
// publish cost no write; a machine failure costs one.
func TestAgentPublishesOnlyOnChange(t *testing.T) {
	e := sim.NewEngine(1)
	e.SetTimeLimit(time.Minute)
	st := store.New(e, nil)
	handle := &statusCounter{Interface: st}
	const tick = 10 * time.Millisecond
	e.Run("root", func(p *sim.Proc) {
		gs := New(e, fastConfig(2, 2, BestFit))
		gs.Start(p)
		a := NewAgent(gs, handle, "gpu-a", AgentConfig{SyncPeriod: tick})
		p.SpawnDaemon("agent", a.Run)

		p.Sleep(20*tick + tick/2)
		if handle.writes != 1 {
			t.Errorf("%d status writes over 20 quiet sync periods, want 1 (the capacity)", handle.writes)
		}
		r, err := st.Get(p, store.KindGPUServer, "gpu-a")
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if got := r.(*store.GPUServer).Status; !got.Healthy || got.Capacity != 4 {
			t.Errorf("published status %+v, want healthy with capacity 4", got)
		}

		gs.Fail()
		p.Sleep(20 * tick)
		if handle.writes != 2 {
			t.Errorf("%d status writes after a failure, want 2", handle.writes)
		}
		r, _ = st.Get(p, store.KindGPUServer, "gpu-a")
		if r.(*store.GPUServer).Status.Healthy {
			t.Error("the failed machine is still published healthy")
		}
		a.Stop()
		p.Sleep(tick)
	})
}

// TestQuietTickAllocatesNothing: a sync tick on a machine whose health,
// capacity and host tier have not moved since the last one compares against
// the frozen stored objects and leaves it there — no status write, no
// allocation, not even the copy a write would have edited.
func TestQuietTickAllocatesNothing(t *testing.T) {
	e := sim.NewEngine(1)
	e.SetTimeLimit(time.Minute)
	st := store.New(e, nil)
	handle := &statusCounter{Interface: st}
	e.Run("root", func(p *sim.Proc) {
		cfg := fastConfig(2, 2, BestFit)
		cfg.Cache = modelcache.Config{Enable: true, HostBudget: 1 << 30, DeviceBudget: -1}
		gs := New(e, cfg)
		gs.Start(p)
		gs.Cache().Host().Put(modelcache.Key{Name: "m0"}, 100)
		a := NewAgent(gs, handle, "gpu-a", AgentConfig{})
		if err := a.register(p); err != nil {
			t.Fatal(err)
		}
		if _, err := a.relistStaged(p); err != nil {
			t.Fatal(err)
		}
		w, err := st.Watch(p, store.KindStagedModel, st.RV())
		if err != nil {
			t.Fatal(err)
		}
		defer w.Stop()
		a.watch = w
		tick := func() {
			if err := a.tick(p); err != nil {
				t.Fatal(err)
			}
		}
		tick() // publishes the capacity and stages m0
		tick() // takes in m0's Added event
		writes, rv := handle.writes, st.RV()
		if got := testing.AllocsPerRun(100, tick); got != 0 {
			t.Errorf("a quiet tick: %v allocs, want 0", got)
		}
		if handle.writes != writes || st.RV() != rv {
			t.Errorf("quiet ticks wrote: %d status writes, RV %d -> %d", handle.writes-writes, rv, st.RV())
		}
	})
}
