package controller

import (
	"fmt"
	"testing"
	"time"

	"dgsf/internal/metrics"
	"dgsf/internal/remoting"
	"dgsf/internal/sim"
	"dgsf/internal/store"
)

func newSession(name string) *store.Session {
	s := &store.Session{}
	s.ObjectMeta.Name = name
	s.Spec.MemBytes = 1 << 30
	return s
}

// TestReconcilesOnWatchEdges checks that creates flow through the watch pump
// into reconcile calls, and that the controller sees pre-existing objects via
// the initial relist.
func TestReconcilesOnWatchEdges(t *testing.T) {
	e := sim.NewEngine(1)
	e.SetTimeLimit(time.Minute)
	st := store.New(e, nil)
	seen := map[string]int{}
	var ctrl *Controller
	ctrl = New(Options{
		Name:  "test",
		Store: st,
		Kinds: []store.Kind{store.KindSession},
	}, Func(func(p *sim.Proc, c *Cache, key Key) error {
		seen[key.Name]++
		if len(seen) == 3 && seen["pre"] > 0 && seen["a"] > 0 && seen["b"] > 0 {
			ctrl.Stop()
		}
		return nil
	}))
	e.Run("test", func(p *sim.Proc) {
		if _, err := st.Create(p, newSession("pre")); err != nil {
			t.Fatalf("Create: %v", err)
		}
		p.Spawn("writer", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			if _, err := st.Create(p, newSession("a")); err != nil {
				t.Errorf("Create a: %v", err)
			}
			if _, err := st.Create(p, newSession("b")); err != nil {
				t.Errorf("Create b: %v", err)
			}
		})
		ctrl.Run(p)
	})
	for _, name := range []string{"pre", "a", "b"} {
		if seen[name] == 0 {
			t.Errorf("key %q never reconciled: %v", name, seen)
		}
	}
}

// TestRequeueWithBackoffOnError checks that a failing key is retried with
// increasing delay until it succeeds, and that the requeue counter advances.
func TestRequeueWithBackoffOnError(t *testing.T) {
	e := sim.NewEngine(2)
	e.SetTimeLimit(time.Minute)
	st := store.New(e, nil)
	reg := metrics.NewRegistry()
	var attempts int
	var times []time.Duration
	var ctrl *Controller
	ctrl = New(Options{
		Name:     "retry",
		Store:    st,
		Kinds:    []store.Kind{store.KindSession},
		Registry: reg,
	}, Func(func(p *sim.Proc, c *Cache, key Key) error {
		attempts++
		times = append(times, p.Now())
		if attempts < 4 {
			return fmt.Errorf("transient failure %d", attempts)
		}
		ctrl.Stop()
		return nil
	}))
	e.Run("test", func(p *sim.Proc) {
		if _, err := st.Create(p, newSession("s")); err != nil {
			t.Fatalf("Create: %v", err)
		}
		ctrl.Run(p)
	})
	if attempts != 4 {
		t.Fatalf("attempts = %d, want 4", attempts)
	}
	// Delays double: 1ms, 2ms, 4ms between consecutive attempts.
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	for i := 1; i < len(times); i++ {
		if d := times[i] - times[i-1]; d != want[i-1] {
			t.Errorf("gap %d = %v, want %v", i, d, want[i-1])
		}
	}
	if got := reg.Get("ctrl_retry_requeues_total"); got != 3 {
		t.Errorf("requeues counter = %d, want 3", got)
	}
	if got := reg.Get("ctrl_retry_reconciles_total"); got != 4 {
		t.Errorf("reconciles counter = %d, want 4", got)
	}
}

// TestResyncRedeliversAllKeys checks the level trigger: with no edges at all
// after startup, every object is still re-reconciled each resync period.
func TestResyncRedeliversAllKeys(t *testing.T) {
	e := sim.NewEngine(3)
	e.SetTimeLimit(time.Minute)
	st := store.New(e, nil)
	seen := map[string]int{}
	var ctrl *Controller
	ctrl = New(Options{
		Name:   "resync",
		Store:  st,
		Kinds:  []store.Kind{store.KindSession},
		Resync: 5 * time.Millisecond,
	}, Func(func(p *sim.Proc, c *Cache, key Key) error {
		seen[key.Name]++
		if seen["x"] >= 3 && seen["y"] >= 3 {
			ctrl.Stop()
		}
		return nil
	}))
	e.Run("test", func(p *sim.Proc) {
		for _, n := range []string{"x", "y"} {
			if _, err := st.Create(p, newSession(n)); err != nil {
				t.Fatalf("Create: %v", err)
			}
		}
		ctrl.Run(p)
	})
	if seen["x"] < 3 || seen["y"] < 3 {
		t.Fatalf("resync did not redeliver: %v", seen)
	}
}

// TestQueueCoalescesEventStorms checks the dedup property: many edges for a
// key already pending collapse into one reconcile.
func TestQueueCoalescesEventStorms(t *testing.T) {
	e := sim.NewEngine(4)
	q := newWorkqueue(e)
	for i := 0; i < 100; i++ {
		q.Add(Key{Kind: store.KindSession, Name: "same"})
	}
	q.Add(Key{Kind: store.KindSession, Name: "other"})
	if q.Len() != 2 {
		t.Fatalf("queue length = %d, want 2", q.Len())
	}
	e.Run("test", func(p *sim.Proc) {
		k1, ok1 := q.Get(p)
		k2, ok2 := q.Get(p)
		if !ok1 || !ok2 || k1.Name != "same" || k2.Name != "other" {
			t.Errorf("drain order wrong: %v %v %v %v", k1, ok1, k2, ok2)
		}
		// Once popped, the key may be re-added (it is no longer pending).
		q.Add(k1)
		if q.Len() != 1 {
			t.Errorf("re-add after pop failed, len=%d", q.Len())
		}
	})
}

// TestQueueKeepsOrderUnderStandingBacklog never lets the queue drain: the
// consumed prefix is dropped from the backing array along the way, and FIFO
// order and dedup must hold across that.
func TestQueueKeepsOrderUnderStandingBacklog(t *testing.T) {
	e := sim.NewEngine(4)
	q := newWorkqueue(e)
	key := func(i int) Key { return Key{Kind: store.KindSession, Name: fmt.Sprint(i)} }
	e.Run("test", func(p *sim.Proc) {
		next, want := 0, 0
		for round := 0; round < 20; round++ {
			for i := 0; i < 500; i++ {
				q.Add(key(next))
				next++
			}
			q.Add(key(next - 1)) // still pending: deduplicated
			for i := 0; i < 400; i++ {
				if k, ok := q.Get(p); !ok || k != key(want) {
					t.Fatalf("round %d: got %v ok=%v, want %v", round, k, ok, key(want))
				}
				want++
			}
			if q.Len() != next-want {
				t.Fatalf("round %d: Len = %d, want %d", round, q.Len(), next-want)
			}
		}
		if len(q.items) > 2*q.Len() {
			t.Errorf("backing slice holds %d entries for %d pending keys", len(q.items), q.Len())
		}
	})
}

// TestHaltsWhenStoreFuseBlows checks the crash path: the store handle dies
// mid-reconcile (fuse blows between two writes) and the controller parks
// itself with Halted() true instead of spinning on a dead handle. The fuse
// blows on the write: reconcile reads come from the cache and no longer pass
// through it.
func TestHaltsWhenStoreFuseBlows(t *testing.T) {
	e := sim.NewEngine(7)
	e.SetTimeLimit(time.Minute)
	st := store.New(e, nil)
	fuse := store.NewFuse(st)
	var ctrl *Controller
	ctrl = New(Options{
		Name:  "crash",
		Store: fuse,
		Kinds: []store.Kind{store.KindSession},
	}, Func(func(p *sim.Proc, c *Cache, key Key) error {
		cur := c.Get(key.Kind, key.Name)
		up := cur.DeepCopy().(*store.Session)
		up.Status.Phase = store.PhasePlaced
		placed, err := c.UpdateStatus(p, up)
		if err != nil {
			return err
		}
		// Second write of the same reconcile: the fuse blows here.
		up2 := placed.DeepCopy().(*store.Session)
		up2.Status.Phase = store.PhaseRunning
		if _, err := c.UpdateStatus(p, up2); err != nil {
			return err
		}
		return nil
	}))
	var phase string
	var restartedSaw bool
	e.Run("test", func(p *sim.Proc) {
		if _, err := st.Create(p, newSession("victim")); err != nil {
			t.Fatalf("Create: %v", err)
		}
		fuse.Arm(1) // one write allowed, the second blows
		ctrl.Run(p)

		// The store itself survived the crash with the first write applied:
		// a replacement controller with a fresh handle resumes from exactly
		// this intermediate state.
		r, err := st.Get(p, store.KindSession, "victim")
		if err != nil {
			t.Fatalf("Get after crash: %v", err)
		}
		phase = r.(*store.Session).Status.Phase

		var ctrl2 *Controller
		ctrl2 = New(Options{
			Name:  "crash2",
			Store: st, // fresh, unblown handle
			Kinds: []store.Kind{store.KindSession},
		}, Func(func(p *sim.Proc, c *Cache, key Key) error {
			restartedSaw = true
			ctrl2.Stop()
			return nil
		}))
		ctrl2.Run(p)
	})
	if !ctrl.Halted() {
		t.Fatal("controller did not halt on blown fuse")
	}
	if phase != store.PhasePlaced {
		t.Fatalf("stored phase = %v, want Placed (first write only)", phase)
	}
	if !restartedSaw {
		t.Fatal("restarted controller never saw the orphaned key")
	}
}

// conflictOnce is a store handle whose first UpdateStatus loses a race: a
// competing writer lands on the same object just ahead of it, so the caller's
// view — however fresh its cache was — is stale by construction.
type conflictOnce struct {
	store.Interface
	raced   bool
	applied []string // phase of every status write that landed through this handle
}

func (s *conflictOnce) UpdateStatus(p *sim.Proc, r store.Resource) (store.Resource, error) {
	if !s.raced {
		s.raced = true
		cur, err := s.Interface.Get(p, r.Kind(), r.Meta().Name)
		if err != nil {
			return nil, err
		}
		rival := cur.DeepCopy().(*store.Session)
		rival.Status.Reason = "rival write"
		if _, err := s.Interface.UpdateStatus(p, rival); err != nil {
			return nil, err
		}
	}
	stored, err := s.Interface.UpdateStatus(p, r)
	if err == nil {
		s.applied = append(s.applied, stored.(*store.Session).Status.Phase)
	}
	return stored, err
}

// TestStaleCacheConflictRequeuesAndConverges walks the path a lagging cache
// takes: the cached Pending view is stale, the bind fails its CAS with
// ErrConflict, the key is requeued with backoff, the watch delivers the
// rival's write meanwhile, and the retry binds against the fresh view —
// exactly one Placed write is applied.
func TestStaleCacheConflictRequeuesAndConverges(t *testing.T) {
	e := sim.NewEngine(11)
	e.SetTimeLimit(time.Minute)
	st := store.New(e, nil)
	handle := &conflictOnce{Interface: st}
	reg := metrics.NewRegistry()
	var ctrl *Controller
	ctrl = New(Options{
		Name:     "stale",
		Store:    handle,
		Kinds:    []store.Kind{store.KindSession},
		Registry: reg,
	}, Func(func(p *sim.Proc, c *Cache, key Key) error {
		sess := c.Get(key.Kind, key.Name).(*store.Session)
		if sess.Status.Phase == store.PhasePlaced {
			ctrl.Stop()
			return nil
		}
		up := sess.DeepCopy().(*store.Session)
		up.Status.Phase = store.PhasePlaced
		_, err := c.UpdateStatus(p, up)
		return err
	}))
	var final *store.Session
	e.Run("test", func(p *sim.Proc) {
		if _, err := st.Create(p, newSession("s")); err != nil {
			t.Fatalf("Create: %v", err)
		}
		ctrl.Run(p)
		r, err := st.Get(p, store.KindSession, "s")
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		final = r.(*store.Session)
	})
	if final.Status.Phase != store.PhasePlaced || final.Status.Reason != "rival write" {
		t.Errorf("stored session = %+v, want Placed on top of the rival's write", final.Status)
	}
	if len(handle.applied) != 1 || handle.applied[0] != store.PhasePlaced {
		t.Errorf("status writes applied = %v, want exactly one Placed", handle.applied)
	}
	if got := reg.Get("ctrl_stale_requeues_total"); got != 1 {
		t.Errorf("requeues = %d, want 1 (the conflict)", got)
	}
}

// TestCacheFollowsWatch checks the cache against the stream: an object
// created after start-up appears, a Deleted event removes it again, and
// OnChange reports both with the views before and after — what a derived
// count (placement's per-server load) is kept current from.
func TestCacheFollowsWatch(t *testing.T) {
	e := sim.NewEngine(12)
	e.SetTimeLimit(time.Minute)
	st := store.New(e, nil)
	live := 0
	var sawLive, sawGone bool
	var ctrl *Controller
	ctrl = New(Options{
		Name:    "follow",
		Store:   st,
		Kinds:   []store.Kind{store.KindSession},
		Observe: []store.Kind{store.KindGPUServer},
		OnChange: func(old, cur store.Resource) {
			if old == nil {
				live++
			}
			if cur == nil {
				live--
			}
		},
	}, Func(func(p *sim.Proc, c *Cache, key Key) error {
		if key.Kind != store.KindSession {
			t.Errorf("observed kind %s drove a reconcile", key.Kind)
		}
		switch {
		case c.Get(key.Kind, key.Name) != nil:
			sawLive = true
		case sawLive:
			// The Deleted event's key: the object is gone from the cache.
			sawGone = true
			if names := c.Names(store.KindSession); len(names) != 0 {
				t.Errorf("names after delete = %v", names)
			}
			if c.Get(store.KindGPUServer, "gs") == nil {
				t.Error("observed GPUServer missing from the cache")
			}
			ctrl.Stop()
		}
		return nil
	}))
	e.Run("test", func(p *sim.Proc) {
		p.Spawn("writer", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			gs := &store.GPUServer{}
			gs.ObjectMeta.Name = "gs"
			if _, err := st.Create(p, gs); err != nil {
				t.Errorf("Create gs: %v", err)
			}
			if _, err := st.Create(p, newSession("s")); err != nil {
				t.Errorf("Create s: %v", err)
			}
			p.Sleep(time.Millisecond)
			if err := st.Delete(p, store.KindSession, "s", 0); err != nil {
				t.Errorf("Delete s: %v", err)
			}
		})
		ctrl.Run(p)
	})
	if !sawLive || !sawGone {
		t.Fatalf("reconciler saw live=%v gone=%v, want both", sawLive, sawGone)
	}
	if live != 1 {
		t.Errorf("OnChange balance = %d, want 1 (the GPUServer; the session came and went)", live)
	}
}

// remoteStore serves st over the sim transport and returns a client handle
// plus its connection, for tests that need the long-poll watch or a fault.
func remoteStore(p *sim.Proc, e *sim.Engine, st *store.Store) (*store.Remote, remoting.AsyncCaller) {
	l := remoting.NewListener(e)
	p.SpawnDaemon("store-serve", func(p *sim.Proc) { store.Serve(p, st, l) })
	conn := remoting.Dial(e, l, remoting.NetProfile{RTT: 100 * time.Microsecond})
	return store.NewRemote(e, conn), conn
}

// TestClosedWatchStreamHalts severs the controller's store connection: the
// watch pump closes its stream, and a controller that can no longer hear of
// changes must park for its supervisor instead of reconciling from a cache
// that has gone deaf.
func TestClosedWatchStreamHalts(t *testing.T) {
	e := sim.NewEngine(13)
	e.SetTimeLimit(time.Minute)
	st := store.New(e, nil)
	var ctrl *Controller
	e.Run("test", func(p *sim.Proc) {
		handle, conn := remoteStore(p, e, st)
		ctrl = New(Options{
			Name:   "deaf",
			Store:  handle,
			Kinds:  []store.Kind{store.KindSession},
			Resync: 5 * time.Millisecond,
		}, Func(func(p *sim.Proc, c *Cache, key Key) error { return nil }))
		p.Spawn("cut", func(p *sim.Proc) {
			p.Sleep(20 * time.Millisecond)
			conn.(remoting.Faultable).Break()
		})
		ctrl.Run(p) // returns only because the closed stream stops it
	})
	if !ctrl.Halted() {
		t.Fatal("controller did not halt when its watch stream closed")
	}
}

// TestWatchGapReplacesCacheContents rolls the store's replay log over the
// controller's watch position between two long-polls, with a deletion inside
// the lost stretch. The stream reports the gap; the cache re-lists the kind
// and drops what vanished.
func TestWatchGapReplacesCacheContents(t *testing.T) {
	e := sim.NewEngine(14)
	e.SetTimeLimit(time.Minute)
	st := store.New(e, nil)
	lists := 0
	var names []string
	var ctrl *Controller
	e.Run("test", func(p *sim.Proc) {
		for _, n := range []string{"keep", "gone"} {
			if _, err := st.Create(p, newSession(n)); err != nil {
				t.Fatalf("Create: %v", err)
			}
		}
		remote, _ := remoteStore(p, e, st)
		handle := &countingLists{Interface: remote, lists: &lists}
		ctrl = New(Options{
			Name:  "gap",
			Store: handle,
			Kinds: []store.Kind{store.KindSession},
		}, Func(func(p *sim.Proc, c *Cache, key Key) error {
			if key.Name == "after" {
				names = append([]string(nil), c.Names(store.KindSession)...)
				ctrl.Stop()
			}
			return nil
		}))
		p.Spawn("writer", func(p *sim.Proc) {
			p.Sleep(10 * time.Millisecond)
			// No yield in here: all of it lands between two pulls.
			if err := st.Delete(p, store.KindSession, "gone", 0); err != nil {
				t.Errorf("Delete: %v", err)
			}
			for i := 0; i < 5000; i++ {
				name := fmt.Sprintf("churn-%d", i)
				if _, err := st.Create(p, &store.StagedModel{ObjectMeta: store.ObjectMeta{Name: name}}); err != nil {
					t.Errorf("Create: %v", err)
				}
			}
			p.Sleep(10 * time.Millisecond)
			if _, err := st.Create(p, newSession("after")); err != nil {
				t.Errorf("Create: %v", err)
			}
		})
		ctrl.Run(p)
	})
	if fmt.Sprint(names) != "[after keep]" {
		t.Errorf("cached sessions after the gap = %v, want [after keep]", names)
	}
	if lists != 2 {
		t.Errorf("store Lists = %d, want 2 (start-up, and the one the gap forced)", lists)
	}
}

// countingLists counts List calls on a store handle.
type countingLists struct {
	store.Interface
	lists *int
}

func (s *countingLists) List(p *sim.Proc, kind store.Kind) ([]store.Resource, uint64, error) {
	*s.lists++
	return s.Interface.List(p, kind)
}
