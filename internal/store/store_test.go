package store

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dgsf/internal/metrics"
	"dgsf/internal/sim"
)

// run executes fn as one simulated process.
func run(t *testing.T, fn func(p *sim.Proc, s *Store)) {
	t.Helper()
	e := sim.NewEngine(1)
	s := New(e, nil)
	e.Run("test", func(p *sim.Proc) { fn(p, s) })
}

func TestCreateGetSemantics(t *testing.T) {
	run(t, func(p *sim.Proc, s *Store) {
		in := &GPUServer{ObjectMeta: ObjectMeta{Name: "gs-0"}, Spec: GPUServerSpec{MemBytesPerGPU: 2}}
		stored, err := s.Create(p, in)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		m := stored.Meta()
		if m.UID == 0 || m.ResourceVersion == 0 || m.Generation != 1 {
			t.Fatalf("bad stored meta: %+v", m)
		}
		// The write kept its argument, and Get hands out that one object.
		got, err := s.Get(p, KindGPUServer, "gs-0")
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if stored != Resource(in) || got != stored {
			t.Fatal("Create or Get handed out something other than the stored object")
		}
		// An edit of a DeepCopy is the caller's alone.
		mine := got.DeepCopy().(*GPUServer)
		mine.Spec.MemBytesPerGPU = 99
		if again, _ := s.Get(p, KindGPUServer, "gs-0"); again.(*GPUServer).Spec.MemBytesPerGPU != 2 {
			t.Fatal("an edit of a DeepCopy reached the store")
		}
		// Writing back the stored object itself is refused, and changes nothing.
		rv := s.RV()
		if _, err := s.UpdateStatus(p, got); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("re-write of the stored object: got %v, want ErrBadRequest", err)
		}
		if _, err := s.Create(p, in); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("re-create of the stored object: got %v, want ErrBadRequest", err)
		}
		if s.RV() != rv || got.Meta().ResourceVersion != rv {
			t.Fatal("a refused write moved the store or the stored object")
		}
		if _, err := s.Create(p, mine); !IsExists(err) {
			t.Fatalf("duplicate create: got %v, want ErrExists", err)
		}
		if _, err := s.Get(p, KindGPUServer, "missing"); !IsNotFound(err) {
			t.Fatalf("missing get: got %v, want ErrNotFound", err)
		}
		if _, err := s.Create(p, &GPUServer{}); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("empty name: got %v, want ErrBadRequest", err)
		}
	})
}

func TestUpdateOptimisticConcurrency(t *testing.T) {
	run(t, func(p *sim.Proc, s *Store) {
		stored, err := s.Create(p, &Session{ObjectMeta: ObjectMeta{Name: "s1"}, Spec: SessionSpec{MemBytes: 1}})
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		a := stored.DeepCopy().(*Session)
		b := stored.DeepCopy().(*Session)
		a.Status.Phase = PhasePlaced
		if _, err := s.UpdateStatus(p, a); err != nil {
			t.Fatalf("first update: %v", err)
		}
		b.Status.Phase = PhaseFailed
		if _, err := s.UpdateStatus(p, b); !IsConflict(err) {
			t.Fatalf("stale update: got %v, want ErrConflict", err)
		}
		got, _ := s.Get(p, KindSession, "s1")
		if got.(*Session).Status.Phase != PhasePlaced {
			t.Fatalf("conflict overwrote state: %+v", got.(*Session).Status)
		}
	})
}

func TestGenerationBumpsOnSpecChangeOnly(t *testing.T) {
	run(t, func(p *sim.Proc, s *Store) {
		stored, _ := s.Create(p, &GPUServer{ObjectMeta: ObjectMeta{Name: "gs"}, Spec: GPUServerSpec{MemBytesPerGPU: 1}})
		cur := stored.DeepCopy().(*GPUServer)
		cur.Status.Capacity = 3
		updated, err := s.UpdateStatus(p, cur)
		if err != nil {
			t.Fatalf("status update: %v", err)
		}
		if g := updated.Meta().Generation; g != 1 {
			t.Fatalf("status update bumped generation to %d", g)
		}
		if updated.Meta().ResourceVersion <= stored.Meta().ResourceVersion {
			t.Fatal("status update did not bump RV")
		}
		cur = updated.DeepCopy().(*GPUServer)
		cur.Spec.StageBudget = 1
		updated, err = s.Update(p, cur)
		if err != nil {
			t.Fatalf("spec update: %v", err)
		}
		if g := updated.Meta().Generation; g != 2 {
			t.Fatalf("spec change: generation %d, want 2", g)
		}
		// Spec-preserving Update does not bump Generation.
		cur = updated.DeepCopy().(*GPUServer)
		updated, err = s.Update(p, cur)
		if err != nil {
			t.Fatalf("no-op update: %v", err)
		}
		if g := updated.Meta().Generation; g != 2 {
			t.Fatalf("no-op update: generation %d, want 2", g)
		}
	})
}

func TestUpdateStatusKeepsStoredSpec(t *testing.T) {
	run(t, func(p *sim.Proc, s *Store) {
		stored, _ := s.Create(p, &GPUServer{ObjectMeta: ObjectMeta{Name: "gs"}, Spec: GPUServerSpec{MemBytesPerGPU: 4}})
		cur := stored.DeepCopy().(*GPUServer)
		cur.Spec.MemBytesPerGPU = 1 // stale/garbled spec on a status write must be ignored
		cur.Status.Capacity = 1
		if _, err := s.UpdateStatus(p, cur); err != nil {
			t.Fatalf("update status: %v", err)
		}
		got, _ := s.Get(p, KindGPUServer, "gs")
		if got.(*GPUServer).Spec.MemBytesPerGPU != 4 {
			t.Fatalf("UpdateStatus overwrote spec: %+v", got.(*GPUServer).Spec)
		}
		if got.(*GPUServer).Status.Capacity != 1 {
			t.Fatalf("UpdateStatus lost status: %+v", got.(*GPUServer).Status)
		}
	})
}

func TestDeleteVersionCheck(t *testing.T) {
	run(t, func(p *sim.Proc, s *Store) {
		stored, _ := s.Create(p, &StagedModel{ObjectMeta: ObjectMeta{Name: "gs/m"}})
		if err := s.Delete(p, KindStagedModel, "gs/m", stored.Meta().ResourceVersion+7); !IsConflict(err) {
			t.Fatalf("stale delete: got %v, want ErrConflict", err)
		}
		if err := s.Delete(p, KindStagedModel, "gs/m", stored.Meta().ResourceVersion); err != nil {
			t.Fatalf("delete: %v", err)
		}
		if err := s.Delete(p, KindStagedModel, "gs/m", 0); !IsNotFound(err) {
			t.Fatalf("double delete: got %v, want ErrNotFound", err)
		}
	})
}

func TestListSortedAndVersioned(t *testing.T) {
	run(t, func(p *sim.Proc, s *Store) {
		for _, name := range []string{"b", "c", "a"} {
			if _, err := s.Create(p, &Session{ObjectMeta: ObjectMeta{Name: name}}); err != nil {
				t.Fatalf("create %s: %v", name, err)
			}
		}
		objs, rv, err := s.List(p, KindSession)
		if err != nil {
			t.Fatalf("list: %v", err)
		}
		if len(objs) != 3 || objs[0].Meta().Name != "a" || objs[2].Meta().Name != "c" {
			t.Fatalf("list not sorted: %v", objs)
		}
		if rv != s.RV() {
			t.Fatalf("list rv %d != store rv %d", rv, s.RV())
		}
	})
}

func TestWatchDeliversOrderedEvents(t *testing.T) {
	run(t, func(p *sim.Proc, s *Store) {
		w, err := s.Watch(p, KindSession, 0)
		if err != nil {
			t.Fatalf("watch: %v", err)
		}
		stored, _ := s.Create(p, &Session{ObjectMeta: ObjectMeta{Name: "s"}})
		cur := stored.DeepCopy().(*Session)
		cur.Status.Phase = PhaseDone
		updated, _ := s.UpdateStatus(p, cur)
		_ = s.Delete(p, KindSession, "s", updated.Meta().ResourceVersion)
		// Other kinds must not leak into the stream.
		_, _ = s.Create(p, &GPUServer{ObjectMeta: ObjectMeta{Name: "gs"}})
		want := []EventType{Added, Modified, Deleted}
		var lastRV uint64
		for _, wt := range want {
			ev, ok := w.Events.Recv(p)
			if !ok {
				t.Fatal("watch closed early")
			}
			if ev.Type != wt {
				t.Fatalf("event type %v, want %v", ev.Type, wt)
			}
			if ev.RV <= lastRV {
				t.Fatalf("events out of RV order: %d after %d", ev.RV, lastRV)
			}
			lastRV = ev.RV
			if ev.Object.Kind() != KindSession {
				t.Fatalf("foreign kind on stream: %v", ev.Object.Kind())
			}
		}
		w.Stop()
		if _, ok := w.Events.Recv(p); ok {
			t.Fatal("stream still open after Stop")
		}
	})
}

func TestWatchFromRVReplaysBacklog(t *testing.T) {
	run(t, func(p *sim.Proc, s *Store) {
		first, _ := s.Create(p, &Session{ObjectMeta: ObjectMeta{Name: "s1"}})
		_, _ = s.Create(p, &Session{ObjectMeta: ObjectMeta{Name: "s2"}})
		w, err := s.Watch(p, KindSession, first.Meta().ResourceVersion)
		if err != nil {
			t.Fatalf("watch: %v", err)
		}
		ev, ok := w.Events.Recv(p)
		if !ok || ev.Object.Meta().Name != "s2" {
			t.Fatalf("backlog replay: got %+v", ev)
		}
		w.Stop()
	})
}

// truncateLogPastDelete leaves the store with Session "keep" live, Session
// "gone" created and deleted, and the replay log overflowed so that neither
// "gone"'s deletion nor anything older is replayable. It returns the RV just
// after both creates: a consumer positioned there knows "gone" and has lost
// its deletion.
func truncateLogPastDelete(p *sim.Proc, s *Store) (fromRV uint64) {
	_, _ = s.Create(p, &Session{ObjectMeta: ObjectMeta{Name: "keep"}})
	_, _ = s.Create(p, &Session{ObjectMeta: ObjectMeta{Name: "gone"}})
	fromRV = s.RV()
	_ = s.Delete(p, KindSession, "gone", 0)
	for i := 0; i < logWindow+10; i++ {
		name := fmt.Sprintf("churn-%05d", i)
		obj, _ := s.Create(p, &StagedModel{ObjectMeta: ObjectMeta{Name: name}})
		_ = s.Delete(p, KindStagedModel, name, obj.Meta().ResourceVersion)
	}
	return fromRV
}

// checkGapThenKeep asserts the head of a stream opened at
// truncateLogPastDelete's position: the Gap marker first — the only thing
// that tells the consumer "gone" may be gone — then current state, which is
// "keep" alone.
func checkGapThenKeep(t *testing.T, s *Store, w *Watch, p *sim.Proc) {
	t.Helper()
	ev, ok := w.Events.Recv(p)
	if !ok || ev.Type != Gap || ev.Object != nil || ev.RV != s.RV() {
		t.Fatalf("first event after a truncated log: got %+v ok=%v, want Gap at RV %d", ev, ok, s.RV())
	}
	ev, ok = w.Events.Recv(p)
	if !ok || ev.Type != Added || ev.Object.Meta().Name != "keep" {
		t.Fatalf("relist fallback: got %+v ok=%v, want Added keep", ev, ok)
	}
}

func TestWatchFallsBackToRelistWhenLogTruncated(t *testing.T) {
	run(t, func(p *sim.Proc, s *Store) {
		fromRV := truncateLogPastDelete(p, s)
		w, err := s.Watch(p, KindSession, fromRV)
		if err != nil {
			t.Fatalf("watch: %v", err)
		}
		checkGapThenKeep(t, s, w, p)
		// The deletion inside the gap is never reported as an event.
		if ev, ok := w.Events.TryRecv(); ok {
			t.Fatalf("unexpected event after the relist: %+v", ev)
		}
		w.Stop()

		// A position the log still reaches replays without a marker.
		w, err = s.Watch(p, KindStagedModel, s.RV()-2)
		if err != nil {
			t.Fatalf("watch: %v", err)
		}
		for _, want := range []EventType{Added, Deleted} {
			if ev, ok := w.Events.TryRecv(); !ok || ev.Type != want {
				t.Fatalf("replay: got %+v ok=%v, want %v", ev, ok, want)
			}
		}
		w.Stop()
	})
}

func TestUpdateStatusAsyncDropsConflicts(t *testing.T) {
	run(t, func(p *sim.Proc, s *Store) {
		stored, _ := s.Create(p, &GPUServer{ObjectMeta: ObjectMeta{Name: "gs"}})
		stale := stored.DeepCopy().(*GPUServer)
		cur := stored.DeepCopy().(*GPUServer)
		cur.Status.Capacity = 1
		if _, err := s.UpdateStatus(p, cur); err != nil {
			t.Fatalf("update: %v", err)
		}
		stale.Status.Capacity = 42
		if err := s.UpdateStatusAsync(p, stale); err != nil {
			t.Fatalf("async conflict should be dropped, got %v", err)
		}
		got, _ := s.Get(p, KindGPUServer, "gs")
		if got.(*GPUServer).Status.Capacity != 1 {
			t.Fatalf("stale async write landed: %+v", got.(*GPUServer).Status)
		}
		// Non-conflict errors still surface.
		if err := s.UpdateStatusAsync(p, &GPUServer{ObjectMeta: ObjectMeta{Name: "nope"}}); !IsNotFound(err) {
			t.Fatalf("async on missing: got %v, want ErrNotFound", err)
		}
	})
}

func TestPullEventsLongPoll(t *testing.T) {
	e := sim.NewEngine(3)
	s := New(e, nil)
	e.Run("poller", func(p *sim.Proc) {
		p.Spawn("writer", func(p *sim.Proc) {
			p.Sleep(50 * time.Millisecond)
			_, _ = s.Create(p, &Session{ObjectMeta: ObjectMeta{Name: "late"}})
		})
		evs, nextRV, err := s.PullEvents(p, KindSession, 0, 16, time.Second)
		if err != nil {
			t.Errorf("pull: %v", err)
			return
		}
		if len(evs) != 1 || evs[0].Object.Meta().Name != "late" {
			t.Errorf("long poll missed the write: %+v", evs)
		}
		if nextRV != s.RV() {
			t.Errorf("nextRV %d != %d", nextRV, s.RV())
		}
		// A second poll from nextRV times out empty.
		evs, _, err = s.PullEvents(p, KindSession, nextRV, 16, 10*time.Millisecond)
		if err != nil || len(evs) != 0 {
			t.Errorf("empty poll: evs=%v err=%v", evs, err)
		}
	})
}

// logModel is the replay log as the plain slice it used to be: every event
// appended, the oldest dropped past logWindow, and the newest dropped RV kept
// per kind. It is fed by from-zero watches, which the store serves live and
// never from the ring, so the ring has to be indistinguishable from it.
type logModel struct {
	s         *Store
	feeds     []*Watch
	log       []Event
	truncated map[Kind]uint64
}

func newLogModel(t *testing.T, p *sim.Proc, s *Store) *logModel {
	t.Helper()
	m := &logModel{s: s, truncated: map[Kind]uint64{}}
	for _, kind := range Kinds() {
		w, err := s.Watch(p, kind, 0)
		if err != nil {
			t.Fatalf("watch %s: %v", kind, err)
		}
		m.feeds = append(m.feeds, w)
	}
	return m
}

// sync takes in what the store did since the last call. One write is one
// event, so calling it after every write keeps the slice in RV order.
func (m *logModel) sync() {
	for _, w := range m.feeds {
		for ev, ok := w.Events.TryRecv(); ok; ev, ok = w.Events.TryRecv() {
			m.log = append(m.log, ev)
			if len(m.log) > logWindow {
				m.truncated[m.log[0].Object.Kind()] = m.log[0].RV
				m.log = m.log[1:]
			}
		}
	}
}

// pull is the linear-scan reference PullEvents answers are compared against.
func (m *logModel) pull(kind Kind, fromRV uint64, max int) (evs []Event, next uint64) {
	if fromRV < m.truncated[kind] {
		return m.s.relist(m.s.keyspace(kind)), m.s.rv
	}
	for _, ev := range m.log {
		if ev.RV > fromRV && ev.Object.Kind() == kind {
			evs = append(evs, ev)
		}
	}
	if max > 0 && len(evs) > max {
		evs = evs[:max]
		return evs, evs[len(evs)-1].RV
	}
	return evs, m.s.rv
}

// checkPull compares one non-blocking PullEvents with the model: same events
// — the very same shared objects — and the same next position.
func (m *logModel) checkPull(t *testing.T, p *sim.Proc, kind Kind, from uint64, max int) {
	t.Helper()
	want, wantNext := m.pull(kind, from, max)
	got, gotNext, err := m.s.PullEvents(p, kind, from, max, 0)
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	if gotNext != wantNext || len(got) != len(want) {
		t.Fatalf("%s from %d max %d (store at %d, %d logged, kind truncated at %d): got %d events next %d, want %d next %d",
			kind, from, max, m.s.rv, m.s.logged, m.truncated[kind], len(got), gotNext, len(want), wantNext)
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("%s from %d max %d: event %d is %+v, want %+v", kind, from, max, j, got[j], want[j])
		}
	}
}

// TestPullEventsMatchesLinearScan drives a randomized write history over
// three kinds — short enough to keep the whole log, and long enough to
// truncate it — and checks every (kind, position, max) pull against the
// linear reference: same events, same next position, trimming and the
// truncated fallback included.
func TestPullEventsMatchesLinearScan(t *testing.T) {
	kinds := []Kind{KindSession, KindStagedModel, KindGPUServer}
	for _, writes := range []int{300, logWindow + 700} {
		run(t, func(p *sim.Proc, s *Store) {
			m := newLogModel(t, p, s)
			rng := p.Rand()
			for i := 0; i < writes; i++ {
				kind := kinds[rng.Intn(len(kinds))]
				name := fmt.Sprintf("o%d", rng.Intn(12))
				cur, err := s.Get(p, kind, name)
				switch {
				case IsNotFound(err):
					obj, _ := NewOfKind(kind)
					obj.Meta().Name = name
					_, _ = s.Create(p, obj)
				case rng.Intn(4) == 0:
					_ = s.Delete(p, kind, name, 0)
				default:
					_, _ = s.UpdateStatus(p, cur.DeepCopy())
				}
				m.sync()
			}
			positions := []uint64{0, s.rv - 1, s.rv}
			for _, kind := range kinds {
				if tr := m.truncated[kind]; tr > 0 {
					positions = append(positions, tr-1, tr)
				}
			}
			for i := 0; i < 40; i++ {
				positions = append(positions, uint64(rng.Int63n(int64(s.rv)+1)))
			}
			for _, kind := range kinds {
				for _, from := range positions {
					for _, max := range []int{1, 7, 256} {
						m.checkPull(t, p, kind, from, max)
					}
				}
			}
		})
	}
}

// TestPullEventsBlockedAcrossForeignWrites parks a long-poll on one kind
// while another kind is written. The foreign writes do not wake it, and the
// poll returns exactly the one event of its kind — even when the log rolls
// over its position meanwhile, in a hundred steps or in one: every event
// dropped was another kind's, so it lost nothing and is handed no Gap.
func TestPullEventsBlockedAcrossForeignWrites(t *testing.T) {
	for _, tc := range []struct {
		foreign, perWake int
	}{
		{foreign: 50, perWake: 1},
		{foreign: logWindow + 50, perWake: 100},
		{foreign: logWindow + 50, perWake: logWindow + 50},
	} {
		e := sim.NewEngine(3)
		s := New(e, nil)
		e.Run("poller", func(p *sim.Proc) {
			p.Spawn("writer", func(p *sim.Proc) {
				for i := 0; i < tc.foreign; i++ {
					if i%tc.perWake == 0 {
						p.Sleep(time.Millisecond)
					}
					_, _ = s.Create(p, &StagedModel{ObjectMeta: ObjectMeta{Name: fmt.Sprintf("m%05d", i)}})
				}
				p.Sleep(time.Millisecond)
				_, _ = s.Create(p, &Session{ObjectMeta: ObjectMeta{Name: "late"}})
			})
			evs, nextRV, err := s.PullEvents(p, KindSession, 0, 16, time.Second)
			if err != nil || nextRV != s.RV() {
				t.Fatalf("pull: err=%v nextRV=%d, store at %d", err, nextRV, s.RV())
			}
			if len(evs) != 1 || evs[0].Type != Added || evs[0].Object.Meta().Name != "late" {
				t.Errorf("%+v: got %+v, want Added late", tc, evs)
			}
			// The kind that did lose events says so to a consumer left behind.
			evs, _, err = s.PullEvents(p, KindStagedModel, 0, 16, 0)
			if rolled := tc.foreign > logWindow; err != nil || (len(evs) > 0 && evs[0].Type == Gap) != rolled {
				t.Errorf("%+v: StagedModel pull from 0: err=%v first event %+v, want a Gap marker: %v", tc, err, evs[0], rolled)
			}
		})
	}
}

func TestStoreMetrics(t *testing.T) {
	e := sim.NewEngine(1)
	reg := metrics.NewRegistry()
	s := New(e, reg)
	e.Run("test", func(p *sim.Proc) {
		stored, _ := s.Create(p, &Session{ObjectMeta: ObjectMeta{Name: "s"}})
		stale := stored.DeepCopy().(*Session)
		cur := stored.DeepCopy().(*Session)
		cur.Status.Phase = PhaseDone
		_, _ = s.UpdateStatus(p, cur)
		_, _ = s.UpdateStatus(p, stale) // conflict
		w, _ := s.Watch(p, KindSession, 0)
		_, _ = s.Create(p, &Session{ObjectMeta: ObjectMeta{Name: "s2"}})
		w.Stop()
	})
	if got := reg.Get("store_writes_total"); got != 3 {
		t.Errorf("writes = %d, want 3", got)
	}
	if got := reg.Get("store_conflicts_total"); got != 1 {
		t.Errorf("conflicts = %d, want 1", got)
	}
	if reg.Get("store_watch_events_total") == 0 {
		t.Error("watch events not counted")
	}
	if got := reg.Get("store_objects"); got != 2 {
		t.Errorf("objects gauge = %d, want 2", got)
	}
	if got := reg.Get("store_watchers"); got != 0 {
		t.Errorf("watchers gauge = %d, want 0 after Stop", got)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	trace := func() string {
		e := sim.NewEngine(7)
		s := New(e, nil)
		var out string
		e.Run("test", func(p *sim.Proc) {
			w, _ := s.Watch(p, KindSession, 0)
			for i := 0; i < 5; i++ {
				name := fmt.Sprintf("s%d", i)
				obj, _ := s.Create(p, &Session{ObjectMeta: ObjectMeta{Name: name}})
				c := obj.DeepCopy().(*Session)
				c.Status.Phase = PhaseDone
				_, _ = s.UpdateStatus(p, c)
			}
			for i := 0; i < 10; i++ {
				ev, _ := w.Events.Recv(p)
				out += fmt.Sprintf("%s:%s@%d;", ev.Type, ev.Object.Meta().Name, ev.RV)
			}
			w.Stop()
		})
		return out
	}
	if a, b := trace(), trace(); a != b {
		t.Fatalf("nondeterministic event stream:\n%s\n%s", a, b)
	}
}

func TestFuseBlowsBetweenWrites(t *testing.T) {
	run(t, func(p *sim.Proc, s *Store) {
		f := NewFuse(s)
		blown := 0
		f.Blown = func() { blown++ }
		obj, err := f.Create(p, &Session{ObjectMeta: ObjectMeta{Name: "s"}})
		if err != nil {
			t.Fatalf("pre-arm create: %v", err)
		}
		f.Arm(1)
		c := obj.DeepCopy().(*Session)
		c.Status.Phase = PhasePlaced
		placed, err := f.UpdateStatus(p, c) // write 1: allowed
		if err != nil {
			t.Fatalf("armed write 1: %v", err)
		}
		c2 := placed.DeepCopy().(*Session)
		c2.Status.Phase = PhaseRunning
		if _, err := f.UpdateStatus(p, c2); !IsHalted(err) { // write 2: crash
			t.Fatalf("armed write 2: got %v, want ErrHalted", err)
		}
		if !f.IsBlown() || blown != 1 {
			t.Fatalf("fuse state: blown=%v cb=%d", f.IsBlown(), blown)
		}
		// Everything, including reads, now fails.
		if _, err := f.Get(p, KindSession, "s"); !IsHalted(err) {
			t.Fatalf("read after blow: got %v", err)
		}
		// The store itself is untouched: write 1 landed, write 2 did not.
		got, err := s.Get(p, KindSession, "s")
		if err != nil || got.(*Session).Status.Phase != PhasePlaced {
			t.Fatalf("store state after crash: %+v err=%v", got, err)
		}
	})
}
