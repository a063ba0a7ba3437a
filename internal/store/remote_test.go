package store

import (
	"reflect"
	"testing"
	"time"

	"dgsf/internal/remoting"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

// runRemote builds a store served behind the sim transport and hands the test
// body a Remote handle plus the underlying conn (for fault injection) and the
// in-process store (for observing server-side state directly).
func runRemote(t *testing.T, seed int64, fn func(p *sim.Proc, r *Remote, conn remoting.AsyncCaller, s *Store)) {
	t.Helper()
	e := sim.NewEngine(seed)
	e.SetTimeLimit(time.Hour)
	s := New(e, nil)
	l := remoting.NewListener(e)
	e.Run("test", func(p *sim.Proc) {
		p.SpawnDaemon("store-serve", func(p *sim.Proc) { Serve(p, s, l) })
		conn := remoting.Dial(e, l, remoting.NetProfile{RTT: 100 * time.Microsecond})
		fn(p, NewRemote(e, conn), conn, s)
	})
}

func TestRemoteCRUDOverWire(t *testing.T) {
	runRemote(t, 1, func(p *sim.Proc, r *Remote, conn remoting.AsyncCaller, s *Store) {
		gs := &GPUServer{}
		gs.ObjectMeta.Name = "gpu-0"
		gs.Spec.MemBytesPerGPU = 4
		gs.Spec.StageBudget = 2
		created, err := r.Create(p, gs)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		cm := created.Meta()
		if cm.ResourceVersion == 0 || cm.UID == 0 || cm.Generation != 1 {
			t.Fatalf("bad created meta: %+v", cm)
		}

		// Get round-trips the typed resource.
		got, err := r.Get(p, KindGPUServer, "gpu-0")
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if got.(*GPUServer).Spec.MemBytesPerGPU != 4 {
			t.Fatalf("spec lost over the wire: %+v", got)
		}
		if _, err := r.Get(p, KindGPUServer, "nope"); !IsNotFound(err) {
			t.Fatalf("want ErrNotFound through the wire, got %v", err)
		}

		// Spec update bumps generation; a stale RV conflicts with the typed
		// sentinel surviving encode/decode.
		upd := got.DeepCopy().(*GPUServer)
		upd.Spec.MemBytesPerGPU = 8
		upd2, err := r.Update(p, upd)
		if err != nil {
			t.Fatalf("Update: %v", err)
		}
		if upd2.Meta().Generation != 2 {
			t.Fatalf("generation = %d, want 2", upd2.Meta().Generation)
		}
		stale := got.DeepCopy().(*GPUServer) // still carries the old RV
		stale.Spec.MemBytesPerGPU = 16
		if _, err := r.Update(p, stale); !IsConflict(err) {
			t.Fatalf("want ErrConflict through the wire, got %v", err)
		}

		// Status update keeps the stored spec.
		st := upd2.DeepCopy().(*GPUServer)
		st.Status.Healthy = true
		st.Spec.MemBytesPerGPU = 999 // must be ignored
		st2, err := r.UpdateStatus(p, st)
		if err != nil {
			t.Fatalf("UpdateStatus: %v", err)
		}
		if st2.(*GPUServer).Spec.MemBytesPerGPU != 8 || !st2.(*GPUServer).Status.Healthy {
			t.Fatalf("UpdateStatus mangled the object: %+v", st2)
		}

		// List is sorted and versioned; Delete enforces the RV check.
		rs, rv, err := r.List(p, KindGPUServer)
		if err != nil || len(rs) != 1 || rv == 0 {
			t.Fatalf("List: %v %d %v", rs, rv, err)
		}
		if err := r.Delete(p, KindGPUServer, "gpu-0", 1); !IsConflict(err) {
			t.Fatalf("stale delete: want ErrConflict, got %v", err)
		}
		if err := r.Delete(p, KindGPUServer, "gpu-0", 0); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if _, err := r.Get(p, KindGPUServer, "gpu-0"); !IsNotFound(err) {
			t.Fatalf("object survived delete: %v", err)
		}
	})
}

func TestRemoteAsyncStatusLaneFIFO(t *testing.T) {
	runRemote(t, 2, func(p *sim.Proc, r *Remote, conn remoting.AsyncCaller, s *Store) {
		sess := &Session{}
		sess.ObjectMeta.Name = "s1"
		sess.Spec.MemBytes = 1 << 30
		created, err := r.Create(p, sess)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		up := created.DeepCopy().(*Session)
		up.Status.Phase = PhaseRunning
		// One-way submission, then a synchronous Get as the fence: the
		// transport guarantees FIFO between Submit and Roundtrip, so the
		// status write must be visible to the fenced read.
		if err := r.UpdateStatusAsync(p, up); err != nil {
			t.Fatalf("UpdateStatusAsync: %v", err)
		}
		got, err := r.Get(p, KindSession, "s1")
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if got.(*Session).Status.Phase != PhaseRunning {
			t.Fatalf("async status write not visible after fence: %+v", got)
		}

		// A conflicting async write is dropped server-side, not an error.
		staleAgain := created.DeepCopy().(*Session) // old RV now
		staleAgain.Status.Phase = PhaseFailed
		if err := r.UpdateStatusAsync(p, staleAgain); err != nil {
			t.Fatalf("conflicting async write should be dropped, got %v", err)
		}
		got2, err := r.Get(p, KindSession, "s1")
		if err != nil || got2.(*Session).Status.Phase != PhaseRunning {
			t.Fatalf("dropped conflict mutated state: %+v %v", got2, err)
		}
	})
}

func TestRemoteWatchPumpsEvents(t *testing.T) {
	runRemote(t, 3, func(p *sim.Proc, r *Remote, conn remoting.AsyncCaller, s *Store) {
		w, err := r.Watch(p, KindSession, 0)
		if err != nil {
			t.Fatalf("Watch: %v", err)
		}
		sess := &Session{}
		sess.ObjectMeta.Name = "s1"
		created, err := r.Create(p, sess)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		up := created.DeepCopy().(*Session)
		up.Status.Phase = PhaseDone
		if _, err := r.UpdateStatus(p, up); err != nil {
			t.Fatalf("UpdateStatus: %v", err)
		}
		if err := r.Delete(p, KindSession, "s1", 0); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		wantTypes := []EventType{Added, Modified, Deleted}
		var lastRV uint64
		for i, want := range wantTypes {
			ev, ok := w.Events.Recv(p)
			if !ok {
				t.Fatalf("watch closed after %d events", i)
			}
			if ev.Type != want {
				t.Fatalf("event %d: type %v, want %v", i, ev.Type, want)
			}
			if ev.RV <= lastRV {
				t.Fatalf("event %d: RV %d not monotonic (last %d)", i, ev.RV, lastRV)
			}
			lastRV = ev.RV
			if ev.Object.Meta().Name != "s1" {
				t.Fatalf("event %d: wrong object %q", i, ev.Object.Meta().Name)
			}
		}
		w.Stop()
	})
}

// TestRemoteWatchReportsGap is the wire twin of
// TestWatchFallsBackToRelistWhenLogTruncated: the long-poll carries the Gap
// marker ahead of the synthesized state, and the stream goes on from there.
func TestRemoteWatchReportsGap(t *testing.T) {
	runRemote(t, 5, func(p *sim.Proc, r *Remote, conn remoting.AsyncCaller, s *Store) {
		fromRV := truncateLogPastDelete(p, s)
		w, err := r.Watch(p, KindSession, fromRV)
		if err != nil {
			t.Fatalf("Watch: %v", err)
		}
		checkGapThenKeep(t, s, w, p)
		if _, err := s.Create(p, &Session{ObjectMeta: ObjectMeta{Name: "later"}}); err != nil {
			t.Fatalf("Create: %v", err)
		}
		ev, ok := w.Events.Recv(p)
		if !ok || ev.Type != Added || ev.Object.Meta().Name != "later" {
			t.Fatalf("after the gap: got %+v ok=%v, want Added later", ev, ok)
		}
		w.Stop()
	})
}

func TestRemoteWatchPumpExitsOnConnFault(t *testing.T) {
	runRemote(t, 7, func(p *sim.Proc, r *Remote, conn remoting.AsyncCaller, s *Store) {
		w, err := r.Watch(p, KindGPUServer, 0)
		if err != nil {
			t.Fatalf("Watch: %v", err)
		}
		// Let the pump issue at least one pull, then sever the connection:
		// the pump must close the event queue rather than retry forever.
		p.Sleep(time.Millisecond)
		conn.(remoting.Faultable).Break()
		if _, ok := w.Events.Recv(p); ok {
			t.Fatal("got event after connection break")
		}
	})
}

// cannedCaller answers every round trip with one fixed reply.
type cannedCaller struct{ resp []byte }

func (c *cannedCaller) Roundtrip(p *sim.Proc, req []byte, reqData int64) ([]byte, error) {
	return c.resp, nil
}
func (c *cannedCaller) Close() {}

// TestRemoteGetInternsNames: once the Client has seen a reply's names, a Get
// that repeats them decodes every string from its Interner, and the object
// itself is the one allocation.
func TestRemoteGetInternsNames(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("race detector drops sync.Pool items; alloc counts are meaningless")
	}
	sess := &Session{
		ObjectMeta: ObjectMeta{Name: "fn-17", UID: 3, ResourceVersion: 9, Generation: 1},
		Spec:       SessionSpec{MemBytes: 1 << 30},
		Status:     SessionStatus{Phase: PhasePlaced, Server: "gs-3", Attempts: 1, Reason: "retry"},
	}
	var e wire.Encoder
	e.I32(0)
	(&GetResp{Obj: sess}).Encode(&e)
	c := &Client{T: &cannedCaller{resp: e.Bytes()}}
	var got Resource
	get := func() {
		var err error
		if got, err = c.Get(nil, KindSession, "fn-17"); err != nil {
			t.Fatal(err)
		}
	}
	get()
	if n := testing.AllocsPerRun(200, get); n != 1 {
		t.Errorf("a repeated-name Get: %v allocs, want 1 (the object)", n)
	}
	if !reflect.DeepEqual(got, Resource(sess)) {
		t.Errorf("Get decoded %+v, want %+v", got, sess)
	}
}

// TestServedPullAllocatesOnlyObjects: a watch pull through Serve and the
// Remote pump replays into the pull worker's buffer and decodes into the
// pump's, so once both have their size, n status writes and the pull that
// carries them to the watcher cost the n copies the writers edit and the n
// objects the pump decodes, nothing more.
func TestServedPullAllocatesOnlyObjects(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("race detector drops sync.Pool items; alloc counts are meaningless")
	}
	const n = 16
	runRemote(t, 1, func(p *sim.Proc, r *Remote, _ remoting.AsyncCaller, s *Store) {
		cur, err := s.Create(p, &Session{ObjectMeta: ObjectMeta{Name: "s"}, Status: SessionStatus{Phase: PhaseRunning, Server: "gs-0"}})
		if err != nil {
			t.Fatal(err)
		}
		w, err := r.Watch(p, KindSession, s.RV())
		if err != nil {
			t.Fatal(err)
		}
		defer w.Stop()
		round := func() {
			for i := 0; i < n; i++ {
				if cur, err = s.UpdateStatus(p, cur.DeepCopy()); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				ev, ok := w.Events.Recv(p)
				if !ok || ev.RV > cur.Meta().ResourceVersion {
					t.Fatalf("event %d: %+v, %v", i, ev, ok)
				}
			}
		}
		round()
		if got := testing.AllocsPerRun(50, round); got != 2*n {
			t.Errorf("%d writes and the served pull that carries them: %v allocs, want %d (the copies and the decoded objects)", n, got, 2*n)
		}
	})
}
