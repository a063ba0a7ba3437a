package store

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dgsf/internal/remoting"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

// The tests that lock the write path's contract: what a write may allocate,
// that a stored object never changes once handed out, that the ring replays
// like the slice it replaced, and that every kind's Spec is copied whole.

// fillLog rolls the replay log over with StagedModel churn, so that every
// later write drops an event.
func fillLog(p *sim.Proc, s *Store) {
	for i := 0; s.logged < logWindow+2; i++ {
		name := fmt.Sprintf("churn-%d", i)
		_, _ = s.Create(p, &StagedModel{ObjectMeta: ObjectMeta{Name: name}})
		_ = s.Delete(p, KindStagedModel, name, 0)
	}
}

// TestWriteAllocs: a status write costs the one DeepCopy its caller makes —
// whatever the number of watchers, and with the log full — waking a blocked
// pull costs the slice it returns, and ModifyStatus is that one copy too.
func TestWriteAllocs(t *testing.T) {
	for _, watchers := range []int{0, 10, 100} {
		run(t, func(p *sim.Proc, s *Store) {
			fillLog(p, s)
			cur, err := s.Create(p, &Session{ObjectMeta: ObjectMeta{Name: "s"}, Spec: SessionSpec{MemBytes: 1}})
			if err != nil {
				t.Fatal(err)
			}
			ws := make([]*Watch, watchers)
			for i := range ws {
				if ws[i], err = s.Watch(p, KindSession, s.RV()); err != nil {
					t.Fatal(err)
				}
			}
			write := func() {
				if cur, err = s.UpdateStatus(p, cur.DeepCopy()); err != nil {
					t.Fatal(err)
				}
				for _, w := range ws {
					if _, ok := w.Events.TryRecv(); !ok {
						t.Fatal("watcher missed the write")
					}
				}
			}
			write() // the watch queues take their first slot
			if got := testing.AllocsPerRun(200, write); got > 1 {
				t.Errorf("UpdateStatus with %d watchers and a full log: %v allocs, want at most 1", watchers, got)
			}
		})
	}

	run(t, func(p *sim.Proc, s *Store) {
		fillLog(p, s)
		cur, _ := s.Create(p, &Session{ObjectMeta: ObjectMeta{Name: "s"}})
		pulled := sim.NewQueue[int](p.Engine())
		p.SpawnDaemon("poller", func(p *sim.Proc) {
			from := s.RV()
			for {
				evs, next, _ := s.PullEvents(p, KindSession, from, 16, time.Hour)
				from = next
				pulled.Send(len(evs))
			}
		})
		pair := func() {
			cur, _ = s.UpdateStatus(p, cur.DeepCopy())
			if n, _ := pulled.Recv(p); n != 1 {
				t.Fatalf("the woken pull returned %d events, want 1", n)
			}
		}
		p.Sleep(time.Millisecond) // the poller blocks in its first pull
		pair()
		if got := testing.AllocsPerRun(200, pair); got > 2 {
			t.Errorf("a write and the blocked pull it wakes: %v allocs, want at most 1 + 1", got)
		}
	})

	run(t, func(p *sim.Proc, s *Store) {
		fillLog(p, s)
		if _, err := s.Create(p, &GPUServer{ObjectMeta: ObjectMeta{Name: "gs"}}); err != nil {
			t.Fatal(err)
		}
		modify := func() {
			err := ModifyStatus(p, s, KindGPUServer, "gs", func(g *GPUServer) bool {
				g.Status.Capacity++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		modify()
		if got := testing.AllocsPerRun(200, modify); got != 1 {
			t.Errorf("ModifyStatus: %v allocs, want exactly 1", got)
		}
	})
}

// fill sets every field under v to a value that is neither zero nor what
// another salt gives it.
func fill(v reflect.Value, salt int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), salt+i+1)
		}
	case reflect.String:
		v.SetString(fmt.Sprintf("v%d", salt))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(salt))
	case reflect.Uint64:
		v.SetUint(uint64(salt))
	default:
		panic("fill: a resource field of kind " + v.Kind().String())
	}
}

// section returns r's Spec or Status struct for fill.
func section(r Resource, name string) reflect.Value {
	return reflect.ValueOf(r).Elem().FieldByName(name)
}

func encoded(r Resource) []byte {
	var e wire.Encoder
	encodeResource(&e, r)
	return e.Bytes()
}

// TestSpecCopyCoversEveryKind: for every kind, copySpec gives the
// destination the Spec the wire round trip — the only generic Spec accessor,
// and what the store used to copy with — gives it, touches nothing else, and
// specEqual tells the two Specs apart before and not after. A kind added
// without its typed case panics here.
func TestSpecCopyCoversEveryKind(t *testing.T) {
	for _, kind := range Kinds() {
		src, _ := NewOfKind(kind)
		fill(section(src, "Spec"), 100)
		newDst := func() Resource {
			dst, _ := NewOfKind(kind)
			fill(reflect.ValueOf(dst).Elem(), 200)
			return dst
		}
		got, want := newDst(), newDst()
		if specEqual(src, got) {
			t.Errorf("%s: specEqual does not see two different Specs", kind)
		}
		copySpec(src, got)
		var e wire.Encoder
		src.EncodeSpec(&e)
		want.DecodeSpec(wire.NewDecoder(e.Bytes()))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: copySpec gave %+v, the wire round trip %+v", kind, got, want)
		}
		if !specEqual(src, got) {
			t.Errorf("%s: specEqual does not see the copied Spec as equal", kind)
		}
	}
}

// handout is one object the store gave away and what it encoded to then.
type handout struct {
	from string
	obj  Resource
	was  []byte
}

// TestStoredObjectsFrozen runs ten thousand writes while callers scribble
// over everything that is theirs — DeepCopies of what Get and List returned,
// and the arguments of writes the store refused — and checks that every
// object the store handed out meanwhile (Get, List and write results, and
// the events of local watchers, of a remote pump's pulls, of a from-zero
// replay, of a replay of the full ring and of a relist) still encodes to the
// bytes it had when it was handed out. A refused write leaves its argument
// as it was.
func TestStoredObjectsFrozen(t *testing.T) {
	runRemote(t, 11, func(p *sim.Proc, r *Remote, _ remoting.AsyncCaller, s *Store) {
		var out []handout
		taken := map[string]int{}
		take := func(from string, evs ...Event) {
			for _, ev := range evs {
				if ev.Object != nil {
					taken[from]++
					out = append(out, handout{fmt.Sprintf("%s %s rv %d", from, ev.Type, ev.RV), ev.Object, encoded(ev.Object)})
				}
			}
		}
		kinds := []Kind{KindSession, KindStagedModel, KindGPUServer}
		var local []*Watch
		for _, kind := range kinds {
			w, err := s.Watch(p, kind, 0)
			if err != nil {
				t.Fatal(err)
			}
			local = append(local, w)
		}
		pump, err := r.Watch(p, KindSession, 0)
		if err != nil {
			t.Fatal(err)
		}
		drain := func() {
			for _, w := range local {
				for ev, ok := w.Events.TryRecv(); ok; ev, ok = w.Events.TryRecv() {
					take("watch", ev)
				}
			}
			for ev, ok := pump.Events.TryRecv(); ok; ev, ok = pump.Events.TryRecv() {
				take("pump", ev)
			}
		}
		replay := func(from string, kind Kind, fromRV uint64) {
			w, err := s.Watch(p, kind, fromRV)
			if err != nil {
				t.Fatal(err)
			}
			for ev, ok := w.Events.TryRecv(); ok; ev, ok = w.Events.TryRecv() {
				take(from, ev)
			}
			w.Stop()
		}
		scribble := func(r Resource, salt int) { fill(reflect.ValueOf(r).Elem(), salt) }

		result := func(from string, r Resource) {
			take(from, Event{Type: Modified, RV: r.Meta().ResourceVersion, Object: r})
		}

		rng := p.Rand()
		for i := 0; i < 10000; i++ {
			kind := kinds[rng.Intn(len(kinds))]
			name := fmt.Sprintf("o%d", rng.Intn(8))
			cur, err := s.Get(p, kind, name)
			switch {
			case IsNotFound(err):
				obj, _ := NewOfKind(kind)
				scribble(obj, i)
				obj.Meta().Name = name
				stored, err := s.Create(p, obj)
				if err != nil {
					t.Fatalf("create %d: %v", i, err)
				}
				result("create", stored)
			case rng.Intn(6) == 0:
				_ = s.Delete(p, kind, name, 0)
			default:
				result("get", cur)
				mine := cur.DeepCopy()
				fill(section(mine, "Status"), i)
				if i%4 == 0 {
					// A stale write is refused and leaves its argument the
					// caller's, as it was.
					stale := mine.DeepCopy()
					stale.Meta().ResourceVersion--
					fill(section(stale, "Spec"), -i)
					was := encoded(stale)
					if _, err := s.UpdateStatus(p, stale); !IsConflict(err) {
						t.Fatalf("stale write %d: got %v, want a conflict", i, err)
					}
					if !bytes.Equal(encoded(stale), was) {
						t.Fatalf("stale write %d changed its argument", i)
					}
					scribble(stale, -i)
				}
				var stored Resource
				if rng.Intn(3) == 0 {
					fill(section(mine, "Spec"), i)
					stored, err = s.Update(p, mine)
				} else {
					stored, err = s.UpdateStatus(p, mine)
				}
				if err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
				result("write", stored)
				scribble(stored.DeepCopy(), -i)
			}
			if i%100 == 0 {
				rs, _, _ := s.List(p, kind)
				for _, r := range rs {
					result("list", r)
					scribble(r.DeepCopy(), -i)
				}
				evs, _, _ := s.PullEvents(p, kind, s.RV()-50, 0, 0)
				take("pull", evs...)
				p.Sleep(time.Millisecond) // the pump's turn
			}
			if i == logWindow/2 {
				// While zero is still in the log, and with most of the
				// scribbling yet to come.
				for _, kind := range kinds {
					replay("from-zero", kind, 0)
				}
			}
			drain()
		}
		p.Sleep(time.Second)
		drain()
		for _, kind := range kinds {
			// By now zero is behind the log: a relist. The oldest position
			// the log still reaches replays all the ring holds of the kind.
			replay("relist", kind, 0)
			replay("replay", kind, s.keyspace(kind).truncatedAtRV)
		}
		if taken["watch"] != 10000 || taken["pump"] < 3000 || taken["pull"] == 0 ||
			taken["from-zero"] != logWindow/2+1 || taken["relist"] == 0 || taken["replay"] != logWindow ||
			taken["get"] == 0 || taken["list"] == 0 || taken["create"] == 0 || taken["write"] == 0 {
			t.Fatalf("objects handed out, by way: %v", taken)
		}
		for _, h := range out {
			if !bytes.Equal(encoded(h.obj), h.was) {
				t.Fatalf("%s: %s %q changed after it was handed out", h.from, h.obj.Kind(), h.obj.Meta().Name)
			}
		}
	})
}

// TestReplayRingMatchesSliceModel checks Watch and PullEvents against the
// plain-slice model where the ring could go wrong: one short of full, exactly
// full, one past, wrapped to the middle of the buffer and to exactly its
// start; from the position just before the oldest event, at it, after it and
// at the newest; with max trimming the answer on either side of the wrap.
func TestReplayRingMatchesSliceModel(t *testing.T) {
	kinds := []Kind{KindSession, KindStagedModel, KindGPUServer}
	for _, writes := range []int{logWindow - 1, logWindow, logWindow + 1, logWindow + logWindow/2, 2 * logWindow, 2*logWindow + 3} {
		run(t, func(p *sim.Proc, s *Store) {
			m := newLogModel(t, p, s)
			for i := 0; i < writes; i++ {
				// Half the writes go to one kind, so that the others' oldest
				// surviving events lie well inside the window.
				kind := kinds[(i%4)%3]
				name := fmt.Sprintf("o%d", i%5)
				cur, err := s.Get(p, kind, name)
				switch {
				case IsNotFound(err):
					obj, _ := NewOfKind(kind)
					obj.Meta().Name = name
					_, _ = s.Create(p, obj)
				case i%7 == 0:
					_ = s.Delete(p, kind, name, 0)
				default:
					_, _ = s.UpdateStatus(p, cur.DeepCopy())
				}
				m.sync()
			}
			if int(s.logged) != writes || len(m.log) != min(writes, logWindow) {
				t.Fatalf("%d writes logged %d events, the model holds %d", writes, s.logged, len(m.log))
			}
			oldest, newest := m.log[0].RV, s.rv
			positions := []uint64{0, oldest - 1, oldest, oldest + 1, newest - 1, newest,
				oldest + logWindow/2 - 1, oldest + logWindow/2}
			for _, kind := range kinds {
				if tr := m.truncated[kind]; tr > 0 {
					positions = append(positions, tr-1, tr)
				}
			}
			for _, kind := range kinds {
				for _, from := range positions {
					for _, max := range []int{1, 7, 256, logWindow/2 + 100, 2 * logWindow} {
						m.checkPull(t, p, kind, from, max)
					}
					want, _ := m.pull(kind, from, 0)
					w, err := s.Watch(p, kind, from)
					if err != nil {
						t.Fatal(err)
					}
					for j, wantEv := range want {
						if ev, ok := w.Events.TryRecv(); !ok || ev != wantEv {
							t.Fatalf("%d writes, watch %s from %d: event %d is %+v (ok=%v), want %+v", writes, kind, from, j, ev, ok, wantEv)
						}
					}
					if ev, ok := w.Events.TryRecv(); ok {
						t.Fatalf("%d writes, watch %s from %d: extra event %+v", writes, kind, from, ev)
					}
					w.Stop()
				}
			}
		})
	}
}
