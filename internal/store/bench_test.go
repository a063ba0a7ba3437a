package store

import (
	"fmt"
	"testing"
	"time"

	"dgsf/internal/remoting"
	"dgsf/internal/sim"
)

// The store layer's micro-benchmarks (ROADMAP item 1), published as
// BENCH_controlplane.json and gated in CI. Each runs as one simulated
// process, the way every caller reaches the store.

// benchStore runs fn as a simulated process over a store holding n sessions
// named s0000..; fn times its own loop (b.ResetTimer after set-up).
func benchStore(b *testing.B, n int, fn func(p *sim.Proc, s *Store)) {
	b.ReportAllocs()
	e := sim.NewEngine(1)
	s := New(e, nil)
	e.Run("bench", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if _, err := s.Create(p, &Session{ObjectMeta: ObjectMeta{Name: fmt.Sprintf("s%04d", i)}}); err != nil {
				b.Error(err)
				return
			}
		}
		fn(p, s)
	})
}

// BenchmarkUpdateStatusCAS is one compare-and-swap status write, each
// presenting a DeepCopy of what the previous one returned (which is frozen).
func BenchmarkUpdateStatusCAS(b *testing.B) {
	benchStore(b, 1, func(p *sim.Proc, s *Store) {
		cur, err := s.Get(p, KindSession, "s0000")
		b.ResetTimer()
		for i := 0; i < b.N && err == nil; i++ {
			cur, err = s.UpdateStatus(p, cur.DeepCopy())
		}
		if err != nil {
			b.Error(err)
		}
	})
}

func benchList(b *testing.B, n int) {
	benchStore(b, n, func(p *sim.Proc, s *Store) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rs, _, err := s.List(p, KindSession); err != nil || len(rs) != n {
				b.Errorf("List: %d objects, err %v", len(rs), err)
				return
			}
		}
	})
}

func BenchmarkList_100(b *testing.B)  { benchList(b, 100) }
func BenchmarkList_1000(b *testing.B) { benchList(b, 1000) }

// benchWatchFanout is one status write delivered to n watchers of the kind,
// each of which takes its event off its queue.
func benchWatchFanout(b *testing.B, n int) {
	benchStore(b, 1, func(p *sim.Proc, s *Store) {
		ws := make([]*Watch, n)
		for i := range ws {
			w, err := s.Watch(p, KindSession, s.RV())
			if err != nil {
				b.Error(err)
				return
			}
			ws[i] = w
		}
		cur, err := s.Get(p, KindSession, "s0000")
		b.ResetTimer()
		for i := 0; i < b.N && err == nil; i++ {
			cur, err = s.UpdateStatus(p, cur.DeepCopy())
			for _, w := range ws {
				if _, ok := w.Events.TryRecv(); !ok {
					b.Error("watcher missed the write")
					return
				}
			}
		}
		if err != nil {
			b.Error(err)
		}
	})
}

func BenchmarkWatchFanout_1(b *testing.B)   { benchWatchFanout(b, 1) }
func BenchmarkWatchFanout_10(b *testing.B)  { benchWatchFanout(b, 10) }
func BenchmarkWatchFanout_100(b *testing.B) { benchWatchFanout(b, 100) }

// BenchmarkPullEventsFullLog is the long-poll of a caught-up consumer against
// a full replay log: its position is eight events back, one of which is of
// its kind — what every wake-up of a blocked remote pull does.
func BenchmarkPullEventsFullLog(b *testing.B) {
	benchStore(b, 1, func(p *sim.Proc, s *Store) {
		fill := func(n int) {
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("m%d", i)
				if _, err := s.Create(p, &StagedModel{ObjectMeta: ObjectMeta{Name: name}}); err != nil {
					b.Error(err)
				}
				if err := s.Delete(p, KindStagedModel, name, 0); err != nil {
					b.Error(err)
				}
			}
		}
		fill(logWindow)
		cur, _ := s.Get(p, KindSession, "s0000")
		if _, err := s.UpdateStatus(p, cur.DeepCopy()); err != nil {
			b.Error(err)
		}
		from := s.RV() - 1
		fill(3)
		if s.logged < logWindow {
			b.Errorf("log holds %d events, want a full window", s.logged)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			evs, _, err := s.PullEvents(p, KindSession, from, 128, time.Second)
			if err != nil || len(evs) != 1 {
				b.Errorf("pull: %d events, err %v", len(evs), err)
				return
			}
		}
	})
}

// benchRemote is benchStore with the store served behind a zero-latency sim
// connection: fn gets the remote handle and, for writing past it, the store.
func benchRemote(b *testing.B, fn func(p *sim.Proc, r Interface, s *Store)) {
	benchStore(b, 1, func(p *sim.Proc, s *Store) {
		e := p.Engine()
		l := remoting.NewListener(e)
		p.SpawnDaemon("store-serve", func(p *sim.Proc) { Serve(p, s, l) })
		fn(p, NewRemote(e, remoting.Dial(e, l, remoting.NetProfile{})), s)
	})
}

// BenchmarkRemoteUpdateStatus is BenchmarkUpdateStatusCAS through the wire:
// encode, Serve's dispatch, the store's write, and the stored object back.
// What the remote handle returns is its own decode, held by nobody else, so
// the loop writes it back without the local benchmark's DeepCopy.
func BenchmarkRemoteUpdateStatus(b *testing.B) {
	benchRemote(b, func(p *sim.Proc, r Interface, _ *Store) {
		cur, err := r.Get(p, KindSession, "s0000")
		b.ResetTimer()
		for i := 0; i < b.N && err == nil; i++ {
			cur, err = r.UpdateStatus(p, cur)
		}
		if err != nil {
			b.Error(err)
		}
	})
}

// BenchmarkRemotePull64 is one watch pull that carries 64 session events,
// from the blocked long-poll's wake-up to the last event off the watch
// queue. The 64 writes that feed it are made in-process with the clock
// stopped.
func BenchmarkRemotePull64(b *testing.B) {
	benchRemote(b, func(p *sim.Proc, r Interface, s *Store) {
		w, err := r.Watch(p, KindSession, s.RV())
		if err != nil {
			b.Error(err)
			return
		}
		defer w.Stop()
		cur, err := s.Get(p, KindSession, "s0000")
		b.ResetTimer()
		for i := 0; i < b.N && err == nil; i++ {
			b.StopTimer()
			for n := 0; n < 64 && err == nil; n++ {
				cur, err = s.UpdateStatus(p, cur.DeepCopy())
			}
			b.StartTimer()
			for n := 0; n < 64; n++ {
				if _, ok := w.Events.Recv(p); !ok {
					b.Error("watch stream ended")
					return
				}
			}
		}
		if err != nil {
			b.Error(err)
		}
	})
}
