package store

import (
	"fmt"
	"testing"
	"time"

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
// presenting the version the previous one returned.
func BenchmarkUpdateStatusCAS(b *testing.B) {
	benchStore(b, 1, func(p *sim.Proc, s *Store) {
		cur, err := s.Get(p, KindSession, "s0000")
		b.ResetTimer()
		for i := 0; i < b.N && err == nil; i++ {
			cur, err = s.UpdateStatus(p, cur)
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
			cur, err = s.UpdateStatus(p, cur)
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
// its kind — what every wake-up of a blocked StoreWatchPull does.
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
		if _, err := s.UpdateStatus(p, cur); err != nil {
			b.Error(err)
		}
		from := s.RV() - 1
		fill(3)
		if len(s.log) != logWindow {
			b.Errorf("log holds %d events, want a full window", len(s.log))
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
