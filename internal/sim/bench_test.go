package sim

import (
	"fmt"
	"testing"
	"time"
)

// The engine's micro-benchmarks (ROADMAP item 1), published as
// BENCH_sim.json and gated in CI. Each body runs as the root process of a
// fresh engine and times its own loop, so set-up is excluded.

func benchSim(b *testing.B, root func(p *Proc, e *Engine)) {
	b.ReportAllocs()
	e := NewEngine(1)
	e.Run("bench", func(p *Proc) { root(p, e) })
}

// BenchmarkSleepLoop is a sleep that parks: two processes sleep in lock
// step, so each one's deadline is never the only pending timer and every
// sleep is a timer push, a goroutine hand-off and a timer pop.
func BenchmarkSleepLoop(b *testing.B) {
	benchSim(b, func(p *Proc, e *Engine) {
		wg := NewWaitGroup(e)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			p.Spawn("sleeper", func(p *Proc) {
				for i := 0; i < b.N/2+1; i++ {
					p.Sleep(time.Microsecond)
				}
				wg.Done()
			})
		}
		b.ResetTimer()
		wg.Wait(p)
	})
}

// BenchmarkSleepInPlace is a sleep by the only runnable process with no
// other timer pending: the caller is the next process dispatched.
func BenchmarkSleepInPlace(b *testing.B) {
	benchSim(b, func(p *Proc, e *Engine) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
}

// BenchmarkAtTick is one firing of a callback that re-arms itself: a timer
// pop, the callback run without the lock and a timer push, with no process
// woken.
func BenchmarkAtTick(b *testing.B) {
	benchSim(b, func(p *Proc, e *Engine) {
		n := 0
		var tick func()
		tick = func() {
			if n++; n < b.N {
				e.At(e.Now()+time.Microsecond, tick)
			}
		}
		b.ResetTimer()
		e.At(p.Now()+time.Microsecond, tick)
		p.Sleep(time.Duration(b.N+1) * time.Microsecond)
	})
}

// BenchmarkQueuePingPong is one round trip between two processes over two
// queues: two blocking receives, two hand-offs.
func BenchmarkQueuePingPong(b *testing.B) {
	benchSim(b, func(p *Proc, e *Engine) {
		ping, pong := NewQueue[int](e), NewQueue[int](e)
		p.SpawnDaemon("echo", func(p *Proc) {
			for {
				v, _ := ping.Recv(p)
				pong.Send(v)
			}
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ping.Send(i)
			pong.Recv(p)
		}
	})
}

// BenchmarkSpawnExit is one process spawned, run to completion and reaped.
func BenchmarkSpawnExit(b *testing.B) {
	benchSim(b, func(p *Proc, e *Engine) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Spawn("child", func(*Proc) {})
			p.Yield()
		}
	})
}

// BenchmarkSpawnRandExit is BenchmarkSpawnExit with one draw from the
// child's random source: the source an exited child leaves is re-seeded for
// the next, so the draw adds a seeding and no allocation.
func BenchmarkSpawnRandExit(b *testing.B) {
	benchSim(b, func(p *Proc, e *Engine) {
		child := func(p *Proc) { p.Rand().Int63() }
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Spawn("child", child)
			p.Yield()
		}
	})
}

// BenchmarkTimerChurn_64procs is one wake-up with 64 processes sleeping
// staggered periods: the timer heap holds 64 entries and the run queue is
// rarely a single process — the shape of the paper_mix workload.
func BenchmarkTimerChurn_64procs(b *testing.B) {
	const procs = 64
	benchSim(b, func(p *Proc, e *Engine) {
		wg := NewWaitGroup(e)
		for i := 0; i < procs; i++ {
			period := time.Duration(50+i) * time.Microsecond
			wg.Add(1)
			p.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				for r := 0; r < b.N/procs+1; r++ {
					p.Sleep(period)
				}
				wg.Done()
			})
		}
		b.ResetTimer()
		wg.Wait(p)
	})
}

// BenchmarkCondTimeoutCancel is one timed wait that is signaled before its
// deadline: a timer armed and cancelled per operation, never fired.
func BenchmarkCondTimeoutCancel(b *testing.B) {
	benchSim(b, func(p *Proc, e *Engine) {
		c := NewCond(e)
		p.SpawnDaemon("waiter", func(p *Proc) {
			for {
				c.WaitTimeout(p, time.Hour)
			}
		})
		p.Yield() // the waiter parks
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Signal()
			p.Yield()
		}
	})
}
