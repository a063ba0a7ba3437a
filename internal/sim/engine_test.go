package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEngine(1)
	var at time.Duration
	e.Run("root", func(p *Proc) {
		p.Sleep(3 * time.Second)
		at = p.Now()
	})
	if at != 3*time.Second {
		t.Fatalf("Now after Sleep(3s) = %v, want 3s", at)
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	e := NewEngine(1)
	e.Run("root", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-time.Second)
		if got := p.Now(); got != 0 {
			t.Errorf("Now = %v, want 0", got)
		}
	})
}

func TestVirtualTimeIsNotWallClock(t *testing.T) {
	e := NewEngine(1)
	start := time.Now()
	e.Run("root", func(p *Proc) {
		p.Sleep(1000 * time.Hour)
	})
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("simulating 1000h took %v of wall time", wall)
	}
	if got := e.Now(); got != 1000*time.Hour {
		t.Fatalf("Now = %v, want 1000h", got)
	}
}

func TestSpawnInterleaving(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Run("root", func(p *Proc) {
		p.Spawn("a", func(p *Proc) {
			p.Sleep(10 * time.Millisecond)
			order = append(order, "a")
		})
		p.Spawn("b", func(p *Proc) {
			p.Sleep(5 * time.Millisecond)
			order = append(order, "b")
		})
		p.Sleep(20 * time.Millisecond)
		order = append(order, "root")
	})
	want := "b,a,root"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

func TestSimultaneousTimersFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Run("root", func(p *Proc) {
		wg := NewWaitGroup(e)
		for i := 0; i < 10; i++ {
			i := i
			wg.Add(1)
			p.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(time.Second) // all wake at the same instant
				order = append(order, i)
				wg.Done()
			})
		}
		wg.Wait(p)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO by spawn order", order)
		}
	}
}

func TestRunWaitsForAllNonDaemons(t *testing.T) {
	e := NewEngine(1)
	finished := false
	e.Run("root", func(p *Proc) {
		p.Spawn("slow", func(p *Proc) {
			p.Sleep(time.Minute)
			finished = true
		})
	})
	if !finished {
		t.Fatal("Run returned before spawned non-daemon finished")
	}
}

func TestDaemonDoesNotBlockRun(t *testing.T) {
	e := NewEngine(1)
	e.Run("root", func(p *Proc) {
		q := NewQueue[int](e)
		p.SpawnDaemon("server", func(p *Proc) {
			for {
				if _, ok := q.Recv(p); !ok {
					return
				}
			}
		})
		p.Sleep(time.Second)
	})
	if got := e.Now(); got != time.Second {
		t.Fatalf("Now = %v, want 1s", got)
	}
}

// TestHoldKeepsRunAliveUntilRelease: a daemon holding the engine is waited
// for like a non-daemon, and its Release ends the simulation on the spot —
// the ticker beside it takes no step past that instant.
func TestHoldKeepsRunAliveUntilRelease(t *testing.T) {
	e := NewEngine(1)
	ticks, after := 0, false
	e.Run("root", func(p *Proc) {
		p.SpawnDaemon("ticker", func(p *Proc) {
			for {
				p.Sleep(time.Second)
				ticks++
			}
		})
		e.Hold()
		p.SpawnDaemon("worker", func(p *Proc) {
			p.Sleep(2500 * time.Millisecond)
			e.Release()
			p.Yield()
			after = true
		})
	})
	if got := e.Now(); got != 2500*time.Millisecond || ticks != 2 || after {
		t.Fatalf("ended at %v after %d ticks (worker ran on: %v), want 2.5s, 2 ticks, false", got, ticks, after)
	}
}

// TestRunOwnsItsProcesses pins the end of a Run-mode simulation: the last
// non-daemon's exit stops the engine, so a daemon made ready by that
// process's final act takes no further step; the daemons are then killed one
// at a time in pid order (their deferred cleanup needs no locking); and Run
// returns only once they have unwound, with no call to Stop. What is left
// running after Run is idle carriers, and a second identical Run reuses them.
func TestRunOwnsItsProcesses(t *testing.T) {
	before, idleBefore := runtime.NumGoroutine(), idleCarriers()
	runOwned(t)
	limit := before + idleCarriers() - idleBefore
	after := settledGoroutines(limit)
	if after > limit {
		t.Fatalf("%d goroutines after Run, %d before plus %d new idle carriers: process goroutines leaked", after, before, limit-before)
	}
	runOwned(t)
	if again := settledGoroutines(after); again > after {
		t.Fatalf("%d goroutines after a second Run, %d after the first: its carriers were not reused", again, after)
	}
}

func runOwned(t *testing.T) {
	t.Helper()
	e := NewEngine(1)
	steps := 0
	var unwound []string
	e.Run("root", func(p *Proc) {
		q := NewQueue[int](e)
		for _, name := range []string{"parked-a", "parked-b"} {
			p.SpawnDaemon(name, func(p *Proc) {
				defer func() { unwound = append(unwound, p.Name()) }()
				for {
					if _, ok := q.Recv(p); !ok {
						return
					}
					steps++
				}
			})
		}
		p.SpawnDaemon("ticker", func(p *Proc) {
			defer func() { unwound = append(unwound, p.Name()) }()
			for {
				p.Sleep(time.Millisecond)
			}
		})
		p.Sleep(10 * time.Millisecond)
		q.Send(1)
		q.Send(2)
		p.Yield() // both receivers run: the engine is still live
		// Final acts: parked-a is ready when root exits, and a daemon is
		// spawned that never gets to run.
		q.Send(3)
		p.SpawnDaemon("unstarted", func(p *Proc) { steps += 100 })
	})
	if steps != 2 {
		t.Fatalf("daemons took %d steps, want 2: one ran after the last non-daemon exited", steps)
	}
	if got, want := strings.Join(unwound, " "), "parked-a parked-b ticker"; got != want {
		t.Fatalf("daemons unwound as %q, want %q", got, want)
	}
	if got := e.Now(); got != 10*time.Millisecond {
		t.Fatalf("Now = %v, want 10ms: a timer fired after the simulation ended", got)
	}
}

// settledGoroutines returns the goroutine count once it is at most want, or
// after five seconds: a goroutine is still counted for an instant after its
// last statement.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "deadlock") {
			t.Fatalf("panic = %v, want deadlock dump", r)
		}
		if !strings.Contains(msg, "stuck") {
			t.Fatalf("dump does not name the blocked process: %q", msg)
		}
	}()
	e := NewEngine(1)
	e.Run("root", func(p *Proc) {
		q := NewQueue[int](e)
		p.Spawn("stuck", func(p *Proc) { q.Recv(p) })
	})
}

func TestOpenModeIdlesInsteadOfDeadlocking(t *testing.T) {
	e := NewOpenEngine(1)
	q := NewQueue[int](e)
	got := make(chan int, 1)
	<-e.Inject("setup", func(p *Proc) {}) // warm up the engine
	done := e.Inject("consumer", func(p *Proc) {
		v, _ := q.Recv(p)
		got <- v
	})
	// The consumer is now blocked with no timers; in Run mode this would be
	// a deadlock. Feed it from outside.
	e.Post(func() { q.Send(42) })
	<-done
	if v := <-got; v != 42 {
		t.Fatalf("consumer got %d, want 42", v)
	}
}

// TestPostFromManyGoroutines: goroutines post into an open engine while two
// processes ping-pong through it. Every fn runs once, on the loop (it reads
// the ping count the processes write, unsynchronized, which the race detector
// checks), and one goroutine's fns run in the order it posted them. The
// posters start after the first round trip, so the processes have run
// however fast the loop drains the posts.
func TestPostFromManyGoroutines(t *testing.T) {
	const posters, perPoster = 8, 200
	e := NewOpenEngine(1)
	defer e.Stop()
	ping, pong := NewQueue[int](e), NewQueue[int](e)
	pings, done := 0, false
	e.InjectDaemon("pong", func(p *Proc) {
		for {
			v, _ := ping.Recv(p)
			pong.Send(v)
		}
	})
	pinged := make(chan struct{})
	pinger := e.Inject("ping", func(p *Proc) {
		for !done {
			ping.Send(pings)
			pong.Recv(p)
			if pings == 0 {
				close(pinged)
			}
			pings++
		}
	})
	ran := make([][]int, posters) // written only by the fns
	onLoop := true
	var wg sync.WaitGroup
	for g := range posters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-pinged
			for k := range perPoster {
				e.Post(func() {
					onLoop = onLoop && e.running == &e.callback && pings >= 0
					ran[g] = append(ran[g], k)
				})
			}
		}()
	}
	wg.Wait()
	// Posted after every fn above, so drained after them.
	e.Post(func() { done = true })
	<-pinger
	if !onLoop {
		t.Error("a posted fn ran while a process was running")
	}
	for g, ks := range ran {
		if len(ks) != perPoster {
			t.Fatalf("poster %d: %d fns ran, want %d", g, len(ks), perPoster)
		}
		for i, k := range ks {
			if k != i {
				t.Fatalf("poster %d: fn %d ran in place %d: %v", g, k, i, ks)
			}
		}
	}
	if pings == 0 {
		t.Error("the processes never ran")
	}
}

func TestInjectAccountsVirtualTime(t *testing.T) {
	e := NewOpenEngine(1)
	done := e.Inject("worker", func(p *Proc) {
		p.Sleep(90 * time.Second)
	})
	<-done
	if got := e.Now(); got != 90*time.Second {
		t.Fatalf("Now = %v, want 90s", got)
	}
}

func TestStopKillsBlockedProcs(t *testing.T) {
	e := NewOpenEngine(1)
	q := NewQueue[int](e)
	done := e.Inject("stuck", func(p *Proc) { q.Recv(p) })
	e.Stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not release the blocked process")
	}
}

func TestRunTwicePanics(t *testing.T) {
	e := NewEngine(1)
	e.Run("root", func(p *Proc) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on second Run")
		}
	}()
	e.Run("root2", func(p *Proc) {})
}

func TestTraceHook(t *testing.T) {
	e := NewEngine(1)
	var events []string
	e.SetTrace(func(now time.Duration, proc, event string) {
		events = append(events, proc+":"+event)
	})
	e.Run("root", func(p *Proc) { p.Sleep(time.Millisecond) })
	joined := strings.Join(events, " ")
	for _, want := range []string{"root:spawn", "root:run", "root:block:sleep", "root:exit"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing %q; got %v", want, events)
		}
	}
}

func TestRandStreamsIsolatedPerProc(t *testing.T) {
	// A process's draws must not depend on unrelated concurrent activity:
	// the same-named process sees the same stream whether or not a noisy
	// neighbor is drawing in between.
	draw := func(noise bool) []float64 {
		e := NewEngine(3)
		var out []float64
		e.Run("root", func(p *Proc) {
			if noise {
				p.SpawnDaemon("noisy", func(p *Proc) {
					for {
						p.Rand().Float64()
						p.Sleep(time.Microsecond)
					}
				})
			}
			p.Spawn("worker", func(p *Proc) {
				for i := 0; i < 5; i++ {
					out = append(out, p.Rand().Float64())
					p.Sleep(time.Millisecond)
				}
			})
		})
		return out
	}
	quiet, noisy := draw(false), draw(true)
	for i := range quiet {
		if quiet[i] != noisy[i] {
			t.Fatalf("draw %d shifted by unrelated activity: %v vs %v", i, quiet[i], noisy[i])
		}
	}
}

// TestLentRandMatchesFreshStream hands a worker the source of a lender that
// exited partway through its own stream, with a partial Read pending. The
// worker must draw exactly what it draws on an engine where nothing was lent,
// and what a fresh source seeded from its name gives.
func TestLentRandMatchesFreshStream(t *testing.T) {
	draws := func(r *rand.Rand) []int64 {
		buf := make([]byte, 3)
		r.Read(buf) // leaves part of a 7-byte draw buffered
		out := []int64{int64(buf[0]) | int64(buf[1])<<8 | int64(buf[2])<<16}
		for i := 0; i < 4; i++ {
			out = append(out, r.Int63())
		}
		out = append(out, int64(r.Float64()*1e9), r.Int63n(1000))
		return out
	}
	run := func(lend bool) (got []int64, lent bool) {
		e := NewEngine(5)
		e.Run("root", func(p *Proc) {
			var lender *rand.Rand
			if lend {
				p.Spawn("lender", func(p *Proc) {
					lender = p.Rand()
					draws(lender)
					lender.Int63()
				})
				p.Sleep(time.Millisecond) // the lender has exited
			}
			p.Spawn("worker", func(p *Proc) {
				lent = lender != nil && p.Rand() == lender
				got = draws(p.Rand())
			})
		})
		return got, lent
	}
	fresh, _ := run(false)
	got, lent := run(true)
	if !lent {
		t.Fatal("the worker's first Rand did not take the exited lender's source")
	}
	want := draws(rand.New(rand.NewSource(procSeed(5, "worker"))))
	for i := range want {
		if got[i] != fresh[i] || got[i] != want[i] {
			t.Fatalf("draw %d: lent source %d, fresh engine %d, fresh source %d", i, got[i], fresh[i], want[i])
		}
	}
}

func TestDeterministicRand(t *testing.T) {
	draw := func(seed int64) []float64 {
		e := NewEngine(seed)
		var out []float64
		e.Run("root", func(p *Proc) {
			for i := 0; i < 5; i++ {
				out = append(out, p.Rand().Float64())
				p.Sleep(time.Millisecond)
			}
		})
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := draw(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical draws")
	}
}

func TestYieldRoundRobin(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Run("root", func(p *Proc) {
		wg := NewWaitGroup(e)
		for _, name := range []string{"a", "b"} {
			name := name
			wg.Add(1)
			p.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					order = append(order, name)
					p.Yield()
				}
				wg.Done()
			})
		}
		wg.Wait(p)
	})
	want := "a,b,a,b,a,b"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

func TestTimeLimitConvertsLivelockToFailure(t *testing.T) {
	// A periodic daemon keeps timers pending forever, so a stuck non-daemon
	// never trips deadlock detection; the time limit catches it.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected time-limit panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "time limit") {
			t.Fatalf("panic = %v, want time-limit dump", r)
		}
	}()
	e := NewEngine(1)
	e.SetTimeLimit(10 * time.Second)
	e.Run("root", func(p *Proc) {
		q := NewQueue[int](e)
		p.SpawnDaemon("ticker", func(p *Proc) {
			for {
				p.Sleep(time.Second)
			}
		})
		q.Recv(p) // blocks forever; only the ticker keeps time moving
	})
}

func TestSleepOverflowClamped(t *testing.T) {
	e := NewEngine(1)
	e.SetTimeLimit(time.Hour)
	defer func() {
		if recover() == nil {
			t.Fatal("expected time-limit panic after clamped overflow sleep")
		}
	}()
	e.Run("root", func(p *Proc) {
		p.Sleep(1<<63 - 1) // would overflow now+d; must clamp, not corrupt
	})
}
