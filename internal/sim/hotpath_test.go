package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestHotPathAllocs measures the scheduler's steady state from inside a
// running simulation: once the rings and the timer heap have grown to the
// working set, blocking and waking allocate nothing. Each case returns the
// operation to measure after setting up whoever it interacts with; want is
// what it may allocate, zero unless it creates something.
func TestHotPathAllocs(t *testing.T) {
	cases := []struct {
		name  string
		setup func(p *Proc, e *Engine) (op func(), stop func())
		want  float64
	}{
		{"Sleep", func(p *Proc, e *Engine) (func(), func()) {
			// A second sleeper in lock step: every sleep parks.
			p.SpawnDaemon("peer", func(p *Proc) {
				for {
					p.Sleep(time.Microsecond)
				}
			})
			return func() { p.Sleep(time.Microsecond) }, nil
		}, 0},
		{"SleepInPlace", func(p *Proc, e *Engine) (func(), func()) {
			return func() { p.Sleep(time.Microsecond) }, nil
		}, 0},
		{"AtTick", func(p *Proc, e *Engine) (func(), func()) {
			// A callback re-arming itself in lock step: every sleep parks
			// behind it, and it fires once per sleep.
			var tick func()
			tick = func() { e.At(e.Now()+time.Microsecond, tick) }
			e.At(p.Now()+time.Microsecond, tick)
			return func() { p.Sleep(time.Microsecond) }, nil
		}, 0},
		{"Yield", func(p *Proc, e *Engine) (func(), func()) {
			stopped := false
			p.Spawn("peer", func(p *Proc) {
				for !stopped {
					p.Yield()
				}
			})
			return func() { p.Yield() }, func() { stopped = true }
		}, 0},
		{"QueuePingPong", func(p *Proc, e *Engine) (func(), func()) {
			ping, pong := echo(p, e)
			return func() {
				ping.Send(1)
				pong.Recv(p)
			}, nil
		}, 0},
		{"RecvTimeoutSatisfied", func(p *Proc, e *Engine) (func(), func()) {
			ping, pong := echo(p, e)
			return func() {
				ping.Send(1)
				if _, ok, timedOut := pong.RecvTimeout(p, time.Hour); !ok || timedOut {
					t.Error("echo missed a one-hour deadline")
				}
			}, nil
		}, 0},
		{"CondWaitTimeoutSignal", func(p *Proc, e *Engine) (func(), func()) {
			c := NewCond(e)
			p.SpawnDaemon("waiter", func(p *Proc) {
				for {
					if c.WaitTimeout(p, time.Hour) {
						t.Error("signaled wait timed out")
					}
				}
			})
			return func() {
				c.Signal()
				p.Yield()
			}, nil
		}, 0},
		{"SpawnDrawExit", func(p *Proc, e *Engine) (func(), func()) {
			// A process that draws and exits lends its source to the next:
			// only the spawn allocates — the Proc, its wake channel and its
			// goroutine's closure, as in BenchmarkSpawnExit.
			child := func(p *Proc) { p.Rand().Int63() }
			return func() {
				p.Spawn("child", child)
				p.Yield()
			}, nil
		}, 3},
		{"FreshQueueRoundTrip", func(p *Proc, e *Engine) (func(), func()) {
			// A receiver parked on a new queue, handed one item: the rings'
			// first slots are inline, so only the Queue is allocated.
			next := NewQueue[*Queue[int]](e)
			p.SpawnDaemon("receiver", func(p *Proc) {
				for {
					q, _ := next.Recv(p)
					q.Recv(p)
				}
			})
			return func() {
				q := NewQueue[int](e)
				next.Send(q)
				p.Yield() // the receiver parks on q
				q.Send(1)
				p.Yield() // and takes the item
			}, nil
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(1)
			e.Run("root", func(p *Proc) {
				op, stop := tc.setup(p, e)
				for i := 0; i < 100; i++ {
					op()
				}
				if allocs := testing.AllocsPerRun(200, op); allocs != tc.want {
					t.Errorf("%v allocs/op, want %v", allocs, tc.want)
				}
				if stop != nil {
					stop()
				}
			})
		})
	}
}

// echo spawns a daemon that sends back on pong whatever arrives on ping.
func echo(p *Proc, e *Engine) (ping, pong *Queue[int]) {
	ping, pong = NewQueue[int](e), NewQueue[int](e)
	p.SpawnDaemon("echo", func(p *Proc) {
		for {
			v, _ := ping.Recv(p)
			pong.Send(v)
		}
	})
	return ping, pong
}

// TestSleepInPlaceMatchesParking runs one sleeper's program twice: alone,
// where every sleep advances the clock in place, and ahead of a twin that
// sleeps the same durations, where every sleep parks (the twin's equal
// deadline is still armed whenever the sleeper arms its next one). The
// sleeper must see the same clock after every sleep, emit the same trace
// events at the same instants, and run into the time limit at the same
// instant.
func TestSleepInPlaceMatchesParking(t *testing.T) {
	durations := []time.Duration{time.Millisecond, 3 * time.Millisecond, time.Microsecond, 2 * time.Millisecond, 5 * time.Millisecond}
	run := func(twin bool, limit time.Duration) (nows []time.Duration, events []string, inPlace []bool, failure string) {
		e := NewEngine(1)
		e.SetTimeLimit(limit)
		e.SetTrace(func(now time.Duration, proc, event string) {
			if proc == "a" {
				events = append(events, fmt.Sprintf("%v %s", now, event))
			}
		})
		program := func(p *Proc) {
			for _, d := range durations {
				if p.Name() == "a" {
					e.mu.Lock()
					inPlace = append(inPlace, e.sleeperRunsNextLocked(e.now+d))
					e.mu.Unlock()
				}
				p.Sleep(d)
				if p.Name() == "a" {
					nows = append(nows, p.Now())
				}
			}
		}
		defer func() {
			if r := recover(); r != nil {
				failure, _, _ = strings.Cut(r.(string), "\n")
			}
		}()
		e.Run("a", func(p *Proc) {
			if twin {
				p.Spawn("b", program)
			}
			program(p)
		})
		return
	}

	soloNow, soloEvents, soloPath, _ := run(false, 0)
	twinNow, twinEvents, twinPath, _ := run(true, 0)
	for i := range durations {
		if !soloPath[i] || twinPath[i] {
			t.Fatalf("sleep %d: in place solo=%v twin=%v, want true and false", i, soloPath[i], twinPath[i])
		}
	}
	if fmt.Sprint(soloNow) != fmt.Sprint(twinNow) {
		t.Errorf("Now() after each sleep: in place %v, parking %v", soloNow, twinNow)
	}
	// With a twin, "a" also traces its spawn and exit at the same places;
	// only the sleeps are compared.
	sleeps := func(events []string) string {
		var out []string
		for _, ev := range events {
			if strings.HasSuffix(ev, "block:sleep") || strings.HasSuffix(ev, " run") {
				out = append(out, ev)
			}
		}
		return strings.Join(out, ", ")
	}
	if a, b := sleeps(soloEvents), sleeps(twinEvents); a != b {
		t.Errorf("trace of the sleeper:\n in place %s\n parking  %s", a, b)
	}

	// 1ms + 3ms + 1µs + 2ms is inside a 7ms limit; the last sleep crosses it.
	_, _, limitPath, soloFail := run(false, 7*time.Millisecond)
	_, _, _, twinFail := run(true, 7*time.Millisecond)
	if soloFail == "" || soloFail != twinFail || !strings.Contains(soloFail, "time limit exceeded at 11.001ms") {
		t.Errorf("time limit: in place %q, parking %q", soloFail, twinFail)
	}
	if limitPath[len(limitPath)-1] {
		t.Error("the sleep that crosses the time limit was taken in place: the dispatcher must report it")
	}
}

// TestPoppedSlotsAreCleared: a ring's buffer outlives what passes through
// it, so a slot must not keep its last value reachable — for a transport
// queue that value is a request with up to a mebibyte of bulk payload.
func TestPoppedSlotsAreCleared(t *testing.T) {
	cleared := func(name string, buf []*int) {
		t.Helper()
		for i, v := range buf {
			if v != nil {
				t.Errorf("%s: slot %d still holds a dequeued value", name, i)
			}
		}
	}
	e := NewEngine(1)
	e.Run("root", func(p *Proc) {
		q := NewQueue[*int](e)
		for i := 0; i < 5; i++ {
			q.Send(new(int))
		}
		for i := 0; i < 3; i++ {
			q.Recv(p)
		}
		q.TryRecv()
		q.RecvTimeout(p, time.Second)
		if len(q.items.buf) < 5 {
			t.Fatalf("items buffer has %d slots, want the 5 it grew to", len(q.items.buf))
		}
		cleared("items after Recv/TryRecv/RecvTimeout", q.items.buf)

		// Blocked receivers are handed their items; one times out instead.
		for i := 0; i < 3; i++ {
			p.Spawn("receiver", func(p *Proc) { q.RecvTimeout(p, time.Duration(i)*time.Second) })
		}
		p.Yield() // receivers park; the one with d == 0 returns at once
		if q.waiters.len() != 2 {
			t.Fatalf("%d parked receivers, want 2", q.waiters.len())
		}
		p.Sleep(time.Second) // the 1s receiver times out and leaves the waiter set
		q.Send(new(int))
		p.Yield() // the last receiver takes its item from the handoff ring
		cleared("handoff after the receiver ran", q.handoff.buf)
		for i, w := range q.waiters.buf {
			if w != nil {
				t.Errorf("waiters: slot %d still holds process %q", i, w.name)
			}
		}

		e.mu.Lock()
		defer e.mu.Unlock()
		if len(e.runq.buf) == 0 || e.runq.len() != 0 {
			t.Fatalf("run queue: %d slots, %d ready; want a grown, empty ring", len(e.runq.buf), e.runq.len())
		}
		for i, r := range e.runq.buf {
			if r != nil {
				t.Errorf("run queue: slot %d still holds dispatched process %q", i, r.name)
			}
		}
		if len(e.timers) != 0 {
			t.Errorf("%d deadlines still armed, want 0: a cancelled or fired deadline stayed in the heap", len(e.timers))
		}
	})
}

// TestRingOrderAcrossGrowthAndRemoval drives the ring through wrap-around,
// doubling and mid-queue removal against a plain slice.
func TestRingOrderAcrossGrowthAndRemoval(t *testing.T) {
	var r ring[int]
	var want []int
	check := func(step string) {
		t.Helper()
		if r.len() != len(want) {
			t.Fatalf("%s: len %d, want %d", step, r.len(), len(want))
		}
		for i, v := range want {
			if got := *r.slot(i); got != v {
				t.Fatalf("%s: element %d = %d, want %d (%v)", step, i, got, v, want)
			}
		}
	}
	next := 0
	for round := 0; round < 40; round++ {
		for i := 0; i < 1+round%5; i++ { // pushes outpace pops: the buffer wraps and doubles
			next++
			r.push(next)
			want = append(want, next)
		}
		check("push")
		if round%3 == 0 && len(want) > 1 {
			i := (round * 7) % len(want)
			r.removeAt(i)
			want = append(want[:i], want[i+1:]...)
			check("removeAt")
		}
		if v, ok := r.pop(); !ok || v != want[0] {
			t.Fatalf("pop = %d,%v, want %d", v, ok, want[0])
		}
		want = want[1:]
		check("pop")
	}
	for range want {
		r.pop()
	}
	if _, ok := r.pop(); ok {
		t.Fatal("pop on an empty ring reported ok")
	}
	for i, v := range r.buf {
		if v != 0 {
			t.Fatalf("drained ring: slot %d = %d, want 0", i, v)
		}
	}
	if r.first[0] != 0 {
		t.Fatalf("grown ring: inline slot still holds %d, want 0", r.first[0])
	}
}
