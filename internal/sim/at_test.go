package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// atSoup is the shape of a soup that runs its tickers either as daemon
// processes or as At chains; checkAtMatches runs it both ways.
type atSoup struct {
	seed    int64
	tickers int // periodic bodies, each a daemon or an At chain
	procs   int // other processes, of every kind
}

// atRun is what a soup left behind: the (instant, proc, event) trace of
// every process but the tickers, and the tickers' effects in order.
type atRun struct {
	trace   []string
	effects []string
}

// runAtSoup runs the soup once. Every ticker's body is the same function in
// both modes and never blocks: it pokes queues and conds the other processes
// wait on, so the way it is run shows in their trace. The tickers are armed
// before anything else arms a deadline, so a daemon's first sleep and the
// callback's first arm draw the same place in the deadline order.
func runAtSoup(s atSoup, asAt bool) atRun {
	var out atRun
	note := func(now time.Duration, proc, event string) {
		if !strings.HasPrefix(proc, "ticker-") {
			out.trace = append(out.trace, fmt.Sprintf("%v %s %s", now, proc, event))
		}
	}
	e := NewEngine(s.seed)
	e.SetTrace(note)
	e.Run("root", func(p *Proc) {
		setup := rand.New(rand.NewSource(s.seed))
		inbox := NewQueue[int](e)
		c := NewCond(e)
		wg := NewWaitGroup(e)
		obs := func(p *Proc, format string, args ...any) {
			note(p.Now(), p.Name(), fmt.Sprintf(format, args...))
		}

		for k := 0; k < s.tickers; k++ {
			period := time.Duration(1+setup.Intn(3)) * time.Millisecond
			kind, limit := setup.Intn(4), 5+setup.Intn(30)
			n := 0
			// body reports whether the ticker goes on.
			body := func() bool {
				n++
				out.effects = append(out.effects, fmt.Sprintf("%v ticker-%d %d", e.Now(), k, n))
				switch kind {
				case 0:
					inbox.TrySend(k*1000 + n)
				case 1:
					c.Broadcast()
				case 2:
					c.Signal()
				default:
					e.At(e.Now()+time.Duration(n%3)*time.Millisecond, func() {
						out.effects = append(out.effects, fmt.Sprintf("%v ticker-%d echo", e.Now(), k))
						inbox.TrySend(-k)
					})
				}
				return n < limit
			}
			if asAt {
				var fire func()
				fire = func() {
					if body() {
						e.At(e.Now()+period, fire)
					}
				}
				e.At(p.Now()+period, fire)
			} else {
				p.SpawnDaemon(fmt.Sprintf("ticker-%d", k), func(p *Proc) {
					for {
						p.Sleep(period)
						if !body() {
							return
						}
					}
				})
			}
		}

		for i := 0; i < s.procs; i++ {
			rounds := 3 + setup.Intn(8)
			var fn func(p *Proc)
			switch i % 4 {
			case 0: // sleeps of a few whole milliseconds: ties with the tickers
				fn = func(p *Proc) {
					for r := 0; r < rounds; r++ {
						if p.Rand().Intn(4) == 0 {
							p.Yield()
						} else {
							p.Sleep(time.Duration(1+p.Rand().Intn(3)) * time.Millisecond)
						}
					}
				}
			case 1: // the tickers' queue, on a deadline
				fn = func(p *Proc) {
					for r := 0; r < rounds; r++ {
						v, ok, timedOut := inbox.RecvTimeout(p, time.Duration(p.Rand().Intn(4))*time.Millisecond)
						obs(p, "recv:%d,%v,%v", v, ok, timedOut)
					}
				}
			case 2: // the tickers' cond, on a deadline
				fn = func(p *Proc) {
					for r := 0; r < rounds; r++ {
						obs(p, "cond:%v", c.WaitTimeout(p, time.Duration(1+p.Rand().Intn(5))*time.Millisecond))
					}
				}
			default: // a worker that forks a child and wakes a cond itself
				fn = func(p *Proc) {
					for r := 0; r < rounds; r++ {
						child := NewWaitGroup(e)
						child.Add(1)
						p.Spawn(fmt.Sprintf("%s-child-%d", p.Name(), r), func(p *Proc) {
							p.Sleep(time.Duration(p.Rand().Intn(3)) * time.Millisecond)
							child.Done()
						})
						child.Wait(p)
						c.Signal()
					}
				}
			}
			wg.Add(1)
			p.Spawn(fmt.Sprintf("proc-%d", i), func(p *Proc) {
				defer wg.Done()
				fn(p)
				obs(p, "done")
			})
		}
		// A daemon parked on the tickers' cond for good: killed at the end.
		p.SpawnDaemon("parked", func(p *Proc) {
			for {
				c.Wait(p)
				obs(p, "woken")
			}
		})
		wg.Wait(p)
	})
	return out
}

// checkAtMatches runs s with daemon tickers and with At tickers and fails t
// at the first difference.
func checkAtMatches(t *testing.T, s atSoup) {
	t.Helper()
	procs, chains := runAtSoup(s, false), runAtSoup(s, true)
	for _, c := range []struct {
		what string
		a, b []string
	}{{"trace", procs.trace, chains.trace}, {"ticker effects", procs.effects, chains.effects}} {
		for i := 0; i < max(len(c.a), len(c.b)); i++ {
			var a, b string
			if i < len(c.a) {
				a = c.a[i]
			}
			if i < len(c.b) {
				b = c.b[i]
			}
			if a != b {
				t.Fatalf("%+v: %s differs at line %d of %d/%d:\n  daemons: %q\n  At:      %q", s, c.what, i, len(c.a), len(c.b), a, b)
			}
		}
	}
}

// TestAtMatchesWakingProcess: a periodic body run as an At chain does what a
// daemon that sleeps and runs it does, to the instant and the order.
func TestAtMatchesWakingProcess(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		checkAtMatches(t, atSoup{seed: seed, tickers: 1 + int(seed)%5, procs: 4 + int(seed)%13})
	}
}

func FuzzAtMatchesProcess(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(8))
	f.Add(int64(7), uint8(0), uint8(1))
	f.Add(int64(42), uint8(6), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, tickers, procs uint8) {
		checkAtMatches(t, atSoup{seed: seed, tickers: int(tickers % 8), procs: int(procs % 24)})
	})
}

// TestAtBodyMustNotBlock: a callback that blocks would park the dispatcher
// itself, so every blocking primitive panics, naming the call.
func TestAtBodyMustNotBlock(t *testing.T) {
	e := NewEngine(1)
	e.Run("root", func(p *Proc) {
		q, c, wg := NewQueue[int](e), NewCond(e), NewWaitGroup(e)
		wg.Add(1)
		for _, call := range []struct {
			name string
			do   func()
		}{
			{"Sleep", func() { p.Sleep(time.Millisecond) }},
			{"Yield", func() { p.Yield() }},
			{"Queue.Recv", func() { q.Recv(p) }},
			{"Queue.Recv", func() { q.RecvTimeout(p, time.Millisecond) }},
			{"Cond.Wait", func() { c.Wait(p) }},
			{"Cond.Wait", func() { wg.Wait(p) }},
		} {
			var got any
			e.At(p.Now()+time.Millisecond, func() {
				defer func() { got = recover() }()
				call.do()
			})
			p.Sleep(2 * time.Millisecond)
			if want := "sim: " + call.name + " called from an At callback"; !strings.HasPrefix(fmt.Sprint(got), want) {
				t.Errorf("blocking in a callback panicked with %q, want %q...", got, want)
			}
		}
		wg.Done()
	})
}

// TestAtNeverFiresAfterTheEnd: the simulation ends with its last non-daemon
// process, whatever callbacks are still armed.
func TestAtNeverFiresAfterTheEnd(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	var tick func()
	tick = func() {
		fired++
		e.At(e.Now()+time.Millisecond, tick)
	}
	e.Run("root", func(p *Proc) {
		e.At(p.Now()+time.Millisecond, tick)
		e.At(time.Hour, func() { t.Error("a callback armed past the end fired") })
		p.Sleep(10 * time.Millisecond)
	})
	// The root's deadline at 10ms was armed before the tick due then, so the
	// root runs first and its exit ends the simulation.
	if fired != 9 {
		t.Errorf("ticker fired %d times, want 9: one per millisecond before the end", fired)
	}
	if now := e.Now(); now != 10*time.Millisecond {
		t.Errorf("simulation ended at %v, want 10ms", now)
	}
}
