package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// stepSoup is the shape of a soup whose workers run either as coroutine
// processes or as step processes; checkStepMatches runs it both ways.
type stepSoup struct {
	seed    int64
	workers int // workers that run their program once and exit
	daemons int // workers that run their program over and over until the end kills them
}

// A worker's program is a list of stepOps, the same in both modes.
type stepOp struct {
	kind stepKind
	d    time.Duration
}

type stepKind uint8

const (
	opSleep     stepKind = iota // Sleep(d): in place or parked
	opCondWait                  // Cond.WaitTimeout(d): timeout or broadcast
	opCondBlock                 // Cond.Wait: until a broadcast or signal
	opBlock                     // Block until a Ready
	opBroadcast
	opSignal
	opReady // Ready the longest-blocked worker, if any
	nStepKinds
)

// stepTally counts how the waits of a step-mode run ended, so the test can
// tell that the soup covers each path.
type stepTally struct {
	inPlace, parked, timedOut, woken, readied, killed int
}

// stepRun is what a soup left behind: its (instant, proc, event) trace,
// with every worker's observations in it, and in step mode the tally.
type stepRun struct {
	trace []string
	tally stepTally
}

// runStepSoup runs the soup once. The root is a coroutine process in both
// modes: it spawns the workers, all daemons, and, until every worker that
// exits has exited, sleeps, broadcasts and readies whoever is blocked, so
// that every wait ends. Looping programs always sleep, so time moves while
// they loop.
func runStepSoup(s stepSoup, asSteps bool) stepRun {
	var out stepRun
	e := NewEngine(s.seed)
	e.SetTrace(func(now time.Duration, proc, event string) {
		out.trace = append(out.trace, fmt.Sprintf("%v %s %s", now, proc, event))
	})
	obs := func(p *Proc, format string, args ...any) {
		out.trace = append(out.trace, fmt.Sprintf("%v %s %s", p.Now(), p.Name(), fmt.Sprintf(format, args...)))
	}
	setup := rand.New(rand.NewSource(s.seed))
	program := func(daemon bool) []stepOp {
		prog := make([]stepOp, 1+setup.Intn(12))
		for i := range prog {
			// Durations of 0-3 µs tie with each other and with the root's.
			prog[i] = stepOp{kind: stepKind(setup.Intn(int(nStepKinds))), d: time.Duration(setup.Intn(4)) * time.Microsecond}
		}
		if daemon {
			prog = append(prog, stepOp{kind: opSleep, d: time.Duration(1+setup.Intn(3)) * time.Microsecond})
		}
		return prog
	}
	c := NewCond(e)
	var blocked Ring[*Proc]
	done := 0

	// nonBlocking runs an op that does not wait.
	nonBlocking := func(op stepOp) {
		switch op.kind {
		case opBroadcast:
			c.Broadcast()
		case opSignal:
			c.Signal()
		case opReady:
			if w, ok := blocked.Pop(); ok {
				w.Ready()
			}
		}
	}
	// coroutine runs prog in a coroutine process.
	coroutine := func(prog []stepOp, daemon bool) func(*Proc) {
		return func(p *Proc) {
			for {
				for _, op := range prog {
					switch op.kind {
					case opSleep:
						p.Sleep(op.d)
						obs(p, "slept")
					case opCondWait:
						obs(p, "cond:%v", c.WaitTimeout(p, op.d))
					case opCondBlock:
						c.Wait(p)
						obs(p, "woken")
					case opBlock:
						blocked.Push(p)
						p.Block()
						p.Park()
						obs(p, "readied")
					default:
						nonBlocking(op)
					}
				}
				if !daemon {
					done++
					obs(p, "done")
					return
				}
			}
		}
	}
	// step runs prog in a step process: pc is the next op, and waiting
	// says the op before it armed a wait that has now ended.
	step := func(prog []stepOp, daemon bool) func(*Proc) bool {
		pc, waiting := 0, false
		return func(p *Proc) bool {
			if waiting {
				waiting = false
				switch prog[pc-1].kind {
				case opSleep:
					out.tally.parked++
					obs(p, "slept")
				case opCondWait:
					if p.TimedOut() {
						out.tally.timedOut++
					}
					obs(p, "cond:%v", p.TimedOut())
				case opCondBlock:
					out.tally.woken++
					obs(p, "woken")
				case opBlock:
					out.tally.readied++
					obs(p, "readied")
				}
			}
			for {
				for pc < len(prog) {
					op := prog[pc]
					pc++
					switch op.kind {
					case opSleep:
						if !p.ArmSleep(op.d) {
							waiting = true
							return true
						}
						out.tally.inPlace++
						obs(p, "slept")
					case opCondWait:
						if op.d <= 0 { // WaitTimeout's early out: timed out, nothing armed
							obs(p, "cond:%v", true)
							continue
						}
						c.Arm(p, op.d)
						waiting = true
						return true
					case opCondBlock:
						c.Arm(p, -1)
						waiting = true
						return true
					case opBlock:
						blocked.Push(p)
						p.Block()
						waiting = true
						return true
					default:
						nonBlocking(op)
					}
				}
				if !daemon {
					done++
					obs(p, "done")
					return false
				}
				pc = 0
			}
		}
	}

	var live []*Proc
	e.Run("root", func(p *Proc) {
		spawn := func(name string, daemon bool) {
			prog := program(daemon)
			var w *Proc
			if asSteps {
				w = p.SpawnStepDaemon(name, step(prog, daemon))
			} else {
				w = p.SpawnDaemon(name, coroutine(prog, daemon))
			}
			live = append(live, w)
		}
		for i := 0; i < max(s.workers, s.daemons); i++ {
			if i < s.workers {
				spawn(fmt.Sprintf("worker-%d", i), false)
			}
			if i < s.daemons {
				spawn(fmt.Sprintf("daemon-%d", i), true)
			}
		}
		for done < s.workers {
			p.Sleep(time.Duration(1+setup.Intn(4)) * time.Microsecond)
			if setup.Intn(2) == 0 {
				c.Broadcast()
			} else {
				c.Signal()
			}
			if w, ok := blocked.Pop(); ok {
				w.Ready()
			}
		}
	})
	for _, w := range live {
		if w.killed {
			out.tally.killed++
		}
	}
	return out
}

// checkStepMatches runs s with coroutine workers and with step workers and
// fails t at the first difference of their traces.
func checkStepMatches(t *testing.T, s stepSoup) stepTally {
	t.Helper()
	procs, steps := runStepSoup(s, false), runStepSoup(s, true)
	for i := 0; i < max(len(procs.trace), len(steps.trace)); i++ {
		var a, b string
		if i < len(procs.trace) {
			a = procs.trace[i]
		}
		if i < len(steps.trace) {
			b = steps.trace[i]
		}
		if a != b {
			t.Fatalf("%+v: traces differ at line %d of %d/%d:\n  coroutines: %q\n  steps:      %q\n%s",
				s, i, len(procs.trace), len(steps.trace), a, b, strings.Join(steps.trace[max(0, i-8):i], "\n"))
		}
	}
	return steps.tally
}

// TestStepMatchesProcess: a worker run as a step process leaves the trace
// it leaves as a coroutine process — every spawn, run, block and exit at
// the same instant in the same order — across sleeps taken in place and
// parked, cond waits that time out and that are woken, Block and Ready,
// exits, and daemons killed at the end of the simulation.
func TestStepMatchesProcess(t *testing.T) {
	var total stepTally
	for seed := int64(1); seed <= 40; seed++ {
		tally := checkStepMatches(t, stepSoup{seed: seed, workers: 1 + int(seed)%6, daemons: int(seed) % 4})
		total.inPlace += tally.inPlace
		total.parked += tally.parked
		total.timedOut += tally.timedOut
		total.woken += tally.woken
		total.readied += tally.readied
		total.killed += tally.killed
	}
	t.Logf("step waits over 40 soups: %+v", total)
	if total.inPlace == 0 || total.parked == 0 || total.timedOut == 0 || total.woken == 0 || total.readied == 0 || total.killed == 0 {
		t.Errorf("the soups left a path untaken: %+v", total)
	}
}

func FuzzStepMatchesProcess(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2))
	f.Add(int64(7), uint8(1), uint8(0))
	f.Add(int64(42), uint8(9), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, workers, daemons uint8) {
		checkStepMatches(t, stepSoup{seed: seed, workers: 1 + int(workers%12), daemons: int(daemons % 8)})
	})
}

// TestStepMisuse: a step that claims to wait without arming a wait, or that
// exits with one armed, or a step process that parks, panics out of Run as
// a ProcPanic naming the process.
func TestStepMisuse(t *testing.T) {
	for _, tc := range []struct {
		name string
		step func(p *Proc) bool
		want string
	}{
		{"nothing armed", func(p *Proc) bool { return true }, "no wait armed"},
		{"exit armed", func(p *Proc) bool { p.Block(); return false }, "with a wait armed"},
		{"parked", func(p *Proc) bool { p.Sleep(2 * time.Second); return false }, "a step process parked"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got any
			func() {
				defer func() { got = recover() }()
				e := NewEngine(1)
				e.Run("root", func(p *Proc) {
					p.SpawnStepDaemon("stepper", tc.step)
					p.Sleep(time.Second)
				})
			}()
			pp, ok := got.(*ProcPanic)
			if !ok || pp.Proc != "stepper" || !strings.Contains(fmt.Sprint(pp.Value), tc.want) {
				t.Errorf("panic %v, want a ProcPanic of %q saying %q", got, "stepper", tc.want)
			}
		})
	}
}
