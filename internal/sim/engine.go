// Package sim implements a deterministic discrete-event simulation engine.
//
// Every DGSF component that the experiments measure — guest libraries, API
// servers, the GPU server monitor, the serverless backend, and the simulated
// GPUs themselves — runs as a simulated process (Proc) on a virtual clock.
// The engine executes exactly one process at a time. Each process body runs
// on a coroutine (a carrier), and one dispatch loop resumes them in turn:
// when the running process blocks (Sleep, Queue.Recv, Cond.Wait, ...) it
// yields to the loop, which resumes the next ready process, and when no
// process is ready advances the virtual clock to the earliest pending timer.
// A carrier outlives its process: once the body returns it waits on a free
// list shared by every engine for the next process spawned anywhere. A step
// process (SpawnStepDaemon) has no carrier: its body is a step function the loop
// calls each time it dispatches the process, which arms a wait and returns
// instead of parking. Given a fixed seed, a simulation is fully
// deterministic and independent of wall-clock speed.
//
// The engine supports two modes:
//
//   - Run mode (Engine.Run): the usual mode for experiments. The loop runs
//     on Run's caller. The simulation ends when every non-daemon process has
//     finished: daemons take no further step, and Run returns once they have
//     unwound. If all processes are blocked with no pending timers, Run
//     panics with a process dump (deadlock); a panic in process code comes
//     out of Run as a *ProcPanic.
//
//   - Open mode (NewOpenEngine + Engine.Inject): used when simulated
//     components serve requests arriving from outside the simulation, e.g. a
//     GPU server reachable over real TCP sockets. The loop runs on a hub
//     goroutine of the engine's own, which starts at the first post, parks
//     while nothing is ready and ends at Stop. Idle is not a deadlock. Virtual
//     durations are still accounted, but the engine runs as fast as possible.
//
// The loop owns the engine: its state, and that of every Queue, Cond and
// WaitGroup on it, is touched only by the loop and the process or callback
// it runs, without a lock. Code outside the simulation gets in through one
// mailbox: Post, and the posts Inject, InjectDaemon and Stop, are the only
// calls it may make once the loop exists. An open engine is built (devices,
// servers, queues) by one goroutine before its first post.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// errKilled is panicked inside a process when the simulation is over; the
// process's carrier recovers it, retires the process and goes idle.
var errKilled = errors.New("sim: process killed")

// Engine is a discrete-event simulation engine. Create one with NewEngine or
// NewOpenEngine; the zero value is not usable.
type Engine struct {
	// The mailbox, the one part of the engine outside goroutines touch: mu
	// guards mail, idle, kick and over. posted is set while mail holds
	// something, so the loop looks at the mailbox without taking mu.
	mu     sync.Mutex
	mail   []letter
	spare  []letter // the buffer mail had before the last drain (the loop's)
	posted atomic.Bool
	idle   bool          // open mode: the hub is parked on kick, or not started
	kick   chan struct{} // wakes the hub; made with it, at the first post
	over   bool          // the loop is gone for good: a post runs at once

	now    time.Duration // current virtual time
	timers timerHeap     // armed deadlines of processes and At callbacks, earliest (at, seq) first
	seq    uint64        // deadlines armed so far: the tie-break between equal instants

	running *Proc       // the process the loop resumed last, or nil while it has none
	runq    Ring[*Proc] // processes ready to execute, FIFO
	// callback stands for every At callback, in the timer heap and, while
	// one runs, in running: the engine is busy, and no process may block.
	callback Proc

	nlive   int  // live non-daemon processes, plus Holds
	started bool // Run was called
	open    bool // open mode: idle is not a deadlock
	stopped bool // the simulation is over: no process takes another step

	// Every started, unexited process, linked through Proc.prev/next in pid
	// order; only the end of the simulation and the deadlock dump walk it.
	liveHead, liveTail *Proc

	seed      int64
	rands     []*rand.Rand // sources of exited processes, lent to the next first Rand
	nextPID   int
	trace     func(now time.Duration, proc, event string)
	deadlock  string        // non-empty if the simulation deadlocked; Run panics with it
	timeLimit time.Duration // abort when virtual time passes this (0 = off)
}

// NewEngine returns an engine in Run mode seeded with seed. All randomness
// drawn through Proc.Rand derives from this seed, so a simulation replays
// identically for identical seeds.
func NewEngine(seed int64) *Engine {
	return &Engine{seed: seed}
}

// NewOpenEngine returns an engine in open mode: the engine idles instead of
// declaring deadlock when no process is runnable, and external goroutines may
// add work with Inject at any time. Its hub starts at the first post.
func NewOpenEngine(seed int64) *Engine {
	e := NewEngine(seed)
	e.open, e.idle = true, true
	return e
}

// SetTrace installs fn as the trace hook, invoked for process lifecycle
// events. Must be called before Run or Inject.
func (e *Engine) SetTrace(fn func(now time.Duration, proc, event string)) { e.trace = fn }

// SetTimeLimit makes Run fail (panic, like a deadlock) if virtual time
// passes limit. Periodic callbacks can mask a stuck simulation from deadlock
// detection by keeping timers pending forever; a time limit converts that
// livelock into a diagnosable failure. Zero disables the limit.
func (e *Engine) SetTimeLimit(limit time.Duration) { e.timeLimit = limit }

// Now returns the current virtual time. Like every call but the posts, it is
// for the loop's side: a process, an At callback or a posted fn.
func (e *Engine) Now() time.Duration { return e.now }

// Proc is a simulated process. A Proc is only valid inside the function it
// was spawned with; all blocking methods must be called by the process
// itself.
//
// A process is a coroutine process (Spawn) or a step process
// (SpawnStepDaemon).
// The two take the same slots: a place in the ready queue, in a Cond's or
// Queue's waiters and, with a deadline, in the timer heap; the same
// sequence numbers; the same trace events. They differ in how the loop
// dispatches them. A coroutine process's body runs on a carrier and blocks
// by parking: the loop resumes it where it parked. A step process's body is
// a function the loop calls: it may do anything a coroutine process does
// short of parking, and where one would park it arms the wait (ArmSleep,
// Cond.Arm, Block) and returns true; the loop calls it again once the wait
// has ended, and TimedOut tells how. Returning false ends the process. So a
// process that blocks only at the top of its loop, turned into a step
// process, runs on the same schedule, event for event.
type Proc struct {
	e      *Engine
	id     int
	name   string
	daemon bool
	killed bool             // the simulation is over: the next park unwinds
	fn     func(*Proc)      // the body of a coroutine process
	step   func(*Proc) bool // the body of a step process; nil for a coroutine one
	armed  bool             // a wait is armed that the process has not yet parked on or returned to
	c      *carrier         // runs the body; nil until the first dispatch; stepCarrier for a step process
	doneCh chan struct{}    // closed on exit, if requested via Inject
	rng    *rand.Rand       // set by the first Rand: lent by the engine or new

	prev, next *Proc // neighbours in the engine's live list
	w          wait
}

// wait is the one thing a process is blocked on. A process blocks on at most
// one primitive at a time, so the record is part of the Proc and every park
// reuses it: blocking allocates nothing. It is written by the process as it
// blocks and by whoever wakes it, both on the loop's side. The small fields
// come last, where they share a word, which keeps a Proc in the 128-byte
// size class.
type wait struct {
	in   *Ring[*Proc] // waiter set to leave if the deadline fires first, or nil
	idx  int          // position of the deadline in the timer heap; -1 while none is armed
	kind waitKind     // the primitive parked in; waitNone while ready or running

	timedOut bool // woken by the deadline
	handed   bool // Queue: woken by a Send, whose item waits in the queue's handoff ring
}

type waitKind uint8

const (
	waitNone waitKind = iota
	waitSleep
	waitCond
	waitQueue
)

// blockEvent is the trace event of a park, by kind. Trace events are always
// constants, so tracing builds no strings, with or without a hook.
var blockEvent = [...]string{
	waitSleep: "block:sleep",
	waitCond:  "block:cond",
	waitQueue: "block:queue",
}

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.e.now }

// Rand returns the process's deterministic random source. Each process
// draws from its own stream, seeded from the engine seed and the process
// name, so a process's draws depend only on its own call sequence — not on
// how concurrent activity elsewhere in the simulation interleaves with it.
// Processes spawned under the same name share a seed and therefore observe
// identical streams.
//
// The source is valid only while the process runs: when it exits, the
// engine keeps the source and lends it to the next process whose first Rand
// finds none of its own, re-seeded from that process's name. Re-seeding
// resets the whole state, so the stream is the one a fresh source would
// give; a caller that kept the source past the exit would draw from another
// process's stream.
func (p *Proc) Rand() *rand.Rand {
	if p.rng == nil {
		seed := procSeed(p.e.seed, p.name)
		if e := p.e; len(e.rands) > 0 {
			n := len(e.rands) - 1
			p.rng, e.rands[n] = e.rands[n], nil
			e.rands = e.rands[:n]
		}
		if p.rng != nil {
			p.rng.Seed(seed)
		} else {
			p.rng = rand.New(rand.NewSource(seed))
		}
	}
	return p.rng
}

// procSeed is the seed of the stream of a process named name: an FNV-1a
// hash of the name over the engine seed.
func procSeed(engineSeed int64, name string) int64 {
	seed := uint64(engineSeed) ^ 0xcbf29ce484222325
	for _, c := range name {
		seed = (seed ^ uint64(c)) * 0x100000001b3
	}
	return int64(seed)
}

// Run spawns a root process executing root and runs the simulation on the
// calling goroutine until that process and every non-daemon process
// transitively spawned from it have finished. That instant ends the
// simulation: daemons are killed where they are parked, and Run returns once
// every process has unwound and exited, so nothing the simulation spawned is
// still running — or still mutating state the caller is about to read.
//
// A panic in process code ends the simulation where it is: Run re-raises it
// as a *ProcPanic. A runtime.Goexit in process code (a t.Fatal) ends Run's
// caller as it would have ended the process. Run may be called at most once
// per engine, and not on an open engine, whose hub runs the loop.
func (e *Engine) Run(name string, root func(p *Proc)) {
	if e.started || e.open {
		panic("sim: Run called twice, or on an open engine")
	}
	e.started = true
	e.startLocked(e.newProc(name, false, root))
	e.loopLocked()
	e.closeMail()
	if e.deadlock != "" {
		panic(e.deadlock)
	}
}

// Post runs fn on the loop, at its next pick, as the engine's owner: like an
// At callback, fn may send, close, broadcast and arm At, but not block. It is
// the way in from outside the simulation, safe from any goroutine; the fns of
// one goroutine run in the order it posted them. On an open engine the first
// post starts the hub and a post wakes an idle one. Once the loop is gone for
// good (Run returned, or Stop ended the hub), fn runs at once on the caller,
// under the mailbox lock, so fn must not post. Posting a pre-bound fn
// allocates nothing once the mailbox has grown.
func (e *Engine) Post(fn func()) { e.post(letter{fn: fn}) }

// letter is one post: a fn to run, or a process to start, which spares
// Inject a closure.
type letter struct {
	fn func()
	p  *Proc
}

func (l letter) deliver() {
	if l.p != nil {
		l.p.e.startLocked(l.p)
	} else {
		l.fn()
	}
}

// post puts l in the mailbox, waking or starting an idle hub.
func (e *Engine) post(l letter) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.over {
		l.deliver()
		return
	}
	e.mail = append(e.mail, l)
	e.posted.Store(true)
	if e.idle {
		e.idle = false
		if e.kick == nil {
			e.kick = make(chan struct{}, 1)
			go e.hub()
		} else {
			e.kick <- struct{}{}
		}
	}
}

// drainMail delivers the letters posted so far, in post order, as the one
// thing running, and hands the mailbox its previous buffer back.
func (e *Engine) drainMail() {
	e.mu.Lock()
	mail := e.mail
	e.mail, e.spare = e.spare, nil
	e.posted.Store(false)
	e.mu.Unlock()
	running := e.running
	e.running = &e.callback
	for i, l := range mail {
		mail[i] = letter{}
		l.deliver()
	}
	e.running, e.spare = running, mail[:0]
}

// closeMail marks the loop gone for good: later posts run at once, and so
// do the ones still in the mailbox.
func (e *Engine) closeMail() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.over = true
	for _, l := range e.mail {
		l.deliver()
	}
	e.mail = nil
}

// Inject spawns a non-daemon process from outside the simulation (open mode)
// and returns a channel that is closed when the process finishes.
func (e *Engine) Inject(name string, fn func(p *Proc)) <-chan struct{} {
	p, done := e.newProc(name, false, fn), make(chan struct{})
	p.doneCh = done
	e.post(letter{p: p})
	return done
}

// InjectDaemon spawns a daemon process from outside the simulation.
func (e *Engine) InjectDaemon(name string, fn func(p *Proc)) {
	e.post(letter{p: e.newProc(name, true, fn)})
}

// Hold keeps the simulation from ending, as one more live non-daemon process
// would, until the matching Release. It is for daemons that take on work the
// simulation must not end under: a server loop parks its workers as daemons
// and holds the engine from handing one a request until the reply is out, so
// the simulation ends when it would have with a process per request.
func (e *Engine) Hold() { e.nlive++ }

// Release ends one Hold. If nothing else keeps the simulation alive it is
// over, as at the exit of the last non-daemon process: a calling process runs
// on to its next blocking call, and no other takes a further step.
func (e *Engine) Release() { e.endLiveLocked() }

// endLiveLocked takes away one of the things keeping the simulation alive —
// a non-daemon process or a Hold. After the last one the simulation is over:
// daemons stop where they are — a ready one takes no further step, and armed
// deadlines never fire, or periodic callbacks (samplers, monitor ticks) would
// advance virtual time forever.
func (e *Engine) endLiveLocked() {
	e.nlive--
	if e.nlive == 0 && e.started {
		e.stopped = true
	}
}

// Stop ends the simulation from outside (the teardown of an open-mode
// engine): at its next pick the loop kills every blocked and ready process;
// then an open engine's hub goroutine ends. Stop does not wait for either.
// Once the loop is gone it does nothing, and allocates nothing.
func (e *Engine) Stop() {
	e.mu.Lock()
	over := e.over
	e.mu.Unlock()
	if !over {
		e.Post(func() { e.stopped = true })
	}
}

// Spawn starts a new non-daemon process. Run-mode simulations do not finish
// until every non-daemon process has finished.
func (p *Proc) Spawn(name string, fn func(*Proc)) *Proc {
	return p.spawn(name, fn, false)
}

// SpawnDaemon starts a daemon process. Daemons do not keep the simulation
// alive: when the last non-daemon process finishes, they are killed.
func (p *Proc) SpawnDaemon(name string, fn func(*Proc)) *Proc {
	return p.spawn(name, fn, true)
}

func (p *Proc) spawn(name string, fn func(*Proc), daemon bool) *Proc {
	np := p.e.newProc(name, daemon, fn)
	p.e.startLocked(np)
	return np
}

// SpawnStepDaemon starts a daemon step process whose body is step (see
// Proc): the loop calls step at each dispatch, and step returns true once
// it has armed a wait, false to exit.
func (p *Proc) SpawnStepDaemon(name string, step func(*Proc) bool) *Proc {
	np := p.e.newProc(name, true, nil)
	np.step, np.c = step, stepCarrier
	p.e.startLocked(np)
	return np
}

// Sleep blocks the process for virtual duration d. Non-positive durations
// yield to other ready processes without advancing time.
func (p *Proc) Sleep(d time.Duration) { p.sleep(d, true) }

// ArmSleep arms Sleep(d) without parking and reports whether the sleep is
// already over: when p would be the very next process dispatched, the
// clock advances in place. Otherwise a step process returns from its step
// and a coroutine process parks (Park).
func (p *Proc) ArmSleep(d time.Duration) (over bool) { return p.sleep(d, false) }

// sleep is Sleep, and with park false ArmSleep: one body, so that a Sleep
// costs one call.
func (p *Proc) sleep(d time.Duration, park bool) (over bool) {
	if d <= 0 {
		return p.yield(park)
	}
	e := p.e
	e.checkRunningLocked(p, "Sleep")
	if at := e.deadlineLocked(d); e.sleeperRunsNextLocked(at) {
		// Parking would pop this deadline first and dispatch p straight
		// back: take its sequence number, advance the clock and trace what
		// the loop would have, without the switch to the loop and back.
		e.seq++
		e.traceLocked(p, blockEvent[waitSleep])
		e.now = at
		e.traceLocked(p, "run")
		return true
	}
	e.blockLocked(p, waitSleep, nil, d)
	if park {
		p.park()
	}
	return false
}

// Block arms a wait with no deadline that only Ready ends: a process that
// serves a queue of its own blocks on it while the queue is empty. The
// trace and a deadlock dump show it blocked on a queue.
func (p *Proc) Block() {
	p.e.checkRunningLocked(p, "Block")
	p.e.blockLocked(p, waitQueue, nil, -1)
}

// Ready ends the wait p armed with Block, making p ready to run. Like a
// Send, it may come from a process, an At callback or a posted fn. Once the
// simulation is over it does nothing.
func (p *Proc) Ready() {
	if p.killed {
		return
	}
	if p.w.kind != waitQueue || p.w.in != nil {
		panic(fmt.Sprintf("sim: Ready of %q, which is not in Block", p.name))
	}
	p.e.wakeLocked(p)
}

// TimedOut reports whether the last wait p armed ended at its deadline
// rather than by a wake-up.
func (p *Proc) TimedOut() bool { return p.w.timedOut }

// Park blocks a coroutine process on the wait it has armed (ArmSleep
// reporting false, Cond.Arm, Block) until the wait ends. It is how code
// written as steps runs in a coroutine process: arm, park, step again.
func (p *Proc) Park() {
	if !p.armed && !p.killed {
		panic(fmt.Sprintf("sim: Park by %q with no wait armed", p.name))
	}
	p.park()
}

// sleeperRunsNextLocked reports whether the running process, were it to park
// until at, would be the very next one dispatched: nothing is posted or
// ready, no armed deadline is at or before at (an equal one was armed earlier
// and fires first), and at is inside the time limit, which only the loop
// reports.
func (e *Engine) sleeperRunsNextLocked(at time.Duration) bool {
	return !e.stopped && e.runq.Len() == 0 && !e.posted.Load() &&
		(len(e.timers) == 0 || e.timers[0].at > at) &&
		!e.pastLimitLocked(at)
}

// At runs fn at virtual instant at (now, if that has passed) in deadline
// order, once no process is ready, as the one thing running: fn may Send,
// Close, Broadcast, Add, read Now and call At, but a blocking call panics.
// Nothing fires once the simulation is over. Arming allocates nothing once
// the heap has grown: bind fn once, not per call.
func (e *Engine) At(at time.Duration, fn func()) {
	e.seq++
	e.timers.push(timer{at: max(at, e.now), seq: e.seq, p: &e.callback, fn: fn})
}

// Yield moves the process to the back of the ready queue, letting other
// ready processes run at the same virtual time.
func (p *Proc) Yield() { p.yield(true) }

// yield is Yield, and with park false the arming half of it, which reports
// whether the yield is already over.
func (p *Proc) yield(park bool) (over bool) {
	e := p.e
	e.checkRunningLocked(p, "Yield")
	switch {
	case e.stopped:
		p.killed = true
	case e.runq.Len() == 0 && !e.posted.Load():
		// Nobody else is ready: p would be dispatched straight back. The
		// loop is consulted (and traces the switch) only while a
		// deadline is armed somewhere.
		if len(e.timers) > 0 {
			e.traceLocked(p, "run")
		}
		return true
	default:
		e.runq.Push(p)
		p.armed = true
	}
	if park {
		p.park()
	}
	return false
}

// --- internals ---
//
// A ...Locked method runs as the engine's owner: on the loop, or in the
// process or callback the loop is running.

// newProc makes a process to run fn; startLocked numbers and starts it.
func (e *Engine) newProc(name string, daemon bool, fn func(*Proc)) *Proc {
	return &Proc{e: e, name: name, daemon: daemon, fn: fn, w: wait{idx: -1}}
}

// startLocked numbers p and queues it for its first dispatch, which gives a
// coroutine process a carrier to run its body on. On a stopped engine the
// process is stillborn: the body never runs.
func (e *Engine) startLocked(p *Proc) {
	e.nextPID++
	p.id = e.nextPID
	if e.stopped {
		if p.doneCh != nil {
			close(p.doneCh)
		}
		return
	}
	if !p.daemon {
		e.nlive++
	}
	// Pids only grow, so appending keeps the live list in pid order.
	p.prev = e.liveTail
	if e.liveTail != nil {
		e.liveTail.next = p
	} else {
		e.liveHead = p
	}
	e.liveTail = p
	e.runq.Push(p)
	e.traceLocked(p, "spawn")
}

// exitLocked retires p, whose body has returned or unwound, or which is
// killed before it ever ran.
func (e *Engine) exitLocked(p *Proc) {
	e.traceLocked(p, "exit")
	if p.rng != nil {
		e.rands = append(e.rands, p.rng)
		p.rng = nil
	}
	if p.doneCh != nil {
		close(p.doneCh)
	}
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		e.liveHead = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		e.liveTail = p.prev
	}
	p.prev, p.next = nil, nil
	if !p.daemon {
		e.endLiveLocked()
	}
}

// park yields to the loop until it resumes the process: made ready, or
// killed. A process killed as it blocks unwinds without yielding.
func (p *Proc) park() {
	p.armed = false
	if !p.killed {
		p.c.yield(false)
	}
	if p.killed {
		panic(errKilled)
	}
}

// checkRunningLocked guards against sim primitives being called from
// goroutines that are not the currently scheduled process, or from an At
// callback or a posted fn.
func (e *Engine) checkRunningLocked(p *Proc, op string) {
	if e.running != p {
		msg := fmt.Sprintf("sim: %s called by %q which is not the running process", op, p.name)
		if e.running == &e.callback {
			msg = "sim: " + op + " called from an At callback or a posted fn, which must not block"
		}
		panic(msg)
	}
}

// blockLocked blocks the running process p in a primitive of the given
// kind: p joins the waiter set in (if any) and, with d >= 0, arms a deadline
// d from now. The caller then parks, or a step process returns from its
// step; p.w tells how the wait ended.
func (e *Engine) blockLocked(p *Proc, kind waitKind, in *Ring[*Proc], d time.Duration) {
	if e.stopped {
		// The simulation is over: park() raises errKilled at once.
		p.killed = true
		return
	}
	p.w = wait{kind: kind, in: in, idx: -1}
	p.armed = true
	if d >= 0 {
		e.seq++
		e.timers.push(timer{at: e.deadlineLocked(d), seq: e.seq, p: p})
	}
	if in != nil {
		in.Push(p)
	}
	e.traceLocked(p, blockEvent[kind])
}

// wakeLocked makes the blocked process p ready ahead of its deadline, which
// is disarmed on the spot: a cancelled deadline leaves nothing in the heap.
// The caller has already taken p out of its waiter set.
func (e *Engine) wakeLocked(p *Proc) {
	if p.w.idx >= 0 {
		e.timers.remove(p.w.idx)
	}
	e.readyLocked(p)
}

// readyLocked moves a blocked process to the ready queue.
func (e *Engine) readyLocked(p *Proc) {
	p.w.kind, p.w.in = waitNone, nil
	e.runq.Push(p)
}

// deadlineLocked returns the instant d from now.
func (e *Engine) deadlineLocked(d time.Duration) time.Duration {
	at := e.now + d
	if at < e.now {
		// Overflow (an absurd duration, e.g. decoded from hostile input):
		// clamp to the far future instead of corrupting the timer heap.
		at = math.MaxInt64
	}
	return at
}

// pastLimitLocked reports whether a clock at t trips the time limit.
func (e *Engine) pastLimitLocked(t time.Duration) bool {
	return e.timeLimit > 0 && t > e.timeLimit && !e.open
}

// loopLocked is the dispatch loop: it resumes the process pickLocked names,
// on the process's carrier or by a call of its step, until it names none.
func (e *Engine) loopLocked() {
	for p := e.pickLocked(); p != nil; p = e.pickLocked() {
		if p.step != nil {
			e.stepLocked(p)
			continue
		}
		c := p.c
		if c == nil {
			c = takeCarrier()
			c.p, p.c = p, c
		}
		if exited, _ := c.next(); exited {
			putCarrier(c)
		}
	}
}

// stepLocked dispatches the step process p: one call of its step, on the
// loop's own goroutine. The process exits when the step returns false, or
// when the simulation ended as it armed its wait. A panic in the step comes
// out of the loop as a ProcPanic, as a coroutine body's does; a
// runtime.Goexit retires p and goes on through the loop.
func (e *Engine) stepLocked(p *Proc) {
	returned := false
	defer func() {
		if returned {
			return
		}
		if r := recover(); r != nil {
			panic(&ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()})
		}
		e.exitLocked(p)
	}()
	p.armed = false
	more := p.step(p)
	switch {
	case p.killed:
	case more && !p.armed:
		panic("sim: step returned true with no wait armed")
	case !more && p.armed:
		panic("sim: step returned false with a wait armed")
	}
	returned = true
	if !more || p.killed {
		e.exitLocked(p)
	}
}

// hub runs an open-mode engine's loop: whenever the loop runs out of ready
// processes, deadlines and mail it parks on kick, and once Stop has killed
// every process it ends. A runtime.Goexit in process code comes out of the
// loop here; it ended that process, not the engine, so a new hub carries on.
func (e *Engine) hub() {
	over := false
	defer func() {
		if !over {
			go e.hub()
		}
	}()
	for !e.stopped {
		e.loopLocked()
		e.mu.Lock()
		// A post that came after the loop's last look finds the hub busy
		// and sends no kick: look again instead of parking.
		e.idle = !e.posted.Load() && !e.stopped
		idle := e.idle
		e.mu.Unlock()
		if idle {
			<-e.kick
		}
	}
	over = true
	e.closeMail()
}

// pickLocked names the next process for the loop to resume, advancing the
// virtual clock through armed deadlines, and running the At callbacks among
// them, as needed. nil means there is nothing to resume: the engine is idle
// (open mode), deadlocked or past its time limit (Run mode, reported in
// e.deadlock), or every process has exited.
//
// Once the simulation is over it names the first live process, killed, so
// that its park() unwinds it, and it leaves the list as it exits. Processes
// so die one at a time, in pid order, each after the previous one has
// exited: a process's deferred cleanup runs as serialized as the simulation
// was, never racing another's.
func (e *Engine) pickLocked() *Proc {
	for !e.stopped {
		if e.posted.Load() {
			e.drainMail()
			continue
		}
		if p, ok := e.runq.Pop(); ok {
			e.running = p
			e.traceLocked(p, "run")
			return p
		}
		if len(e.timers) > 0 {
			t := e.timers.remove(0)
			if t.at < e.now {
				panic("sim: timer in the past")
			}
			e.now = t.at
			if e.pastLimitLocked(e.now) {
				e.deadlock = "sim: virtual time limit exceeded at " + e.now.String() + "\n" + e.deadlockDumpLocked()
				return nil
			}
			if p := t.p; p == &e.callback {
				e.running = p
				t.fn()
				e.running = nil
			} else {
				// The deadline fired first: p leaves the waiters and wakes timed out.
				if p.w.in != nil {
					removeProc(p.w.in, p)
				}
				p.w.timedOut = true
				e.readyLocked(p)
			}
			continue
		}
		e.running = nil
		if !e.open {
			// Deadlock: every non-daemon process is blocked with nothing to
			// wake it. Report to the Run caller, which panics with the dump;
			// blocked processes are intentionally left parked.
			e.deadlock = e.deadlockDumpLocked()
		}
		return nil // open mode: idle until external activity
	}
	for p := e.liveHead; p != nil; p = e.liveHead {
		p.killed = true
		if p.c != nil && p.step == nil {
			e.running = p
			return p
		}
		e.exitLocked(p) // a step process, or one that never ran: there is nothing to unwind
	}
	e.running = nil
	return nil
}

func (e *Engine) deadlockDumpLocked() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at t=%v: %d non-daemon process(es) blocked with no pending timers\n", e.now, e.nlive)
	for p := e.liveHead; p != nil; p = p.next {
		if p.w.kind == waitNone {
			continue
		}
		kind := ""
		if p.daemon {
			kind = " (daemon)"
		}
		fmt.Fprintf(&b, "  proc %d %q%s blocked on %s\n", p.id, p.name, kind, blockEvent[p.w.kind][len("block:"):])
	}
	return b.String()
}

func (e *Engine) traceLocked(p *Proc, event string) {
	if e.trace != nil {
		e.trace(e.now, p.name, event)
	}
}

// --- timers ---

// timer is one armed deadline: a blocked process's, or (p == &e.callback)
// an At callback's.
type timer struct {
	at  time.Duration
	seq uint64
	p   *Proc
	fn  func()
}

// timerHeap is a binary min-heap of armed deadlines, ordered by (at, seq);
// seq is unique, so the order is total and equal deadlines fire in the order
// they were armed. Each entry records its position in its process's w.idx,
// which lets a wake-up remove its deadline directly.
type timerHeap []timer

func (h timerHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].p.w.idx = i
	h[j].p.w.idx = j
}

func (h timerHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts h[i] towards the leaves and reports whether it moved.
func (h timerHeap) down(i int) bool {
	start := i
	for child := 2*i + 1; child < len(h); child = 2*i + 1 {
		if r := child + 1; r < len(h) && h.less(r, child) {
			child = r
		}
		if !h.less(child, i) {
			break
		}
		h.swap(i, child)
		i = child
	}
	return i > start
}

func (h *timerHeap) push(t timer) {
	t.p.w.idx = len(*h)
	*h = append(*h, t)
	h.up(t.p.w.idx)
}

// remove takes h[i] out of the heap; remove(0) pops the earliest deadline.
func (h *timerHeap) remove(i int) timer {
	old := *h
	last := len(old) - 1
	t := old[i]
	if i != last {
		old.swap(i, last)
		if rest := old[:last]; !rest.down(i) {
			rest.up(i)
		}
	}
	old[last] = timer{}
	*h = old[:last]
	t.p.w.idx = -1
	return t
}
