// Package sim implements a deterministic discrete-event simulation engine.
//
// Every DGSF component that the experiments measure — guest libraries, API
// servers, the GPU server monitor, the serverless backend, and the simulated
// GPUs themselves — runs as a simulated process (Proc) on a virtual clock.
// The engine executes exactly one process at a time: when the running process
// blocks (Sleep, Queue.Recv, Cond.Wait, ...) the engine
// picks the next ready process, and when no process is ready it advances the
// virtual clock to the earliest pending timer. Given a fixed seed, a
// simulation is fully deterministic and independent of wall-clock speed.
//
// The engine supports two modes:
//
//   - Run mode (Engine.Run): the usual mode for experiments. The simulation
//     ends when every non-daemon process has finished: daemons take no further
//     step, and Run returns once their goroutines have exited. If all
//     processes are blocked with no pending timers, the engine panics with a
//     process dump (deadlock).
//
//   - Open mode (NewOpenEngine + Engine.Inject): used when simulated
//     components serve requests arriving from outside the simulation, e.g. a
//     GPU server reachable over real TCP sockets. Idle is not a deadlock;
//     external goroutines inject new processes at any time. Virtual durations
//     are still accounted, but the engine runs as fast as possible.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// errKilled is panicked inside a process when the engine is stopped; the
// process runner recovers it and exits the goroutine cleanly.
var errKilled = errors.New("sim: process killed")

// Engine is a discrete-event simulation engine. Create one with NewEngine or
// NewOpenEngine; the zero value is not usable.
type Engine struct {
	mu sync.Mutex

	now    time.Duration // current virtual time
	timers timerHeap     // armed deadlines of processes and At callbacks, earliest (at, seq) first
	seq    uint64        // deadlines armed so far: the tie-break between equal instants

	running *Proc       // the process currently executing, or nil
	runq    ring[*Proc] // processes ready to execute, FIFO
	// callback stands for every At callback, in the timer heap and, while
	// one runs, in running: the engine is busy, and no process may block.
	callback Proc

	nlive   int           // live non-daemon processes, plus Holds
	started bool          // Run was called
	done    chan struct{} // closed when the simulation is over (Run mode)
	open    bool          // open mode: idle is not a deadlock
	stopped bool          // the simulation is over: no process takes another step

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
// add work with Inject at any time.
func NewOpenEngine(seed int64) *Engine {
	e := NewEngine(seed)
	e.open = true
	return e
}

// SetTrace installs fn as the trace hook, invoked for process lifecycle
// events. Must be called before Run or Inject.
func (e *Engine) SetTrace(fn func(now time.Duration, proc, event string)) { e.trace = fn }

// SetTimeLimit makes Run fail (panic, like a deadlock) if virtual time
// passes limit. Periodic callbacks can mask a stuck simulation from deadlock
// detection by keeping timers pending forever; a time limit converts that
// livelock into a diagnosable failure. Zero disables the limit.
func (e *Engine) SetTimeLimit(limit time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.timeLimit = limit
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// Proc is a simulated process. A Proc is only valid inside the function it
// was spawned with; all blocking methods must be called by the process
// itself.
type Proc struct {
	e      *Engine
	id     int
	name   string
	daemon bool
	wake   chan struct{} // buffered(1); one send per park
	killed bool
	doneCh chan struct{} // closed on exit, if requested via Inject
	rng    *rand.Rand    // set by the first Rand: lent by the engine or new

	prev, next *Proc // neighbours in the engine's live list
	w          wait
}

// wait is the one thing a process is blocked on. A process blocks on at most
// one primitive at a time, so the record is part of the Proc and every park
// reuses it: blocking allocates nothing. It is written under the engine lock,
// by the process as it blocks and by whoever wakes it; once woken, the process
// reads the outcome flags unlocked, ordered after the writes by its wake.
type wait struct {
	kind waitKind     // the primitive parked in; waitNone while ready or running
	in   *ring[*Proc] // waiter set to leave if the deadline fires first, or nil
	idx  int          // position of the deadline in the timer heap; -1 while none is armed

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
func (p *Proc) Now() time.Duration {
	p.e.mu.Lock()
	defer p.e.mu.Unlock()
	return p.e.now
}

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
		e := p.e
		e.mu.Lock()
		if n := len(e.rands); n > 0 {
			p.rng = e.rands[n-1]
			e.rands[n-1] = nil
			e.rands = e.rands[:n-1]
		}
		e.mu.Unlock()
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

// Run spawns a root process executing root and blocks until that process and
// every non-daemon process transitively spawned from it have finished. That
// instant ends the simulation: daemons are killed where they are parked, and
// Run returns once every process goroutine has exited, so nothing the
// simulation spawned is still running — or still mutating state the caller
// is about to read. Run may be called at most once per engine.
func (e *Engine) Run(name string, root func(p *Proc)) {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		panic("sim: Run called twice")
	}
	e.started = true
	e.done = make(chan struct{})
	done := e.done
	p := e.newProcLocked(name, false)
	e.startLocked(p, root)
	e.maybeDispatchLocked()
	e.mu.Unlock()
	<-done
	e.mu.Lock()
	dl := e.deadlock
	e.mu.Unlock()
	if dl != "" {
		panic(dl)
	}
}

// Inject spawns a non-daemon process from outside the simulation (open mode)
// and returns a channel that is closed when the process finishes.
func (e *Engine) Inject(name string, fn func(p *Proc)) <-chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	p := e.newProcLocked(name, false)
	p.doneCh = make(chan struct{})
	e.startLocked(p, fn)
	e.maybeDispatchLocked()
	return p.doneCh
}

// InjectDaemon spawns a daemon process from outside the simulation.
func (e *Engine) InjectDaemon(name string, fn func(p *Proc)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	p := e.newProcLocked(name, true)
	e.startLocked(p, fn)
	e.maybeDispatchLocked()
}

// Hold keeps the simulation from ending, as one more live non-daemon process
// would, until the matching Release. It is for daemons that take on work the
// simulation must not end under: a server loop parks its workers as daemons
// and holds the engine from handing one a request until the reply is out, so
// the simulation ends when it would have with a process per request.
func (e *Engine) Hold() {
	e.mu.Lock()
	e.nlive++
	e.mu.Unlock()
}

// Release ends one Hold. If nothing else keeps the simulation alive it is
// over, as at the exit of the last non-daemon process: a calling process runs
// on to its next blocking call, and no other takes a further step.
func (e *Engine) Release() {
	e.mu.Lock()
	e.endLiveLocked()
	e.maybeDispatchLocked()
	e.mu.Unlock()
}

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
// engine): every blocked and ready process is killed, and the currently
// running one, if any, at its next blocking call. Stop does not wait for the
// process goroutines to exit.
func (e *Engine) Stop() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stopped = true
	e.maybeDispatchLocked()
}

// killNextLocked is dispatching once the simulation is over: the first live
// process is woken with killed set, so its park() unwinds the goroutine, and
// leaves the list as it exits. Processes so die one at a time, in pid order,
// each after the previous one has exited: a process's deferred cleanup runs
// as serialized as the simulation was, never racing another's. After the
// last one the Run caller (if any) is released. Called with e.running == nil.
func (e *Engine) killNextLocked() {
	p := e.liveHead
	if p == nil {
		e.finishLocked()
		return
	}
	e.running = p
	e.killLocked(p)
}

// finishLocked releases the Run caller, once.
func (e *Engine) finishLocked() {
	if e.done != nil {
		close(e.done)
		e.done = nil
	}
}

// killLocked makes p's next (or current) park() raise errKilled.
func (e *Engine) killLocked(p *Proc) {
	p.killed = true
	p.wake <- struct{}{}
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
	e := p.e
	e.mu.Lock()
	defer e.mu.Unlock()
	np := e.newProcLocked(name, daemon)
	e.startLocked(np, fn)
	return np
}

// Sleep blocks the process for virtual duration d. Non-positive durations
// yield to other ready processes without advancing time.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		p.Yield()
		return
	}
	e := p.e
	e.mu.Lock()
	e.checkRunningLocked(p, "Sleep")
	if at := e.deadlineLocked(d); e.sleeperRunsNextLocked(at) {
		// Parking would pop this deadline first and dispatch p straight
		// back: take its sequence number, advance the clock and trace what
		// the dispatcher would have, without the goroutine hand-off.
		e.seq++
		e.traceLocked(p, blockEvent[waitSleep])
		e.now = at
		e.traceLocked(p, "run")
		e.mu.Unlock()
		return
	}
	e.blockLocked(p, waitSleep, nil, d)
	e.mu.Unlock()
	p.park()
}

// sleeperRunsNextLocked reports whether the running process, were it to park
// until at, would be the very next one dispatched: nobody is ready, no armed
// deadline is at or before at (an equal one was armed earlier and fires
// first), and at is inside the time limit, which only the dispatcher reports.
func (e *Engine) sleeperRunsNextLocked(at time.Duration) bool {
	return !e.stopped && e.runq.len() == 0 &&
		(len(e.timers) == 0 || e.timers[0].at > at) &&
		!e.pastLimitLocked(at)
}

// At runs fn at virtual instant at (now, if that has passed) in deadline
// order, once no process is ready, as the one thing running but without the
// engine lock: fn may Send, Close, Broadcast, Add, read Now and call At, but
// a blocking call panics. Nothing fires once the simulation is over. Arming
// allocates nothing once the heap has grown: bind fn once, not per call.
func (e *Engine) At(at time.Duration, fn func()) {
	e.mu.Lock()
	e.seq++
	e.timers.push(timer{at: max(at, e.now), seq: e.seq, p: &e.callback, fn: fn})
	e.mu.Unlock()
}

// Yield moves the process to the back of the ready queue, letting other
// ready processes run at the same virtual time.
func (p *Proc) Yield() {
	e := p.e
	e.mu.Lock()
	e.checkRunningLocked(p, "Yield")
	switch {
	case e.stopped:
		e.killLocked(p)
	case e.runq.len() == 0:
		// Nobody else is ready: p would be dispatched straight back. The
		// dispatcher is consulted (and traces the switch) only while a
		// deadline is armed somewhere.
		if len(e.timers) > 0 {
			e.traceLocked(p, "run")
		}
		e.mu.Unlock()
		return
	default:
		e.runq.push(p)
		e.running = nil
		e.dispatchLocked()
	}
	e.mu.Unlock()
	p.park()
}

// --- internals ---

func (e *Engine) newProcLocked(name string, daemon bool) *Proc {
	e.nextPID++
	return &Proc{
		e:      e,
		id:     e.nextPID,
		name:   name,
		daemon: daemon,
		wake:   make(chan struct{}, 1),
		w:      wait{idx: -1},
	}
}

// startLocked queues p for its first dispatch and launches its goroutine.
// On a stopped engine the process is stillborn: fn never runs.
func (e *Engine) startLocked(p *Proc, fn func(*Proc)) {
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
	e.runq.push(p)
	e.traceLocked(p, "spawn")
	go func() {
		defer e.procExit(p) // before the first park: a process can be killed unstarted
		p.park()
		fn(p)
	}()
}

// procExit runs when a process function returns or is killed.
func (e *Engine) procExit(p *Proc) {
	if r := recover(); r != nil {
		if err, ok := r.(error); !ok || !errors.Is(err, errKilled) {
			// Real panic from process code: let it crash with this
			// goroutine's stack, which points at the offending code.
			panic(r)
		}
	}
	e.mu.Lock()
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
	if e.running == p {
		e.running = nil
	}
	if !p.daemon {
		e.endLiveLocked()
	}
	if e.running == nil {
		e.dispatchLocked()
	}
	e.mu.Unlock()
}

// park blocks the goroutine until the scheduler wakes the process.
func (p *Proc) park() {
	<-p.wake
	if p.killed {
		panic(errKilled)
	}
}

// checkRunningLocked guards against sim primitives being called from
// goroutines that are not the currently scheduled process, or from an At
// callback. It releases the lock before it panics.
func (e *Engine) checkRunningLocked(p *Proc, op string) {
	if e.running != p {
		msg := fmt.Sprintf("sim: %s called by %q which is not the running process", op, p.name)
		if e.running == &e.callback {
			msg = "sim: " + op + " called from an At callback, which must not block"
		}
		e.mu.Unlock()
		panic(msg)
	}
}

// blockLocked parks the running process p in a primitive of the given kind
// and schedules the next one: p joins the waiter set in (if any) and, with
// d >= 0, arms a deadline d from now. The caller must subsequently release
// the lock and park; p.w then tells how the wait ended.
func (e *Engine) blockLocked(p *Proc, kind waitKind, in *ring[*Proc], d time.Duration) {
	if e.stopped {
		// The simulation is over: the process wakes immediately and its
		// park() call raises errKilled.
		e.killLocked(p)
		return
	}
	p.w = wait{kind: kind, in: in, idx: -1}
	if d >= 0 {
		e.seq++
		e.timers.push(timer{at: e.deadlineLocked(d), seq: e.seq, p: p})
	}
	if in != nil {
		in.push(p)
	}
	e.traceLocked(p, blockEvent[kind])
	e.running = nil
	e.dispatchLocked()
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
	e.runq.push(p)
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

// maybeDispatchLocked starts the scheduler if no process is running, which
// happens when an external goroutine (open mode) makes a process ready.
func (e *Engine) maybeDispatchLocked() {
	if e.running == nil {
		e.dispatchLocked()
	}
}

// dispatchLocked picks the next process to run, advancing the virtual clock
// through armed deadlines, and running the At callbacks among them, as
// needed. Called with e.running == nil.
func (e *Engine) dispatchLocked() {
	for !e.stopped {
		if p, ok := e.runq.pop(); ok {
			e.running = p
			e.traceLocked(p, "run")
			p.wake <- struct{}{}
			return
		}
		if len(e.timers) > 0 {
			t := e.timers.remove(0)
			if t.at < e.now {
				panic("sim: timer in the past")
			}
			e.now = t.at
			if e.pastLimitLocked(e.now) {
				e.deadlock = "sim: virtual time limit exceeded at " + e.now.String() + "\n" + e.deadlockDumpLocked()
				e.finishLocked()
				return
			}
			if p := t.p; p == &e.callback {
				e.running = p
				e.mu.Unlock()
				t.fn()
				e.mu.Lock()
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
		if e.open || e.done == nil {
			return // idle until external activity (or already finished)
		}
		// Deadlock: every non-daemon process is blocked with nothing to wake
		// it. Report to the Run caller, which panics with the dump; blocked
		// process goroutines are intentionally left parked.
		e.deadlock = e.deadlockDumpLocked()
		e.finishLocked()
		return
	}
	e.killNextLocked()
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
