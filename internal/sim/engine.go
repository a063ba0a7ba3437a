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
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
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
	timers timerHeap     // pending timer events, earliest first
	seq    uint64        // tie-break sequence for timers and procs

	running    *Proc   // the process currently executing, or nil
	runq       []*Proc // processes ready to execute, FIFO
	inDispatch bool    // true while dispatchLocked is advancing the clock

	nlive   int              // live non-daemon processes
	started bool             // Run was called
	done    chan struct{}    // closed when the simulation is over (Run mode)
	open    bool             // open mode: idle is not a deadlock
	stopped bool             // the simulation is over: no process takes another step
	dying   []*Proc          // processes still to be killed, in pid order
	blocked map[*Proc]string // blocked processes and why, for deadlock dumps

	seed      int64
	nextPID   int
	trace     func(now time.Duration, proc, event string)
	deadlock  string        // non-empty if the simulation deadlocked; Run panics with it
	timeLimit time.Duration // abort when virtual time passes this (0 = off)
}

// NewEngine returns an engine in Run mode seeded with seed. All randomness
// drawn through Proc.Rand derives from this seed, so a simulation replays
// identically for identical seeds.
func NewEngine(seed int64) *Engine {
	return &Engine{
		seed:    seed,
		blocked: make(map[*Proc]string),
	}
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
// passes limit. Periodic daemons can mask a stuck simulation from deadlock
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
	rng    *rand.Rand    // lazily created by Rand
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
func (p *Proc) Rand() *rand.Rand {
	if p.rng == nil {
		seed := uint64(p.e.seed) ^ 0xcbf29ce484222325
		for _, c := range p.name {
			seed = (seed ^ uint64(c)) * 0x100000001b3
		}
		p.rng = rand.New(rand.NewSource(int64(seed)))
	}
	return p.rng
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

// Stop ends the simulation from outside (the teardown of an open-mode
// engine): every blocked and ready process is killed, and the currently
// running one, if any, at its next blocking call. Stop does not wait for the
// process goroutines to exit.
func (e *Engine) Stop() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stopLocked()
	e.maybeDispatchLocked()
}

// stopLocked ends the simulation: from here on, dispatching means killing.
// Each live process is woken with killed set, so its park() unwinds the
// goroutine. They die one at a time, in pid order, each after the previous
// one has exited: a process's deferred cleanup then runs as serialized as
// the simulation was, never racing another process's.
func (e *Engine) stopLocked() {
	if e.stopped {
		return
	}
	e.stopped = true
	for p := range e.blocked {
		e.dying = append(e.dying, p)
	}
	e.dying = append(e.dying, e.runq...)
	sort.Slice(e.dying, func(i, j int) bool { return e.dying[i].id < e.dying[j].id })
	clear(e.blocked)
	e.runq = nil
}

// killNextLocked kills the next dying process, which unwinds as the running
// process; after the last one, the Run caller (if any) is released.
func (e *Engine) killNextLocked() {
	if len(e.dying) == 0 {
		if e.done != nil {
			close(e.done)
			e.done = nil
		}
		return
	}
	p := e.dying[0]
	e.dying = e.dying[1:]
	e.running = p
	e.killLocked(p)
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
	e.afterLocked(d, func() { e.readyLocked(p) })
	e.blockLocked(p, "sleep")
	e.mu.Unlock()
	p.park()
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
	case len(e.runq) == 0 && e.timers.Len() == 0:
		e.mu.Unlock()
		return
	default:
		e.runq = append(e.runq, p)
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
	e.runq = append(e.runq, p)
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
	if p.doneCh != nil {
		close(p.doneCh)
	}
	if e.running == p {
		e.running = nil
	}
	if !p.daemon {
		e.nlive--
		if e.nlive == 0 && e.started {
			// The last non-daemon is gone: the simulation is over. Daemons
			// stop where they are — a ready one takes no further step, and
			// pending timers never fire, or periodic daemons (samplers,
			// monitor ticks) would advance virtual time forever.
			e.stopLocked()
		}
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
// goroutines that are not the currently scheduled process.
func (e *Engine) checkRunningLocked(p *Proc, op string) {
	if e.running != p {
		panic(fmt.Sprintf("sim: %s called by %q which is not the running process", op, p.name))
	}
}

// blockLocked marks the running process as blocked and schedules the next
// one. The caller must subsequently release the lock and park.
func (e *Engine) blockLocked(p *Proc, why string) {
	if e.stopped {
		// The simulation is over: the process wakes immediately and its
		// park() call raises errKilled.
		e.killLocked(p)
		return
	}
	e.blocked[p] = why
	e.traceLocked(p, "block:"+why)
	e.running = nil
	e.dispatchLocked()
}

// readyLocked moves a blocked process to the ready queue.
func (e *Engine) readyLocked(p *Proc) {
	delete(e.blocked, p)
	e.runq = append(e.runq, p)
}

// maybeDispatchLocked starts the scheduler if no process is running, which
// happens when an external goroutine (open mode) makes a process ready.
func (e *Engine) maybeDispatchLocked() {
	if e.running == nil && !e.inDispatch {
		e.dispatchLocked()
	}
}

// dispatchLocked picks the next process to run, advancing the virtual clock
// through pending timers as needed. Called with e.running == nil.
func (e *Engine) dispatchLocked() {
	if e.stopped {
		e.killNextLocked()
		return
	}
	e.inDispatch = true
	defer func() { e.inDispatch = false }()
	for {
		if len(e.runq) > 0 {
			p := e.runq[0]
			e.runq = e.runq[1:]
			e.running = p
			e.traceLocked(p, "run")
			p.wake <- struct{}{}
			return
		}
		if e.timers.Len() > 0 {
			t := heap.Pop(&e.timers).(*timer)
			if t.cancelled {
				continue
			}
			if t.at < e.now {
				panic("sim: timer in the past")
			}
			e.now = t.at
			if e.timeLimit > 0 && e.now > e.timeLimit && !e.open {
				e.deadlock = "sim: virtual time limit exceeded at " + e.now.String() + "\n" + e.deadlockDumpLocked()
				if e.done != nil {
					close(e.done)
					e.done = nil
				}
				return
			}
			t.fired = true
			t.fn()
			continue
		}
		if e.open || e.done == nil {
			return // idle until external activity (or already finished)
		}
		// Deadlock: every non-daemon process is blocked with nothing to wake
		// it. Report to the Run caller, which panics with the dump; blocked
		// process goroutines are intentionally left parked.
		e.deadlock = e.deadlockDumpLocked()
		close(e.done)
		e.done = nil
		return
	}
}

func (e *Engine) deadlockDumpLocked() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at t=%v: %d non-daemon process(es) blocked with no pending timers\n", e.now, e.nlive)
	type entry struct {
		id   int
		desc string
	}
	var entries []entry
	for p, why := range e.blocked {
		kind := ""
		if p.daemon {
			kind = " (daemon)"
		}
		entries = append(entries, entry{p.id, fmt.Sprintf("  proc %d %q%s blocked on %s\n", p.id, p.name, kind, why)})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	for _, en := range entries {
		b.WriteString(en.desc)
	}
	return b.String()
}

func (e *Engine) traceLocked(p *Proc, event string) {
	if e.trace != nil {
		e.trace(e.now, p.name, event)
	}
}

// --- timers ---

type timer struct {
	at        time.Duration
	seq       uint64
	fn        func() // runs inside dispatchLocked with the engine lock held
	idx       int
	fired     bool
	cancelled bool
}

// afterLocked schedules fn to run at now+d. fn runs with the engine lock held
// inside the dispatch loop and must only perform scheduler bookkeeping
// (typically readyLocked).
func (e *Engine) afterLocked(d time.Duration, fn func()) *timer {
	e.seq++
	at := e.now + d
	if at < e.now {
		// Overflow (a caller slept for an absurd duration, e.g. decoded
		// from hostile input): clamp to the far future instead of
		// corrupting the timer heap.
		at = math.MaxInt64
	}
	t := &timer{at: at, seq: e.seq, fn: fn}
	heap.Push(&e.timers, t)
	return t
}

func (t *timer) cancelLocked() {
	if !t.fired {
		t.cancelled = true
	}
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *timerHeap) Push(x any) {
	t := x.(*timer)
	t.idx = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
