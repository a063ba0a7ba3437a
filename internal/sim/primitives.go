package sim

import "time"

// Cond is a condition variable for simulated processes. Unlike sync.Cond it
// carries no external mutex: one process runs at a time, and waiters re-check
// their predicate after waking, as usual.
type Cond struct {
	e       *Engine
	waiters Ring[*Proc] // longest-waiting first
}

// NewCond returns a condition variable bound to e.
func NewCond(e *Engine) *Cond { return &Cond{e: e} }

// Wait blocks p until Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) { c.wait(p, -1) }

// WaitTimeout blocks p until it is signaled or d elapses. It reports whether
// the wait timed out.
func (c *Cond) WaitTimeout(p *Proc, d time.Duration) (timedOut bool) {
	if d <= 0 {
		return true
	}
	return c.wait(p, d)
}

// wait arms as Arm does, in its own frame, so that a Wait is one call with
// the park inlined.
func (c *Cond) wait(p *Proc, d time.Duration) bool {
	c.e.checkRunningLocked(p, "Cond.Wait")
	c.e.blockLocked(p, waitCond, &c.waiters, d)
	p.park()
	return p.w.timedOut
}

// Arm arms a wait on c without parking: Signal or Broadcast ends it, or,
// with d >= 0, a deadline d from now (TimedOut). A step process then
// returns from its step; a coroutine process parks (Park).
func (c *Cond) Arm(p *Proc, d time.Duration) {
	c.e.checkRunningLocked(p, "Cond.Wait")
	c.e.blockLocked(p, waitCond, &c.waiters, d)
}

// Broadcast wakes every waiter.
func (c *Cond) Broadcast() {
	for p, ok := c.waiters.Pop(); ok; p, ok = c.waiters.Pop() {
		c.e.wakeLocked(p)
	}
}

// Signal wakes the longest-waiting waiter, if any.
func (c *Cond) Signal() {
	if p, ok := c.waiters.Pop(); ok {
		c.e.wakeLocked(p)
	}
}

// Queue is an unbounded FIFO channel between simulated processes. Send never
// blocks; Recv blocks the calling process until an item or Close arrives.
type Queue[T any] struct {
	e       *Engine
	items   Ring[T]
	waiters Ring[*Proc] // blocked receivers, longest-waiting first; empty unless items is
	closed  bool

	// handoff holds the items of woken receivers that have not run yet: a
	// Send that finds a waiter readies it and puts the item here, where no
	// other receiver can take it. The ready queue is FIFO, so the receivers
	// run, and each pop the head, in the order they were handed.
	handoff Ring[T]
}

// NewQueue returns an empty queue bound to e.
func NewQueue[T any](e *Engine) *Queue[T] { return &Queue[T]{e: e} }

// Send enqueues v, waking the longest-blocked receiver if one exists.
func (q *Queue[T]) Send(v T) {
	if !q.TrySend(v) {
		panic("sim: send on closed Queue")
	}
}

// TrySend enqueues v like Send but reports false instead of panicking when
// the queue is already closed. Fault-tolerant senders use it to race a
// receiver that may crash (close its inbox) at any instant.
func (q *Queue[T]) TrySend(v T) bool {
	if q.closed {
		return false
	}
	if p, ok := q.waiters.Pop(); ok {
		q.handoff.Push(v)
		p.w.handed = true
		q.e.wakeLocked(p)
	} else {
		q.items.Push(v)
	}
	return true
}

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed }

// Close marks the queue closed. Blocked and future receivers observe ok=false
// once the queue drains. Sending after Close panics.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for p, ok := q.waiters.Pop(); ok; p, ok = q.waiters.Pop() {
		q.e.wakeLocked(p)
	}
}

// Recv dequeues the next item, blocking until one is available. ok is false
// if the queue was closed and drained.
func (q *Queue[T]) Recv(p *Proc) (v T, ok bool) {
	v, ok, _ = q.recv(p, -1)
	return v, ok
}

// RecvTimeout is Recv with a virtual-time deadline.
func (q *Queue[T]) RecvTimeout(p *Proc, d time.Duration) (v T, ok bool, timedOut bool) {
	return q.recv(p, d)
}

// TryRecv dequeues the next item without blocking.
func (q *Queue[T]) TryRecv() (v T, ok bool) { return q.items.Pop() }

func (q *Queue[T]) recv(p *Proc, d time.Duration) (v T, ok bool, timedOut bool) {
	q.e.checkRunningLocked(p, "Queue.Recv")
	if v, ok = q.items.Pop(); ok || q.closed || d == 0 {
		return v, ok, !ok && !q.closed // empty and open: d == 0 has timed out
	}
	q.e.blockLocked(p, waitQueue, &q.waiters, d)
	p.park()
	if p.w.handed {
		v, ok = q.handoff.Pop()
	}
	return v, ok, p.w.timedOut
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.Len() }

// WaitGroup waits for a collection of simulated activities to finish.
type WaitGroup struct {
	n    int
	cond *Cond
}

// NewWaitGroup returns an empty wait group bound to e.
func NewWaitGroup(e *Engine) *WaitGroup { return &WaitGroup{cond: NewCond(e)} }

// Add adds delta to the counter.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	if wg.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.n == 0 {
		wg.cond.Broadcast()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks p until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.n != 0 {
		wg.cond.Wait(p)
	}
}
