package sim

import "time"

// Cond is a condition variable for simulated processes. Unlike sync.Cond it
// carries no external mutex: the engine lock serializes all state changes,
// and waiters re-check their predicate after waking, as usual.
type Cond struct {
	e       *Engine
	waiters ring[*Proc] // longest-waiting first
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

func (c *Cond) wait(p *Proc, d time.Duration) bool {
	e := c.e
	e.mu.Lock()
	e.checkRunningLocked(p, "Cond.Wait")
	e.blockLocked(p, waitCond, &c.waiters, d)
	e.mu.Unlock()
	p.park()
	return p.w.timedOut
}

// Broadcast wakes every waiter. Safe to call from simulated processes and,
// in open mode, from external goroutines.
func (c *Cond) Broadcast() {
	e := c.e
	e.mu.Lock()
	for p, ok := c.waiters.pop(); ok; p, ok = c.waiters.pop() {
		e.wakeLocked(p)
	}
	e.maybeDispatchLocked()
	e.mu.Unlock()
}

// Signal wakes the longest-waiting waiter, if any.
func (c *Cond) Signal() {
	e := c.e
	e.mu.Lock()
	if p, ok := c.waiters.pop(); ok {
		e.wakeLocked(p)
	}
	e.maybeDispatchLocked()
	e.mu.Unlock()
}

// Queue is an unbounded FIFO channel between simulated processes. Send never
// blocks and is safe to call from external goroutines (open mode); Recv
// blocks the calling process until an item or Close arrives.
type Queue[T any] struct {
	e       *Engine
	items   ring[T]
	waiters ring[*Proc] // blocked receivers, longest-waiting first; empty unless items is
	closed  bool

	// handoff holds the items of woken receivers that have not run yet: a
	// Send that finds a waiter readies it and puts the item here, where no
	// other receiver can take it. The ready queue is FIFO, so the receivers
	// run, and each pop the head, in the order they were handed.
	handoff ring[T]
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
	e := q.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if q.closed {
		return false
	}
	if p, ok := q.waiters.pop(); ok {
		q.handoff.push(v)
		p.w.handed = true
		e.wakeLocked(p)
	} else {
		q.items.push(v)
	}
	e.maybeDispatchLocked()
	return true
}

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool {
	q.e.mu.Lock()
	defer q.e.mu.Unlock()
	return q.closed
}

// Close marks the queue closed. Blocked and future receivers observe ok=false
// once the queue drains. Sending after Close panics.
func (q *Queue[T]) Close() {
	e := q.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	for p, ok := q.waiters.pop(); ok; p, ok = q.waiters.pop() {
		e.wakeLocked(p)
	}
	e.maybeDispatchLocked()
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
func (q *Queue[T]) TryRecv() (v T, ok bool) {
	q.e.mu.Lock()
	defer q.e.mu.Unlock()
	return q.items.pop()
}

func (q *Queue[T]) recv(p *Proc, d time.Duration) (v T, ok bool, timedOut bool) {
	e := q.e
	e.mu.Lock()
	e.checkRunningLocked(p, "Queue.Recv")
	if v, ok = q.items.pop(); ok || q.closed || d == 0 {
		e.mu.Unlock()
		return v, ok, !ok && !q.closed // empty and open: d == 0 has timed out
	}
	e.blockLocked(p, waitQueue, &q.waiters, d)
	e.mu.Unlock()
	p.park()
	if p.w.handed {
		e.mu.Lock()
		v, ok = q.handoff.pop()
		e.mu.Unlock()
	}
	return v, ok, p.w.timedOut
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int {
	q.e.mu.Lock()
	defer q.e.mu.Unlock()
	return q.items.len()
}

// WaitGroup waits for a collection of simulated activities to finish.
type WaitGroup struct {
	e    *Engine
	n    int
	cond *Cond
}

// NewWaitGroup returns an empty wait group bound to e.
func NewWaitGroup(e *Engine) *WaitGroup { return &WaitGroup{e: e, cond: NewCond(e)} }

// Add adds delta to the counter.
func (wg *WaitGroup) Add(delta int) {
	wg.e.mu.Lock()
	wg.n += delta
	n := wg.n
	wg.e.mu.Unlock()
	if n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if n == 0 {
		wg.cond.Broadcast()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks p until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for {
		wg.e.mu.Lock()
		n := wg.n
		wg.e.mu.Unlock()
		if n == 0 {
			return
		}
		wg.cond.Wait(p)
	}
}
