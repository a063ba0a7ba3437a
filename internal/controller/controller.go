// Package controller is the reconciler runtime of the fleet control plane.
//
// A Controller is the client half of the store's List/Watch contract: it
// lists each declared kind once, then watches, and keeps what it learns in a
// Cache. It owns a deduplicating work queue of object keys, fed from two
// sources: the watch streams (edge triggers) and a periodic replay of every
// cached key (the level trigger that makes a dropped edge or a failed
// reconcile harmless). A single reconcile loop pops keys and hands them to
// the Reconciler, which reads the Cache — never the store — and drives the
// object toward the desired state with compare-and-swap writes. Reconcilers
// must be idempotent: the same key may be delivered many times, and after a
// crash the replacement's initial list delivers every key again.
//
// Error handling is uniform: a reconcile error requeues the key with
// exponential backoff (a conflict is an ordinary error — the cached view was
// stale, and the next attempt runs against what the watch delivered since),
// and store.ErrHalted is fatal — it means this replica's store handle is
// dead (crash injection), so the controller parks itself and waits to be
// restarted by its supervisor. A watch stream that closes under a running
// controller (a severed connection) halts it the same way: a cache that no
// longer hears of changes must not be reconciled from.
package controller

import (
	"errors"
	"fmt"
	"time"

	"dgsf/internal/metrics"
	"dgsf/internal/sim"
	"dgsf/internal/store"
)

// Key identifies one object to reconcile.
type Key struct {
	Kind store.Kind
	Name string
}

// Reconciler drives the object named by key toward its desired state,
// reading from c and writing through it. A nil error means done (until the
// next edge); any other error requeues the key with backoff. Returning an
// error wrapping store.ErrHalted stops the controller.
type Reconciler interface {
	Reconcile(p *sim.Proc, c *Cache, key Key) error
}

// Func adapts a plain function to the Reconciler interface.
type Func func(p *sim.Proc, c *Cache, key Key) error

// Reconcile implements Reconciler.
func (f Func) Reconcile(p *sim.Proc, c *Cache, key Key) error { return f(p, c, key) }

// Options configures a Controller.
type Options struct {
	// Name labels metrics and spawned processes.
	Name string
	// Store is the handle the cache lists and watches through and every
	// write goes through. Wrap it in a store.Fuse to crash the controller at
	// a chosen write.
	Store store.Interface
	// Kinds lists the keyspaces that are cached and whose events feed the
	// work queue.
	Kinds []store.Kind
	// Observe lists further keyspaces that are cached for reconcilers to
	// read but whose events enqueue nothing.
	Observe []store.Kind
	// OnChange, when set, is called for every change to the cache's
	// contents with the shared views before and after (nil for absent), so
	// a reconciler can keep a derived count current instead of iterating.
	OnChange func(old, cur store.Resource)
	// Resync is the period at which every cached key of Kinds is delivered
	// again; 0 disables it. It reads the cache only, so a key whose object
	// needs nothing costs its reconcile and no store call.
	Resync time.Duration
	// Registry receives the controller's counters; nil means a private one.
	Registry *metrics.Registry
}

// Controller runs one reconcile loop over a watched keyspace.
type Controller struct {
	name     string
	st       store.Interface
	kinds    []store.Kind // drive the queue
	cached   []store.Kind // kinds, then the observed-only ones
	cache    *Cache
	resync   time.Duration
	rec      Reconciler
	queue    *workqueue
	failures map[Key]int

	halted  bool
	stopped bool
	watches []*store.Watch

	reconciles *metrics.Counter
	requeues   *metrics.Counter
	resyncs    *metrics.Counter
}

// New builds a controller; call Run from a simulated process to start it.
func New(opts Options, rec Reconciler) *Controller {
	if opts.Name == "" {
		opts.Name = "controller"
	}
	reg := opts.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	cached := append(append([]store.Kind(nil), opts.Kinds...), opts.Observe...)
	return &Controller{
		name:       opts.Name,
		st:         opts.Store,
		kinds:      opts.Kinds,
		cached:     cached,
		cache:      newCache(opts.Store, cached, opts.OnChange),
		resync:     opts.Resync,
		rec:        rec,
		failures:   make(map[Key]int),
		reconciles: reg.Counter(fmt.Sprintf("ctrl_%s_reconciles_total", opts.Name)),
		requeues:   reg.Counter(fmt.Sprintf("ctrl_%s_requeues_total", opts.Name)),
		resyncs:    reg.Counter(fmt.Sprintf("ctrl_%s_resyncs_total", opts.Name)),
	}
}

// Enqueue adds a key to the work queue (deduplicated). Use it to seed work
// that has no watch edge, e.g. from a data-plane event.
func (c *Controller) Enqueue(key Key) {
	if c.queue != nil {
		c.queue.Add(key)
	}
}

// Halted reports whether the controller stopped because its store handle
// returned ErrHalted or a watch stream closed under it — the signal for a
// supervisor to start a replacement on a fresh handle.
func (c *Controller) Halted() bool { return c.halted }

// halt parks the controller for its supervisor.
func (c *Controller) halt() {
	c.halted = true
	c.Stop()
}

// Stop ends the reconcile loop and its watch pumps. Idempotent.
func (c *Controller) Stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	for _, w := range c.watches {
		w.Stop()
	}
	if c.queue != nil {
		c.queue.Close()
	}
}

// Run fills the cache (list-then-watch per kind), starts the watch pumps and
// the resync ticker, and loops reconciling until Stop or a halt. It blocks
// for the controller's lifetime; spawn it if the caller has other work.
func (c *Controller) Run(p *sim.Proc) {
	c.queue = newWorkqueue(p.Engine())

	for i, kind := range c.cached {
		kind, drives := kind, i < len(c.kinds)
		// The list makes the controller converge from any starting state,
		// and watching from its RV avoids replaying the very edges it covers.
		var w *store.Watch
		rv, err := c.relist(p, kind, drives)
		if err == nil {
			w, err = c.st.Watch(p, kind, rv)
		}
		if err != nil {
			// A handle dead before we even started: park immediately.
			c.halted = store.IsHalted(err)
			c.Stop()
			return
		}
		c.watches = append(c.watches, w)
		p.SpawnDaemon(fmt.Sprintf("%s-watch-%s", c.name, kind), func(p *sim.Proc) {
			c.pump(p, w, kind, drives)
		})
	}

	if c.resync > 0 {
		e := p.Engine()
		var resync func()
		resync = func() {
			if c.stopped {
				return
			}
			c.resyncs.Inc()
			for _, kind := range c.kinds {
				c.enqueueAll(kind)
			}
			e.At(e.Now()+c.resync, resync)
		}
		e.At(p.Now()+c.resync, resync)
	}

	for {
		key, ok := c.queue.Get(p)
		if !ok || c.stopped {
			c.Stop()
			return
		}
		c.reconciles.Inc()
		err := c.rec.Reconcile(p, c.cache, key)
		switch {
		case err == nil:
			delete(c.failures, key)
		case errors.Is(err, store.ErrHalted):
			c.halt()
			return
		default:
			c.failures[key]++
			c.requeues.Inc()
			// The pending retry holds the simulation open, as a process
			// sleeping out the backoff would.
			e := p.Engine()
			e.Hold()
			e.At(p.Now()+backoff(c.failures[key]), func() {
				if !c.stopped {
					c.queue.Add(key)
				}
				e.Release()
			})
		}
	}
}

// pump applies one kind's watch stream to the cache and, for a kind that
// drives the queue, enqueues each event's key. The stream ending while the
// controller runs halts it.
func (c *Controller) pump(p *sim.Proc, w *store.Watch, kind store.Kind, drives bool) {
	for {
		ev, ok := w.Events.Recv(p)
		if !ok {
			if !c.stopped {
				c.halt()
			}
			return
		}
		if ev.Type == store.Gap {
			// Deletions were lost with the gap: only a fresh list says what
			// is gone. The synthesized Added events behind the marker are
			// no newer than it and fold in as no-ops.
			if _, err := c.relist(p, kind, drives); err != nil {
				c.halt()
				return
			}
			continue
		}
		c.cache.apply(ev)
		if drives {
			c.queue.Add(Key{Kind: kind, Name: ev.Object.Meta().Name})
		}
	}
}

// relist replaces the kind's cached contents with a fresh List — the one at
// start-up, or the one a watch gap forces — and returns the list's RV.
func (c *Controller) relist(p *sim.Proc, kind store.Kind, drives bool) (uint64, error) {
	rs, rv, err := c.st.List(p, kind)
	if err != nil {
		return 0, err
	}
	c.cache.replace(kind, rs, rv)
	if drives {
		c.enqueueAll(kind)
	}
	return rv, nil
}

// enqueueAll delivers every cached key of the kind, in name order.
func (c *Controller) enqueueAll(kind store.Kind) {
	for _, name := range c.cache.Names(kind) {
		c.queue.Add(Key{Kind: kind, Name: name})
	}
}

// The per-key retry delay doubles from baseBackoff up to maxBackoff.
const (
	baseBackoff = time.Millisecond
	maxBackoff  = 250 * time.Millisecond
)

// backoff returns the delay before the n-th consecutive retry of a key.
func backoff(n int) time.Duration {
	d := baseBackoff
	for i := 1; i < n && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	return d
}

// workqueue is a deduplicating FIFO of keys. A key already waiting is not
// added again; a key being reconciled right now can be re-added (it is no
// longer "in" the queue), which is what coalesces event storms into at most
// one pending reconcile per object.
type workqueue struct {
	items   []Key // pending keys are items[head:]
	head    int
	present map[Key]bool
	cond    *sim.Cond
	closed  bool
}

func newWorkqueue(e *sim.Engine) *workqueue {
	return &workqueue{present: make(map[Key]bool), cond: sim.NewCond(e)}
}

// Add enqueues key unless it is already pending or the queue is closed.
func (q *workqueue) Add(key Key) {
	if q.closed || q.present[key] {
		return
	}
	q.present[key] = true
	q.items = append(q.items, key)
	q.cond.Signal()
}

// Get blocks until a key is available or the queue closes.
func (q *workqueue) Get(p *sim.Proc) (Key, bool) {
	for q.Len() == 0 && !q.closed {
		q.cond.Wait(p)
	}
	if q.Len() == 0 {
		return Key{}, false
	}
	key := q.items[q.head]
	q.head++
	switch {
	case q.head == len(q.items):
		// Drained: start over in the same backing array, so a queue that
		// empties between bursts (every resync) never reallocates.
		q.items, q.head = q.items[:0], 0
	case q.head >= 1024 && q.head > len(q.items)/2:
		// Standing backlog: drop the consumed prefix before it dominates.
		q.items = q.items[:copy(q.items, q.items[q.head:])]
		q.head = 0
	}
	delete(q.present, key)
	return key, true
}

// Len reports the number of pending keys.
func (q *workqueue) Len() int { return len(q.items) - q.head }

// Close wakes all waiters; pending keys are still drained by Get.
func (q *workqueue) Close() {
	if q.closed {
		return
	}
	q.closed = true
	q.cond.Broadcast()
}
