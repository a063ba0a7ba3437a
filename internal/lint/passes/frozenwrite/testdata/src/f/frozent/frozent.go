// Package frozent exercises the frozenwrite analyzer: writes through the
// Object of a store.Event and through the views controller.Cache hands out,
// and the reads, retentions and copies that are fine.
package frozent

import (
	"f/internal/controller"
	"f/internal/sim"
	"f/internal/store"
)

type agent struct {
	published map[string]*store.Session
	last      store.Resource
}

// --- positives ---

func fieldThroughAssert(ev store.Event) {
	sess := ev.Object.(*store.Session)
	sess.Status.Phase = "Done" // want "the Object of a store.Event is shared with the store's log, caches and every other watcher, and frozen: this assignment writes through it"
}

func scalarStatusToo(ev store.Event) {
	ev.Object.(*store.GPUServer).Status.Active = 3 // want "the Object of a store.Event is shared"
}

func wholeMeta(ev store.Event) {
	*ev.Object.Meta() = store.ObjectMeta{} // want "this assignment writes through it"
}

func metaPointer(ev *store.Event) {
	m := ev.Object.Meta()
	m.ResourceVersion = 0 // want "the Object of a store.Event is shared"
}

func incrementAndOpAssign(ev store.Event) {
	sess, ok := ev.Object.(*store.Session)
	if !ok {
		return
	}
	sess.Status.Attempts++    // want "this assignment writes through it"
	sess.Status.Phase += "ed" // want "this assignment writes through it"
}

func cacheView(c *controller.Cache) {
	cur := c.Get("Session", "s1")
	if cur == nil {
		return
	}
	cur.(*store.Session).Status.Phase = "Placed" // want "the view controller.Cache.Get returned is shared with the store's log, caches and every other watcher, and frozen: this assignment writes through it"
}

func cacheWriteResult(p *sim.Proc, c *controller.Cache, mine store.Resource) {
	stored, err := c.UpdateStatus(p, mine)
	if err != nil {
		return
	}
	stored.Meta().Name = "other" // want "the view controller.Cache.UpdateStatus returned is shared"
}

func markPlaced(s *store.Session) { s.Status.Phase = "Placed" }

func readPhase(s *store.Session) string { return s.Status.Phase }

func throughHelper(ev store.Event) string {
	sess := ev.Object.(*store.Session)
	markPlaced(sess) // want "the Object of a store.Event is shared with the store's log, caches and every other watcher, and frozen, but markPlaced writes through its argument"
	return readPhase(sess)
}

func decodeInPlace(ev store.Event, d *store.Decoder) {
	ev.Object.DecodeStatus(d) // want "DecodeStatus overwrites it in place"
}

func inWatchLoop(evs []store.Event) {
	for _, ev := range evs {
		if sess, ok := ev.Object.(*store.Session); ok && sess.Status.Phase == "" {
			sess.Status.Phase = "Pending" // want "this assignment writes through it"
		}
	}
}

// --- negatives ---

func copyFirst(ev store.Event) store.Resource {
	sess := ev.Object.DeepCopy().(*store.Session)
	sess.Status.Phase = "Done"
	*sess.Meta() = store.ObjectMeta{}
	markPlaced(sess)
	return sess
}

func copyInPlace(c *controller.Cache) {
	cur := c.Get("Session", "s1")
	cur = cur.DeepCopy()
	cur.(*store.Session).Status.Attempts++
}

// Retaining a frozen object is what sharing is for.
func (a *agent) retain(ev store.Event) {
	a.last = ev.Object
	if sess, ok := ev.Object.(*store.Session); ok {
		a.published[sess.Name] = sess
	}
}

// A struct copied out of the object is the caller's own.
func localStructCopy(ev store.Event) store.SessionStatus {
	st := ev.Object.(*store.Session).Status
	st.Phase = "Done"
	st.Attempts++
	return st
}

// Building an event assigns to its field; nothing is written through.
func buildEvent(r store.Resource) store.Event {
	var ev store.Event
	ev.Object = r
	evp := &ev
	evp.Object = r
	return ev
}

// What a write returned to its caller (not through the cache) is private.
func private(mine store.Resource) {
	mine.(*store.Session).Status.Phase = "Running"
	mine.Meta().Name = "mine"
}
