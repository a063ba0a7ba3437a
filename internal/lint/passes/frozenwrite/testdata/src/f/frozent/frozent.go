// Package frozent exercises the frozenwrite analyzer: writes through the
// Object of a store.Event, through what the store's reads and writes return,
// through a write's argument once written and through the views
// controller.Cache hands out, frozen values written back, and the reads,
// retentions and copies that are fine.
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

// The headline case, planted in the fleet placement controller: the reason a
// failed attempt left is cleared on the cache's view before the bind copies
// it. The view is the store's object, so every watcher and a later replay
// see the cleared reason, though no write carried it. Neither the store's
// tests nor the chaos oracles saw it.
func placeClearsReason(c *controller.Cache) {
	sess := c.Get("Session", "s1").(*store.Session)
	sess.Status.Reason = "" // want "the view controller.Cache.Get returned is shared"
}

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

func throughGet(p *sim.Proc, st store.Interface) {
	cur, err := st.Get(p, "Session", "s1")
	if err != nil {
		return
	}
	cur.(*store.Session).Status.Phase = "Placed" // want "what the store's Get returned is shared with the store's log, caches and every other watcher, and frozen: this assignment writes through it"
}

func throughListElement(p *sim.Proc, s *store.Store) {
	rs, _, _ := s.List(p, "Session")
	for _, r := range rs {
		r.Meta().ResourceVersion = 0 // want "what the store's List returned is shared"
	}
}

// The loop of a compare-and-swap benchmark that writes back what the last
// write returned.
func rewriteResult(p *sim.Proc, s *store.Store) error {
	cur, err := s.Get(p, "Session", "s1")
	for i := 0; i < 3 && err == nil; i++ {
		cur, err = s.UpdateStatus(p, cur) // want "what the store's Get returned is shared with the store's log, caches and every other watcher, and frozen: UpdateStatus takes ownership of its argument"
	}
	return err
}

func rewriteWriteResult(p *sim.Proc, st store.Interface, mine store.Resource) {
	stored, err := st.UpdateStatus(p, mine)
	if err != nil {
		return
	}
	_ = st.UpdateStatusAsync(p, stored) // want "what the store's UpdateStatus returned is shared"
}

func scribbleCreateArg(p *sim.Proc, st store.Interface) {
	obj := &store.Session{}
	obj.Name = "s1"
	if _, err := st.Create(p, obj); err != nil {
		return
	}
	obj.Status.Phase = "Done" // want "the argument the store's Create took is shared with the store's log, caches and every other watcher, and frozen: this assignment writes through it"
}

func cacheViewWrittenBack(p *sim.Proc, c *controller.Cache) {
	cur := c.Get("Session", "s1")
	_, _ = c.UpdateStatus(p, cur) // want "the view controller.Cache.Get returned is shared with the store's log, caches and every other watcher, and frozen: UpdateStatus takes ownership"
}

// --- negatives ---

func getThenCopy(p *sim.Proc, st store.Interface) error {
	cur, err := st.Get(p, "Session", "s1")
	if err != nil {
		return err
	}
	mine := cur.DeepCopy().(*store.Session)
	mine.Status.Phase = "Placed"
	_, err = st.UpdateStatus(p, mine)
	return err
}

func rewriteCopies(p *sim.Proc, s *store.Store) error {
	cur, err := s.Get(p, "Session", "s1")
	for i := 0; i < 3 && err == nil; i++ {
		cur, err = s.UpdateStatus(p, cur.DeepCopy())
	}
	return err
}

// One write or the other takes the object, never both.
func eitherWrite(p *sim.Proc, st store.Interface, spec bool) {
	obj := &store.Session{}
	obj.Status.Phase = "Running"
	if spec {
		_, _ = st.Update(p, obj)
	} else {
		_, _ = st.UpdateStatus(p, obj)
	}
}

// Filling an object in before it is written is what creating it takes; a
// DeepCopy of it afterwards is the caller's again.
func createThenCopy(p *sim.Proc, st store.Interface) store.Resource {
	obj := &store.Session{}
	obj.Name = "s1"
	obj.Status.Phase = "Pending"
	if _, err := st.Create(p, obj); err != nil {
		return nil
	}
	mine := obj.DeepCopy().(*store.Session)
	mine.Status.Phase = "Done"
	return mine
}

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

// A resource the function is handed and has not written is its caller's to
// fill in.
func private(mine store.Resource) {
	mine.(*store.Session).Status.Phase = "Running"
	mine.Meta().Name = "mine"
}
