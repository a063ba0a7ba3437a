// Package store implements the cluster control plane's resource store: a
// versioned, watchable registry of the fleet's control state — GPU servers,
// hosted API servers, function sessions, staged models — modeled on the
// KRM-style device apiserver pattern (NVSentinel), scaled down to DGSF's
// needs.
//
// Semantics:
//
//   - Every resource carries ObjectMeta{Name, UID, ResourceVersion,
//     Generation}. ResourceVersion is a store-wide monotonic counter bumped
//     on every successful write to the object; Generation increments only
//     when the Spec section changes, so status-only churn does not retrigger
//     spec-driven reconcilers.
//   - Update, UpdateStatus and Delete are compare-and-swap on
//     ResourceVersion: a mismatch fails with ErrConflict and the caller is
//     expected to re-read and retry (optimistic concurrency).
//   - Watch delivers an ordered stream of Added/Modified/Deleted events per
//     kind. A watch from an old ResourceVersion replays from a bounded event
//     log; if the log has dropped an event of the kind newer than that
//     version the stream says so with a Gap event and then carries
//     synthesized Added events for the current state. Deletions inside the
//     gap are not reported: a consumer that keeps state per object must
//     replace it on Gap (the controller cache re-lists the kind); a stateless
//     level-triggered consumer may ignore the marker.
//   - A stored object is frozen: a write replaces it, nothing ever changes
//     it. A write takes ownership of its argument, which becomes the stored
//     object; the store hands that one object to the replay log, to every
//     watcher, to every pull and back to whoever calls Get, List or a write.
//     Nothing is copied: a caller that wants to edit DeepCopies first.
//
// The store is deterministic under internal/sim: iteration is over sorted
// keys, watch delivery follows registration order, and no wall-clock or
// global randomness is consulted.
package store

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/metrics"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

// Typed store errors.
var (
	// ErrConflict reports an Update/UpdateStatus/Delete whose
	// ResourceVersion no longer matches the stored object: someone else
	// wrote first. Callers re-read and retry.
	ErrConflict = errors.New("store: resource version conflict")
	// ErrNotFound reports an operation on a name that is not in the store.
	ErrNotFound = errors.New("store: resource not found")
	// ErrExists reports a Create for a name that is already present.
	ErrExists = errors.New("store: resource already exists")
	// ErrBadRequest reports a malformed operation: empty name, unknown
	// kind, an undecodable request, or an attempt to change immutable
	// metadata (name, UID).
	ErrBadRequest = errors.New("store: bad request")
	// ErrHalted reports an operation through a halted store handle — the
	// fault framework's way of crashing a controller mid-reconcile.
	ErrHalted = errors.New("store: handle halted")
	// errRewrite refuses a write whose argument is the stored object itself.
	errRewrite = fmt.Errorf("%w: the argument is the stored object; DeepCopy it to write", ErrBadRequest)
)

// The generated stubs carry errors as cuda.Code status values; registering
// the sentinels keeps errors.Is working on the far side of a Remote. Any
// other store error crosses as a status that matches none of them.
func init() {
	cuda.RegisterWireSentinel(9030, ErrConflict)
	cuda.RegisterWireSentinel(9031, ErrNotFound)
	cuda.RegisterWireSentinel(9032, ErrExists)
	cuda.RegisterWireSentinel(9033, ErrBadRequest)
	cuda.RegisterWireSentinel(9034, ErrHalted)
}

// Kind names a resource keyspace.
type Kind string

// The control plane's resource kinds.
const (
	KindGPUServer   Kind = "GPUServer"
	KindSession     Kind = "Session"
	KindStagedModel Kind = "StagedModel"
)

// Kinds lists every keyspace in deterministic order.
func Kinds() []Kind {
	return []Kind{KindGPUServer, KindSession, KindStagedModel}
}

// ObjectMeta is the common metadata of every stored resource.
type ObjectMeta struct {
	// Name is the immutable primary key within the kind's keyspace.
	Name string
	// UID distinguishes reincarnations of the same name. Immutable.
	UID uint64
	// ResourceVersion is the store-wide write counter value of the last
	// write to this object; writes must present the current value.
	ResourceVersion uint64
	// Generation counts Spec changes only.
	Generation uint64
	// CreatedAt is the virtual time the object was created.
	CreatedAt time.Duration
}

// Resource is one typed control-plane object. Implementations pair a Spec
// (desired state, bumps Generation) with a Status (observed state).
type Resource interface {
	Kind() Kind
	Meta() *ObjectMeta
	DeepCopy() Resource
	EncodeSpec(e *wire.Encoder)
	DecodeSpec(d *wire.Decoder)
	EncodeStatus(e *wire.Encoder)
	DecodeStatus(d *wire.Decoder)
}

// EventType classifies a watch notification.
type EventType byte

// Watch event types; the values travel on the wire.
const (
	Added    EventType = 1
	Modified EventType = 2
	Deleted  EventType = 3
	// Gap marks a break in continuity: the replay log no longer reaches the
	// consumer's position, so events were lost — deletions among them. It
	// carries no Object; RV is the store version of the synthesized relist
	// (Added events for current state) that follows it on the stream.
	Gap EventType = 4
)

// String returns the event type name.
func (t EventType) String() string {
	switch t {
	case Added:
		return "ADDED"
	case Modified:
		return "MODIFIED"
	case Deleted:
		return "DELETED"
	case Gap:
		return "GAP"
	}
	return "?"
}

// Event is one watch notification. Object is the state after the change; for
// Deleted it is the last stored state, for Gap nil. It is the store's own
// frozen object, shared with the replay log and every other consumer of the
// event: read it, keep it, but DeepCopy before changing a field — the same
// contract as controller.Cache.Get.
type Event struct {
	Type   EventType
	RV     uint64
	Object Resource
}

// Interface is the store API shared by the in-process Store and the remote
// handle (remote.go), so controllers are indifferent to where the store
// lives. A write takes ownership of its argument (on an error it stays the
// caller's, untouched). What Get, List and the writes return is frozen, like
// a Watch's event objects (see Event): read it, keep it, DeepCopy to edit.
type Interface interface {
	Get(p *sim.Proc, kind Kind, name string) (Resource, error)
	List(p *sim.Proc, kind Kind) ([]Resource, uint64, error)
	Create(p *sim.Proc, r Resource) (Resource, error)
	Update(p *sim.Proc, r Resource) (Resource, error)
	UpdateStatus(p *sim.Proc, r Resource) (Resource, error)
	// UpdateStatusAsync is the fire-and-forget status lane: the write is
	// applied (or submitted) without waiting for a result, and conflicts
	// are dropped rather than reported — periodic resync heals the gap.
	UpdateStatusAsync(p *sim.Proc, r Resource) error
	Delete(p *sim.Proc, kind Kind, name string, rv uint64) error
	Watch(p *sim.Proc, kind Kind, fromRV uint64) (*Watch, error)
}

// logWindow bounds the replayable event log (a power of two: the log is a
// ring). Older events are dropped; a watch from before a dropped event of its
// kind falls back to a synthesized relist.
const logWindow = 4096

// keyspace is one kind's share of the store.
type keyspace struct {
	objs map[string]Resource // by name; each frozen from the write that stored it
	// watchers are the kind's registered watches, in registration order.
	watchers []*Watch
	// pulls wakes the PullEvents long-polls blocked on this kind, which
	// therefore sleep through every other kind's writes.
	pulls *sim.Cond
	// truncatedAtRV is the RV of the newest event of this kind the replay log
	// has dropped (0: none). Per kind, because a consumer loses continuity
	// only to dropped events it would have been sent.
	truncatedAtRV uint64
}

// logEntry is one replay-log slot: the event as every watcher got it, and
// the keyspace it belongs to.
type logEntry struct {
	ev Event
	ks *keyspace
}

// Store is the in-process resource store.
type Store struct {
	e     *sim.Engine
	rv    uint64
	uid   uint64
	kinds map[Kind]*keyspace

	// log is the bounded replay log, a ring in ascending RV: the event with
	// logical index i (the i-th ever logged) is in slot i%logWindow until
	// event i+logWindow overwrites it. logged counts the events ever logged.
	log    [logWindow]logEntry
	logged uint64

	writes     *metrics.Counter
	deletes    *metrics.Counter
	conflicts  *metrics.Counter
	watchSends *metrics.Counter
	objects    *metrics.Gauge
	watchGauge *metrics.Gauge

	// writeFault, when set, is consulted before applying any Update,
	// UpdateStatus or Delete; a non-nil return rejects the write with that
	// error and nothing is applied. The fault framework injects conflict
	// storms here — every writer's CAS loop gets exercised against spurious
	// rejections, exactly as if a competing writer kept winning the race.
	writeFault func(p *sim.Proc) error
}

// SetWriteFault installs (or clears, with nil) the write-fault hook.
func (s *Store) SetWriteFault(fn func(p *sim.Proc) error) { s.writeFault = fn }

// New returns an empty store. The registry may be nil; metrics are then
// discarded into unregistered instruments.
func New(e *sim.Engine, reg *metrics.Registry) *Store {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	kinds := make(map[Kind]*keyspace, len(Kinds()))
	for _, k := range Kinds() {
		kinds[k] = &keyspace{objs: make(map[string]Resource), pulls: sim.NewCond(e)}
	}
	return &Store{
		e:          e,
		kinds:      kinds,
		writes:     reg.Counter("store_writes_total"),
		deletes:    reg.Counter("store_deletes_total"),
		conflicts:  reg.Counter("store_conflicts_total"),
		watchSends: reg.Counter("store_watch_events_total"),
		objects:    reg.Gauge("store_objects"),
		watchGauge: reg.Gauge("store_watchers"),
	}
}

// keyspace returns the kind's keyspace or nil for an unknown kind.
func (s *Store) keyspace(kind Kind) *keyspace { return s.kinds[kind] }

// Get returns the named object as stored.
func (s *Store) Get(p *sim.Proc, kind Kind, name string) (Resource, error) {
	ks := s.keyspace(kind)
	if ks == nil {
		return nil, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, kind)
	}
	obj, ok := ks.objs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, kind, name)
	}
	return obj, nil
}

// sortedNames returns the keyspace's object names in name order.
func (ks *keyspace) sortedNames() []string {
	names := make([]string, 0, len(ks.objs))
	for name := range ks.objs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// List returns every object of the kind as stored, in name order, plus the
// store's current resource version (the point to watch from).
func (s *Store) List(p *sim.Proc, kind Kind) ([]Resource, uint64, error) {
	ks := s.keyspace(kind)
	if ks == nil {
		return nil, 0, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, kind)
	}
	names := ks.sortedNames()
	out := make([]Resource, 0, len(names))
	for _, name := range names {
		out = append(out, ks.objs[name])
	}
	return out, s.rv, nil
}

// Create inserts r, which becomes the stored object with a fresh UID,
// Generation 1 and the next resource version, and returns it.
func (s *Store) Create(p *sim.Proc, r Resource) (Resource, error) {
	ks := s.keyspace(r.Kind())
	if ks == nil {
		return nil, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, r.Kind())
	}
	name := r.Meta().Name
	if name == "" {
		return nil, fmt.Errorf("%w: empty name", ErrBadRequest)
	}
	if cur, ok := ks.objs[name]; cur == r {
		return nil, errRewrite
	} else if ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrExists, r.Kind(), name)
	}
	m := r.Meta()
	s.uid++
	s.rv++
	m.UID = s.uid
	m.ResourceVersion = s.rv
	m.Generation = 1
	m.CreatedAt = p.Now()
	ks.objs[name] = r
	s.objects.Add(1)
	s.writes.Inc()
	s.notify(ks, Event{Type: Added, RV: s.rv, Object: r})
	return r, nil
}

// Update replaces an object's spec and status, requiring the presented
// ResourceVersion to match. Generation increments only if the Spec changed.
// Name and UID are immutable.
func (s *Store) Update(p *sim.Proc, r Resource) (Resource, error) {
	return s.update(p, r, true)
}

// UpdateStatus replaces only the Status section, requiring the presented
// ResourceVersion to match. Generation never changes.
func (s *Store) UpdateStatus(p *sim.Proc, r Resource) (Resource, error) {
	return s.update(p, r, false)
}

// UpdateStatusAsync applies a status write without reporting conflicts: a
// stale ResourceVersion drops the write (counted in store_conflicts_total).
// This is the local mirror of the remote one-way status lane.
func (s *Store) UpdateStatusAsync(p *sim.Proc, r Resource) error {
	_, err := s.update(p, r, false)
	if err != nil && !IsConflict(err) {
		return err
	}
	return nil
}

// update applies one compare-and-swap write: r, checked and given the
// server-owned metadata, becomes the stored object and is returned.
func (s *Store) update(p *sim.Proc, r Resource, withSpec bool) (Resource, error) {
	ks := s.keyspace(r.Kind())
	if ks == nil {
		return nil, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, r.Kind())
	}
	name := r.Meta().Name
	cur, ok := ks.objs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, r.Kind(), name)
	}
	if cur == r {
		return nil, errRewrite
	}
	cm := cur.Meta()
	rm := r.Meta()
	if rm.ResourceVersion != cm.ResourceVersion {
		s.conflicts.Inc()
		return nil, fmt.Errorf("%w: %s/%s rv %d != stored %d",
			ErrConflict, r.Kind(), name, rm.ResourceVersion, cm.ResourceVersion)
	}
	if s.writeFault != nil {
		if err := s.writeFault(p); err != nil {
			if IsConflict(err) {
				s.conflicts.Inc()
			}
			return nil, err
		}
	}
	if rm.UID != 0 && rm.UID != cm.UID {
		return nil, fmt.Errorf("%w: %s/%s uid is immutable", ErrBadRequest, r.Kind(), name)
	}
	m := r.Meta()
	*m = *cm // metadata is server-owned: keep UID, CreatedAt, Generation
	if withSpec {
		if !specEqual(cur, r) {
			m.Generation = cm.Generation + 1
		}
	} else {
		// Status-only write: the spec presented by the caller may be stale;
		// keep the stored one.
		copySpec(cur, r)
	}
	s.rv++
	m.ResourceVersion = s.rv
	ks.objs[name] = r
	s.writes.Inc()
	s.notify(ks, Event{Type: Modified, RV: s.rv, Object: r})
	return r, nil
}

// Delete removes an object. rv 0 skips the version check (unconditional
// delete); any other value must match the stored version.
func (s *Store) Delete(p *sim.Proc, kind Kind, name string, rv uint64) error {
	ks := s.keyspace(kind)
	if ks == nil {
		return fmt.Errorf("%w: unknown kind %q", ErrBadRequest, kind)
	}
	cur, ok := ks.objs[name]
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, kind, name)
	}
	if rv != 0 && rv != cur.Meta().ResourceVersion {
		s.conflicts.Inc()
		return fmt.Errorf("%w: %s/%s rv %d != stored %d",
			ErrConflict, kind, name, rv, cur.Meta().ResourceVersion)
	}
	if s.writeFault != nil {
		if err := s.writeFault(p); err != nil {
			if IsConflict(err) {
				s.conflicts.Inc()
			}
			return err
		}
	}
	delete(ks.objs, name)
	s.rv++
	s.objects.Add(-1)
	s.deletes.Inc()
	s.writes.Inc()
	s.notify(ks, Event{Type: Deleted, RV: s.rv, Object: cur})
	return nil
}

// RV returns the store's current resource version.
func (s *Store) RV() uint64 { return s.rv }

// specEqual reports whether two resources of one kind have equal Spec
// sections. Every Spec is a flat comparable struct.
func specEqual(a, b Resource) bool {
	switch a := a.(type) {
	case *GPUServer:
		return a.Spec == b.(*GPUServer).Spec
	case *Session:
		return a.Spec == b.(*Session).Spec
	case *StagedModel:
		return a.Spec == b.(*StagedModel).Spec
	}
	panic(fmt.Sprintf("store: specEqual: kind %q has no typed Spec comparison", a.Kind()))
}

// copySpec overwrites dst's spec with src's, a resource of the same kind.
func copySpec(src, dst Resource) {
	switch dst := dst.(type) {
	case *GPUServer:
		dst.Spec = src.(*GPUServer).Spec
	case *Session:
		dst.Spec = src.(*Session).Spec
	case *StagedModel:
		dst.Spec = src.(*StagedModel).Spec
	default:
		panic(fmt.Sprintf("store: copySpec: kind %q has no typed Spec copy", dst.Kind()))
	}
}

// logAt returns the replay log's slot for logical index i.
func (s *Store) logAt(i uint64) *logEntry { return &s.log[i&(logWindow-1)] }

// logOldest returns the logical index of the oldest event the log still
// holds; the newest is s.logged-1.
func (s *Store) logOldest() uint64 {
	if s.logged > logWindow {
		return s.logged - logWindow
	}
	return 0
}

// notify appends the event to the replay log, fans it out to the kind's
// watchers in registration order and wakes the kind's blocked pulls. All of
// them get ev as it is: its Object is the frozen stored object.
func (s *Store) notify(ks *keyspace, ev Event) {
	slot := s.logAt(s.logged)
	if s.logged >= logWindow {
		// The ring is full: the oldest event makes room, and consumers of its
		// kind positioned before it can no longer be replayed to.
		slot.ks.truncatedAtRV = slot.ev.RV
	}
	*slot = logEntry{ev: ev, ks: ks}
	s.logged++
	for _, w := range ks.watchers {
		s.watchSends.Inc()
		w.Events.Send(ev)
	}
	ks.pulls.Broadcast()
}

// Watch is one registered event stream. Events is closed by Stop.
type Watch struct {
	// Events delivers the stream in RV order.
	Events  *sim.Queue[Event]
	stop    func()
	stopped bool
}

// Stop unregisters the watch and closes its queue.
func (w *Watch) Stop() {
	if !w.stopped {
		w.stopped = true
		w.stop()
	}
}

// Watch registers an event stream for one kind. Events with RV > fromRV are
// replayed first (from the bounded log, or as a Gap marker plus synthesized
// Added events for the current state if the log has dropped an event of the
// kind after fromRV), then live events follow in write order. fromRV 0 with
// no prior writes yields a stream of everything that ever happens to the
// kind.
func (s *Store) Watch(p *sim.Proc, kind Kind, fromRV uint64) (*Watch, error) {
	ks := s.keyspace(kind)
	if ks == nil {
		return nil, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, kind)
	}
	w := &Watch{Events: sim.NewQueue[Event](s.e)}
	w.stop = func() {
		if i := slices.Index(ks.watchers, w); i >= 0 {
			ks.watchers = slices.Delete(ks.watchers, i, i+1)
		}
		s.watchGauge.Add(-1)
		w.Events.Close()
	}
	var backlog []Event
	if fromRV < ks.truncatedAtRV {
		backlog = s.relist(ks)
	} else {
		backlog, _ = s.replay(ks, fromRV, 0, nil)
	}
	for _, ev := range backlog {
		s.watchSends.Inc()
		w.Events.Send(ev)
	}
	ks.watchers = append(ks.watchers, w)
	s.watchGauge.Add(1)
	return w, nil
}

// replay returns the kind's logged events after fromRV as they were logged,
// at most max of them when max > 0, in out, an empty slice whose storage the
// caller lends; more reports that the log holds further matching events
// beyond those returned. The log is ascending in RV, so the start is found
// by binary search over its logical indexes. Only valid while
// fromRV >= ks.truncatedAtRV.
func (s *Store) replay(ks *keyspace, fromRV uint64, max int, out []Event) (_ []Event, more bool) {
	oldest := s.logOldest()
	i := oldest + uint64(sort.Search(int(s.logged-oldest), func(i int) bool {
		return s.logAt(oldest+uint64(i)).ev.RV > fromRV
	}))
	// Count first: the range may be mostly other kinds' events, and out
	// grows at most once, to the size it ends up with.
	n := 0
	for j := i; j < s.logged; j++ {
		if s.logAt(j).ks != ks {
			continue
		}
		if max > 0 && n == max {
			more = true
			break
		}
		n++
	}
	if n == 0 {
		return out, false
	}
	if cap(out) < n {
		out = make([]Event, 0, n)
	}
	for ; len(out) < n; i++ {
		if e := s.logAt(i); e.ks == ks {
			out = append(out, e.ev)
		}
	}
	return out, more
}

// relist is what a consumer whose position the log no longer reaches gets
// instead of a replay: a Gap marker, then the full current state as Added
// events in name order (it may re-see objects it already knows).
func (s *Store) relist(ks *keyspace) []Event {
	names := ks.sortedNames()
	out := make([]Event, 0, len(names)+1)
	out = append(out, Event{Type: Gap, RV: s.rv})
	for _, name := range names {
		obj := ks.objs[name]
		out = append(out, Event{Type: Added, RV: obj.Meta().ResourceVersion, Object: obj})
	}
	return out
}

// PullEvents is the long-poll form of Watch used by the remote protocol:
// it returns up to max events after fromRV, blocking up to wait for the
// first one, plus the store's current RV as the next poll position. The
// events are shared like a Watch's; the slice is the caller's.
func (s *Store) PullEvents(p *sim.Proc, kind Kind, fromRV uint64, max int, wait time.Duration) ([]Event, uint64, error) {
	return s.pullEvents(p, kind, fromRV, max, wait, nil)
}

// pullEvents is PullEvents replaying into buf, an empty slice whose storage
// the caller lends; it comes back empty when no event does. A relist still
// goes out in a slice of its own.
func (s *Store) pullEvents(p *sim.Proc, kind Kind, fromRV uint64, max int, wait time.Duration, buf []Event) ([]Event, uint64, error) {
	ks := s.keyspace(kind)
	if ks == nil {
		return nil, 0, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, kind)
	}
	if max <= 0 {
		max = 256
	}
	deadline := p.Now() + wait
	for {
		if fromRV < ks.truncatedAtRV {
			// A relist goes out whole — a trimmed one could never deliver
			// its tail, the consumer's next position being past all of it.
			return s.relist(ks), s.rv, nil
		}
		evs, more := s.replay(ks, fromRV, max, buf)
		if more {
			// A trimmed replay resumes cleanly from the last delivered RV.
			return evs, evs[len(evs)-1].RV, nil
		}
		if len(evs) > 0 {
			return evs, s.rv, nil
		}
		// Nothing of this kind up to s.rv, and only a write of this kind ends
		// the wait: while blocked the pull is sent everything it could lose,
		// so the log rolling over its position costs it nothing.
		fromRV = s.rv
		remaining := deadline - p.Now()
		if wait <= 0 || remaining <= 0 {
			return buf, s.rv, nil
		}
		if ks.pulls.WaitTimeout(p, remaining) {
			return buf, s.rv, nil
		}
	}
}

// ModifyStatus is the read-modify-write of one object's status: Get it, let
// edit change a DeepCopy of it, UpdateStatus that, and start over from the
// Get when another writer got in first. edit returns false to decline the
// write. The first error that is not a conflict is returned. T is kind's
// resource type.
func ModifyStatus[T Resource](p *sim.Proc, st Interface, kind Kind, name string, edit func(T) bool) error {
	for {
		cur, err := st.Get(p, kind, name)
		if err != nil {
			return err
		}
		mine := cur.DeepCopy()
		if !edit(mine.(T)) {
			return nil
		}
		if _, err := st.UpdateStatus(p, mine); !IsConflict(err) {
			return err
		}
	}
}

// IsConflict reports whether err is a resource-version conflict.
func IsConflict(err error) bool { return errors.Is(err, ErrConflict) }

// IsNotFound reports whether err is a missing-resource error.
func IsNotFound(err error) bool { return errors.Is(err, ErrNotFound) }

// IsExists reports whether err is a duplicate-create error.
func IsExists(err error) bool { return errors.Is(err, ErrExists) }

// IsHalted reports whether err came through a halted (crashed) handle.
func IsHalted(err error) bool { return errors.Is(err, ErrHalted) }
