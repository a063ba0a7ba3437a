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
//     log; if the log no longer reaches back that far the stream says so with
//     a Gap event and then carries synthesized Added events for the current
//     state. Deletions inside the gap are not reported: a consumer that keeps
//     state per object must replace it on Gap (the controller cache re-lists
//     the kind); a stateless level-triggered consumer may ignore the marker.
//
// The store is deterministic under internal/sim: iteration is over sorted
// keys, watch delivery follows registration order, and no wall-clock or
// global randomness is consulted.
package store

import (
	"bytes"
	"errors"
	"fmt"
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
	KindGPUServer    Kind = "GPUServer"
	KindAPIServer    Kind = "APIServer"
	KindSession      Kind = "Session"
	KindStagedModel  Kind = "StagedModel"
	KindTensorHandle Kind = "TensorHandle"
)

// Kinds lists every keyspace in deterministic order.
func Kinds() []Kind {
	return []Kind{KindAPIServer, KindGPUServer, KindSession, KindStagedModel, KindTensorHandle}
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

// Event is one watch notification. Object is a private copy of the state
// after the change; for Deleted it is the last stored state, for Gap nil.
type Event struct {
	Type   EventType
	RV     uint64
	Object Resource
}

// Interface is the store API shared by the in-process Store and the remote
// handle (remote.go), so controllers are indifferent to where the store
// lives. All writes copy their argument; all reads return private copies.
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

// logWindow bounds the replayable event log. Older events are dropped; a
// watch from before the window falls back to a synthesized relist.
const logWindow = 4096

// Store is the in-process resource store.
type Store struct {
	e     *sim.Engine
	rv    uint64
	uid   uint64
	kinds map[Kind]map[string]Resource

	log            []Event // bounded replay log, ascending RV
	truncatedAtRV  uint64  // RV of the newest dropped log event (0: none)
	watchers       []*Watch
	nextWatch      int
	writeBroadcast *sim.Cond // wakes blocked PullEvents long-polls

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
	kinds := make(map[Kind]map[string]Resource, len(Kinds()))
	for _, k := range Kinds() {
		kinds[k] = make(map[string]Resource)
	}
	return &Store{
		e:              e,
		kinds:          kinds,
		writeBroadcast: sim.NewCond(e),
		writes:         reg.Counter("store_writes_total"),
		deletes:        reg.Counter("store_deletes_total"),
		conflicts:      reg.Counter("store_conflicts_total"),
		watchSends:     reg.Counter("store_watch_events_total"),
		objects:        reg.Gauge("store_objects"),
		watchGauge:     reg.Gauge("store_watchers"),
	}
}

// keyspace returns the kind's object map or nil for an unknown kind.
func (s *Store) keyspace(kind Kind) map[string]Resource { return s.kinds[kind] }

// Get returns a private copy of the named object.
func (s *Store) Get(p *sim.Proc, kind Kind, name string) (Resource, error) {
	ks := s.keyspace(kind)
	if ks == nil {
		return nil, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, kind)
	}
	obj, ok := ks[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, kind, name)
	}
	return obj.DeepCopy(), nil
}

// List returns private copies of every object of the kind in name order,
// plus the store's current resource version (the point to watch from).
func (s *Store) List(p *sim.Proc, kind Kind) ([]Resource, uint64, error) {
	ks := s.keyspace(kind)
	if ks == nil {
		return nil, 0, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, kind)
	}
	names := make([]string, 0, len(ks))
	for name := range ks {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Resource, 0, len(names))
	for _, name := range names {
		out = append(out, ks[name].DeepCopy())
	}
	return out, s.rv, nil
}

// Create inserts a new object. The stored copy gets a fresh UID,
// Generation 1 and the next resource version; the returned copy reflects
// them.
func (s *Store) Create(p *sim.Proc, r Resource) (Resource, error) {
	ks := s.keyspace(r.Kind())
	if ks == nil {
		return nil, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, r.Kind())
	}
	name := r.Meta().Name
	if name == "" {
		return nil, fmt.Errorf("%w: empty name", ErrBadRequest)
	}
	if _, ok := ks[name]; ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrExists, r.Kind(), name)
	}
	obj := r.DeepCopy()
	m := obj.Meta()
	s.uid++
	s.rv++
	m.UID = s.uid
	m.ResourceVersion = s.rv
	m.Generation = 1
	m.CreatedAt = p.Now()
	ks[name] = obj
	s.objects.Add(1)
	s.writes.Inc()
	s.notify(Event{Type: Added, RV: s.rv, Object: obj}, obj.Kind())
	return obj.DeepCopy(), nil
}

// Update replaces an object's spec and status, requiring the presented
// ResourceVersion to match. Generation increments only if the encoded Spec
// changed. Name and UID are immutable.
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

func (s *Store) update(p *sim.Proc, r Resource, withSpec bool) (Resource, error) {
	ks := s.keyspace(r.Kind())
	if ks == nil {
		return nil, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, r.Kind())
	}
	name := r.Meta().Name
	cur, ok := ks[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, r.Kind(), name)
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
	obj := r.DeepCopy()
	m := obj.Meta()
	*m = *cm // metadata is server-owned: keep UID, CreatedAt, Generation
	if withSpec {
		if !specEqual(cur, obj) {
			m.Generation = cm.Generation + 1
		}
	} else {
		// Status-only write: the spec presented by the caller may be stale;
		// keep the stored one.
		copySpec(cur, obj)
	}
	s.rv++
	m.ResourceVersion = s.rv
	ks[name] = obj
	s.writes.Inc()
	s.notify(Event{Type: Modified, RV: s.rv, Object: obj}, obj.Kind())
	return obj.DeepCopy(), nil
}

// Delete removes an object. rv 0 skips the version check (unconditional
// delete); any other value must match the stored version.
func (s *Store) Delete(p *sim.Proc, kind Kind, name string, rv uint64) error {
	ks := s.keyspace(kind)
	if ks == nil {
		return fmt.Errorf("%w: unknown kind %q", ErrBadRequest, kind)
	}
	cur, ok := ks[name]
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
	delete(ks, name)
	s.rv++
	s.objects.Add(-1)
	s.deletes.Inc()
	s.writes.Inc()
	s.notify(Event{Type: Deleted, RV: s.rv, Object: cur}, kind)
	return nil
}

// RV returns the store's current resource version.
func (s *Store) RV() uint64 { return s.rv }

// specEqual reports whether two resources encode identical Spec sections.
func specEqual(a, b Resource) bool {
	var ea, eb wire.Encoder
	a.EncodeSpec(&ea)
	b.EncodeSpec(&eb)
	return bytes.Equal(ea.Bytes(), eb.Bytes())
}

// copySpec overwrites dst's spec with src's, via the wire encoding (the
// only spec accessor the Resource interface exposes).
func copySpec(src, dst Resource) {
	var e wire.Encoder
	src.EncodeSpec(&e)
	d := wire.NewDecoder(e.Bytes())
	dst.DecodeSpec(d)
}

// notify appends the event to the replay log and fans it out to matching
// watchers in registration order.
func (s *Store) notify(ev Event, kind Kind) {
	s.log = append(s.log, ev)
	if len(s.log) > logWindow {
		drop := len(s.log) - logWindow
		s.truncatedAtRV = s.log[drop-1].RV
		s.log = append(s.log[:0], s.log[drop:]...)
	}
	for _, w := range s.watchers {
		if w.kind != kind || w.stopped {
			continue
		}
		s.watchSends.Inc()
		w.Events.Send(Event{Type: ev.Type, RV: ev.RV, Object: ev.Object.DeepCopy()})
	}
	s.writeBroadcast.Broadcast()
}

// Watch is one registered event stream. Events is closed by Stop.
type Watch struct {
	// Events delivers the stream in RV order.
	Events  *sim.Queue[Event]
	stop    func()
	kind    Kind
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
// Added events for the current state if the log has been truncated past
// fromRV), then live events follow in write order. fromRV 0 with no prior
// writes yields a stream of everything that ever happens to the kind.
func (s *Store) Watch(p *sim.Proc, kind Kind, fromRV uint64) (*Watch, error) {
	if s.keyspace(kind) == nil {
		return nil, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, kind)
	}
	w := &Watch{Events: sim.NewQueue[Event](s.e), kind: kind}
	w.stop = func() {
		for i, x := range s.watchers {
			if x == w {
				s.watchers = append(s.watchers[:i], s.watchers[i+1:]...)
				break
			}
		}
		s.watchGauge.Add(-1)
		w.Events.Close()
	}
	var backlog []Event
	if fromRV < s.truncatedAtRV {
		backlog = s.relist(kind)
	} else {
		backlog, _ = s.replay(kind, fromRV, 0)
	}
	for _, ev := range backlog {
		s.watchSends.Inc()
		w.Events.Send(ev)
	}
	s.watchers = append(s.watchers, w)
	s.watchGauge.Add(1)
	return w, nil
}

// replay returns private copies of the kind's logged events after fromRV,
// at most max of them when max > 0; more reports that the log holds further
// matching events beyond those returned. The log is ascending in RV, so the
// start is found by binary search. Only valid while fromRV >= truncatedAtRV.
func (s *Store) replay(kind Kind, fromRV uint64, max int) (out []Event, more bool) {
	i := sort.Search(len(s.log), func(i int) bool { return s.log[i].RV > fromRV })
	for ; i < len(s.log); i++ {
		ev := s.log[i]
		if ev.Object.Kind() != kind {
			continue
		}
		if max > 0 && len(out) == max {
			return out, true
		}
		out = append(out, Event{Type: ev.Type, RV: ev.RV, Object: ev.Object.DeepCopy()})
	}
	return out, false
}

// relist is what a consumer whose position the log no longer reaches gets
// instead of a replay: a Gap marker, then the full current state as Added
// events in name order (it may re-see objects it already knows).
func (s *Store) relist(kind Kind) []Event {
	ks := s.keyspace(kind)
	names := make([]string, 0, len(ks))
	for name := range ks {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Event, 0, len(names)+1)
	out = append(out, Event{Type: Gap, RV: s.rv})
	for _, name := range names {
		obj := ks[name]
		out = append(out, Event{Type: Added, RV: obj.Meta().ResourceVersion, Object: obj.DeepCopy()})
	}
	return out
}

// PullEvents is the long-poll form of Watch used by the remote protocol:
// it returns up to max events after fromRV, blocking up to wait for the
// first one, plus the store's current RV as the next poll position.
func (s *Store) PullEvents(p *sim.Proc, kind Kind, fromRV uint64, max int, wait time.Duration) ([]Event, uint64, error) {
	if s.keyspace(kind) == nil {
		return nil, 0, fmt.Errorf("%w: unknown kind %q", ErrBadRequest, kind)
	}
	if max <= 0 {
		max = 256
	}
	deadline := p.Now() + wait
	for {
		if fromRV < s.truncatedAtRV {
			// A relist goes out whole — a trimmed one could never deliver
			// its tail, the consumer's next position being past all of it.
			return s.relist(kind), s.rv, nil
		}
		evs, more := s.replay(kind, fromRV, max)
		if more {
			// A trimmed replay resumes cleanly from the last delivered RV.
			return evs, evs[len(evs)-1].RV, nil
		}
		if len(evs) > 0 {
			return evs, s.rv, nil
		}
		// Nothing of this kind up to s.rv: the next wake-up scans only what
		// was logged since.
		fromRV = s.rv
		remaining := deadline - p.Now()
		if wait <= 0 || remaining <= 0 {
			return nil, s.rv, nil
		}
		if s.writeBroadcast.WaitTimeout(p, remaining) {
			return nil, s.rv, nil
		}
	}
}

// ModifyStatus is the read-modify-write of one object's status: Get it, let
// edit change the private copy Get returned, UpdateStatus that, and start
// over from the Get when another writer got in first. edit returns false to
// decline the write. The first error that is not a conflict is returned. T
// is kind's resource type.
func ModifyStatus[T Resource](p *sim.Proc, st Interface, kind Kind, name string, edit func(T) bool) error {
	for {
		cur, err := st.Get(p, kind, name)
		if err != nil {
			return err
		}
		if !edit(cur.(T)) {
			return nil
		}
		if _, err := st.UpdateStatus(p, cur); !IsConflict(err) {
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
