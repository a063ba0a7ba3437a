package guest

import (
	"errors"
	"fmt"
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/sim"
)

// Session recovery. A recoverable guest library survives the loss of its API
// server: it virtualizes every server-issued handle, keeps an idempotent
// replay journal of the calls that established session state, and on a
// transport fault redials (through a backend-supplied policy), replays the
// journal against the fresh session, re-sends the pipelined submissions that
// were never covered by a fence, and retries the interrupted call.
//
// What is NOT replayed, by design: kernel launches, memsets and
// device-to-device copies. Their effects are intermediate device state that
// DGSF functions recompute from replayed inputs — functions are assumed
// idempotent within a phase, the same assumption serverless platforms make
// when they re-execute a function after a worker loss.

// ErrSessionLost is returned (wrapped) when recovery exhausted its redial
// budget without re-establishing a session.
var ErrSessionLost = errors.New("guest: session lost, recovery exhausted")

// RedialFunc produces a fresh transport to a healthy API server. It is
// called with the guest's process so backoff and lease re-acquisition run on
// simulated time. Returning an error counts against the attempt budget.
type RedialFunc func(p *sim.Proc) (remoting.Caller, error)

// RecoveryConfig tunes the crash-recovery behavior of a recoverable guest.
type RecoveryConfig struct {
	// Redial re-acquires a session endpoint after a transport fault.
	Redial RedialFunc
	// MaxAttempts bounds redials per recovery episode (default 5).
	MaxAttempts int
	// BackoffBase is the first retry delay; it doubles per attempt up to
	// BackoffCap, with +/-50% deterministic jitter from the proc's RNG.
	BackoffBase time.Duration
	// BackoffCap caps the exponential backoff (default 100ms).
	BackoffCap time.Duration
	// CallDeadline bounds every round trip, on every lane that has one; a
	// reply that does not arrive in time is treated as a connection fault.
	// Zero disables per-call deadlines (faults are then detected only on
	// closed transports).
	CallDeadline time.Duration
	// FenceLag bounds how stale the pipelined lane may run: if the oldest
	// unfenced submission is older than FenceLag when the next one is
	// issued, a fence is forced first so latched errors (and dead
	// connections) surface promptly. Zero disables the staleness bound.
	FenceLag time.Duration
}

// maxCallRecoveries bounds how many distinct recovery episodes a single
// interposed call may trigger before giving up.
const maxCallRecoveries = 3

// NewRecoverable returns a guest library that recovers from API server
// failures according to rc. Handle virtualization, journaling and per-call
// deadlines are active only on libraries built through this constructor.
func NewRecoverable(t remoting.Caller, opt Opt, rc RecoveryConfig) *Lib {
	l := New(t, opt)
	if rc.MaxAttempts <= 0 {
		rc.MaxAttempts = 5
	}
	if rc.BackoffBase <= 0 {
		rc.BackoffBase = time.Millisecond
	}
	if rc.BackoffCap <= 0 {
		rc.BackoffCap = 100 * time.Millisecond
	}
	l.rec = &rc
	l.virt = make(map[uint64]uint64)
	l.extents = make(map[cuda.DevPtr]int64)
	l.journalKeys = make(map[jkey]*journalEntry)
	l.adoptTransport(t)
	return l
}

// --- the virtual-handle table ---

// Virtual handle namespaces. A recoverable guest never exposes server-issued
// handles to the application: recovered sessions mint different ones (and a
// different server has a different VA allocator), so the guest hands out
// stable virtual IDs and translates at encode time. The namespaces are
// disjoint, which is what lets one table hold every kind.
const (
	virtPtrBase    = 0x7e00_0000_0000 // device pointers, bump-allocated
	virtFnBase     = 0x5e00_0000_0000 // kernel function pointers
	virtHostBase   = 0x6b00_0000_0000 // host (pinned) allocations
	virtStreamBase = 0x6600_0000      // streams
	virtEventBase  = 0x6700_0000      // events
	virtDnnBase    = 0x6800_0000      // cuDNN handles
	virtBlasBase   = 0x6900_0000      // cuBLAS handles
	virtDescBase   = 0x6a00_0000      // cuDNN descriptors (remoted mode)
)

func (l *Lib) newVirt() uint64 {
	l.nextVirt++
	return l.nextVirt
}

// newVirtPtr mints a stable guest-virtual device pointer for an allocation
// of the given size. 4 KiB alignment keeps interior-pointer arithmetic
// exact across ranges.
func (l *Lib) newVirtPtr(size int64) cuda.DevPtr {
	v := cuda.DevPtr(virtPtrBase + l.nextVA)
	l.nextVA += (size + 4095) &^ 4095
	if size == 0 {
		l.nextVA += 4096
	}
	return v
}

// virtualize enters a server-issued handle into the table under the
// guest-virtual ID v and journals how to get another: on replay remake's
// result takes over the mapping. It returns v, which is what the application
// sees from then on.
func virtualize[H ~uint64](l *Lib, v, issued H, remake func(p *sim.Proc) (H, error)) H {
	l.virt[uint64(v)] = uint64(issued)
	l.journalPut(jkey{kind: jHandle, id: uint64(v)}, func(p *sim.Proc) error {
		h, err := remake(p)
		if err == nil {
			l.virt[uint64(v)] = uint64(h)
		}
		return err
	})
	return v
}

// create runs a call that takes no argument and returns a fresh server-side
// handle — streams, events, library handles, remoted descriptors — and
// virtualizes the handle in the namespace at base. mk is a method expression:
// it is the call and, journaled, the way to repeat it.
func create[H ~uint64](l *Lib, p *sim.Proc, base uint64, mk func(*gen.Client, *sim.Proc) (H, error)) (H, error) {
	h, err := call(l, p, func(p *sim.Proc) (H, error) { return mk(l.cl, p) })
	if err == nil && l.rec != nil {
		h = virtualize(l, H(base+l.newVirt()), h, func(p *sim.Proc) (H, error) { return mk(l.cl, p) })
	}
	return h, err
}

// attached is what the attach family — ModelAttach, ModelBroadcast,
// MemImport, PeerCopy — returns: a device allocation the server made for the
// session out of state held elsewhere, plus one call-specific datum (cache
// tier, broadcast source).
type attached struct {
	ptr  cuda.DevPtr
	size int64
	aux  int
}

// attach runs one call of the attach family and tracks its allocation like a
// Malloc's. The state it attached to rarely survives a failover — the cache
// is another server's, the export is consumed — so on replay anything but
// the same-sized allocation degrades to a plain Malloc of that size, whose
// contents the journaled uploads that follow restore; the application's
// pointer stays valid either way.
func (l *Lib) attach(p *sim.Proc, fn func(p *sim.Proc) (attached, error)) (attached, error) {
	a, err := call(l, p, fn)
	if err != nil || a.ptr == 0 {
		return a, err
	}
	if l.rec != nil {
		size := a.size
		a.ptr = virtualize(l, l.newVirtPtr(size), a.ptr, func(p *sim.Proc) (cuda.DevPtr, error) {
			r, err := fn(p)
			if err == nil && r.ptr != 0 && r.size == size {
				return r.ptr, nil
			}
			if err != nil && remoting.IsConnFault(err) {
				return 0, err
			}
			return l.cl.Malloc(p, size)
		})
	}
	l.track(a.ptr, a.size)
	return a, nil
}

// xh translates a guest-virtual handle of any kind to the current session's
// real one. Handles the table does not know — every handle of a
// non-recoverable library, whose table is nil — pass through.
func xh[H ~uint64](l *Lib, v H) H {
	if r, ok := l.virt[uint64(v)]; ok {
		return H(r)
	}
	return v
}

// xp is xh for device pointers, which may also point into an allocation.
func (l *Lib) xp(v cuda.DevPtr) cuda.DevPtr {
	if l.rec == nil || v == 0 {
		return v
	}
	if r, ok := l.virt[uint64(v)]; ok {
		return cuda.DevPtr(r)
	}
	for base, size := range l.extents {
		if v > base && uint64(v) < uint64(base)+uint64(size) {
			if r, ok := l.virt[uint64(base)]; ok {
				return cuda.DevPtr(r) + (v - base)
			}
		}
	}
	return v
}

// translated returns in with every element run through x. The result is a
// copy: the caller's slice must not observe real handles.
func translated[H any](l *Lib, in []H, x func(H) H) []H {
	if l.rec == nil || len(in) == 0 {
		return in
	}
	out := make([]H, len(in))
	for i, v := range in {
		out[i] = x(v)
	}
	return out
}

func (l *Lib) xptrs(bufs []cuda.DevPtr) []cuda.DevPtr { return translated(l, bufs, l.xp) }

func (l *Lib) xdescs(descs []uint64) []uint64 {
	return translated(l, descs, func(d uint64) uint64 { return xh(l, d) })
}

// xlp translates a LaunchParams for the wire.
func (l *Lib) xlp(lp cuda.LaunchParams) cuda.LaunchParams {
	if l.rec == nil {
		return lp
	}
	lp.Fn = xh(l, lp.Fn)
	lp.Stream = xh(l, lp.Stream)
	lp.Mutates = l.xptrs(lp.Mutates)
	return lp
}

// forget retires a released handle: whatever the journal holds about it
// dies, and its mapping goes. (Nothing to find on a non-recoverable library.)
func (l *Lib) forget(h uint64) {
	for _, kind := range [...]jkind{jHandle, jStream, jDescSet} {
		l.journalDrop(jkey{kind: kind, id: h})
	}
	delete(l.virt, h)
}

// dropPtrEntries retires a device allocation that left the session (Free,
// ModelPersist, MemExport): forget, plus its extent and every content upload
// into it.
func (l *Lib) dropPtrEntries(ptr cuda.DevPtr) {
	size := l.extents[ptr]
	delete(l.extents, ptr)
	for _, en := range l.journal {
		if k := en.key; !en.dead && k.kind == jUpload && k.id >= uint64(ptr) && k.id < uint64(ptr)+uint64(size) {
			en.dead = true
			delete(l.journalKeys, k)
		}
	}
	l.forget(uint64(ptr))
}

// --- journal ---

// jkind says what of the session a journal entry establishes. (A full word,
// so that jkey has no padding and hashes as plain memory.)
type jkind uint64

const (
	jSession jkind = iota // the session itself: Hello
	jKernels              // one RegisterKernels call; id is its journal position
	jHandle               // the handle id exists (any namespace)
	jStream               // library handle id is bound to a stream
	jDescSet              // descriptor id is configured
	jUpload               // size bytes were uploaded to device address id
)

// jkey identifies what a journal entry establishes: journaling the same key
// again supersedes the entry, releasing the handle retires it.
type jkey struct {
	kind jkind
	id   uint64
	size int64
}

// journalEntry is one state-establishing call in the replay journal. Entries
// are replayed in original order; superseded or released entries are marked
// dead in place so replacement cannot reorder a call before state it uses.
type journalEntry struct {
	key    jkey
	dead   bool
	replay func(p *sim.Proc) error
}

// journalPut records (or replaces) a state-establishing call. Replacement
// appends and kills the old entry rather than updating in place: the new
// call may reference state created after the original (a re-bound stream,
// say), and replay order must respect that.
func (l *Lib) journalPut(key jkey, replay func(p *sim.Proc) error) {
	if l.rec == nil {
		return
	}
	if old, ok := l.journalKeys[key]; ok {
		old.dead = true
	}
	en := &journalEntry{key: key, replay: replay}
	l.journal = append(l.journal, en)
	l.journalKeys[key] = en
	l.stats.Journaled++
}

// journalDrop kills the entry for a released resource.
func (l *Lib) journalDrop(key jkey) {
	if en, ok := l.journalKeys[key]; ok {
		en.dead = true
		delete(l.journalKeys, key)
	}
}

// replayJournal re-establishes session state on a fresh connection.
func (l *Lib) replayJournal(p *sim.Proc) error {
	for _, en := range l.journal {
		if en.dead {
			continue
		}
		if err := en.replay(p); err != nil {
			return err
		}
		l.stats.Replayed++
	}
	return nil
}

// resendUnfenced re-submits the pipelined calls issued after the last
// successful fence, encoded afresh so translation picks up the recovered
// session's handles.
func (l *Lib) resendUnfenced(p *sim.Proc) error {
	l.asyncInFlight = 0
	if len(l.unfenced) == 0 {
		return nil
	}
	if l.async == nil {
		return errors.New("guest: recovered transport lacks the pipelined lane")
	}
	for i := range l.unfenced {
		if err := l.send(p, &l.unfenced[i]); err != nil {
			return err
		}
		l.asyncInFlight++
	}
	return nil
}

// clearUnfenced retires the tracked pipelined window, confirming its calls in
// submission order when the fence that covered them succeeded.
func (l *Lib) clearUnfenced(success bool) {
	if success {
		for i := range l.unfenced {
			l.confirmed(&l.unfenced[i])
		}
	}
	clear(l.unfenced)
	l.unfenced = l.unfenced[:0]
	l.oldestUnfenced = 0
}

// --- recovery driver ---

// recoverSession redials, replays the journal and re-sends unfenced work,
// with capped exponential backoff and deterministic jitter between attempts.
// The sticky cudaGetLastError value observed before the fault is preserved:
// recovery is transparent to the application's error-model view.
func (l *Lib) recoverSession(p *sim.Proc) error {
	rec := l.rec
	l.stats.Recoveries++
	sticky := l.lastError
	l.recovering = true
	defer func() { l.recovering = false }()
	l.cl.T.Close()
	for attempt := 0; attempt < rec.MaxAttempts; attempt++ {
		if attempt > 0 {
			d := rec.BackoffBase << (attempt - 1)
			if d > rec.BackoffCap {
				d = rec.BackoffCap
			}
			// Uniform jitter in [d/2, 3d/2): deterministic per proc.
			d = d/2 + time.Duration(p.Rand().Int63n(int64(d)+1))
			p.Sleep(d)
		}
		l.stats.Redials++
		nc, err := rec.Redial(p)
		if err != nil || nc == nil {
			continue
		}
		l.adoptTransport(nc)
		step, err := "journal replay", l.replayJournal(p)
		if err == nil {
			step, err = "resend", l.resendUnfenced(p)
		}
		if err == nil {
			l.lastError = sticky
			return nil
		}
		if !remoting.IsConnFault(err) {
			l.lost = true
			return fmt.Errorf("%w: %s: %v", ErrSessionLost, step, err)
		}
		nc.Close()
	}
	l.lost = true
	return ErrSessionLost
}
