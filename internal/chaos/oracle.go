package chaos

import (
	"fmt"
	"hash/fnv"

	"dgsf/internal/dataplane"
	"dgsf/internal/faas"
	"dgsf/internal/metrics"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
	"dgsf/internal/store"
)

// Violation is one invariant breach found by the oracle after a run.
type Violation struct {
	Check  string `json:"check"`
	Detail string `json:"detail"`
}

// Result is the outcome of running one schedule: the oracle's verdict plus
// enough accounting for campaign summaries.
type Result struct {
	Violations []Violation

	Invocations int // submissions or chains completed
	Failed      int // invocations that ended with an error
	Recoveries  int // guest recovery episodes
	Fallbacks   int // chains that fell back to the host bounce (pipeline)
	GPUChains   int // chains that completed GPU-side (pipeline)
	Hang        bool
}

// violate records one invariant breach.
func (r *Result) violate(check, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Check: check, Detail: fmt.Sprintf(format, args...)})
}

// --- store oracle: RV monotonicity + watch completeness + frozen objects ---

// observer is a watch opened at RV 0 before the cluster's first write, so
// its stream is a pure log replay: every event that ever happens to the
// kind, in write order, with strictly increasing ResourceVersions. Its
// process takes each event off the stream as it is sent — registered first,
// it is the first consumer to run — and fingerprints the object, which is
// the store's own and shared with every other consumer (store.Event): one
// that writes through it instead of a DeepCopy shows at quiesce.
type observer struct {
	kind   store.Kind
	res    *Result
	w      *store.Watch
	lastRV uint64
	events int
	fold   map[string]store.Event // name → last event seen
	seen   []receipt
	// marked is sent to when the process reaches the mark that ends the run.
	marked *sim.Queue[struct{}]
}

// receipt is one event and the fingerprint its object had on receipt.
type receipt struct {
	ev  store.Event
	sum uint64
}

// endMark is the in-band end of an oracle stream: the zero event, which no
// store sends.
var endMark = store.Event{}

// observe opens an oracle watch on one kind and starts its process. Must
// run before any write of that kind lands, or the stream is not a full
// history.
func observe(p *sim.Proc, st *store.Store, kind store.Kind, res *Result) (*observer, error) {
	w, err := st.Watch(p, kind, 0)
	if err != nil {
		return nil, err
	}
	o := &observer{kind: kind, res: res, w: w, fold: map[string]store.Event{}, marked: sim.NewQueue[struct{}](p.Engine())}
	p.SpawnDaemon("chaos-observer", o.run)
	return o, nil
}

// run folds the stream, checking RV monotonicity as it goes, until the mark.
func (o *observer) run(p *sim.Proc) {
	for {
		ev, ok := o.w.Events.Recv(p)
		if !ok || ev == endMark {
			o.marked.Send(struct{}{})
			return
		}
		o.events++
		if ev.RV <= o.lastRV {
			o.res.violate("store-rv-monotonic", "%s watch: event %d has RV %d after RV %d",
				o.kind, o.events, ev.RV, o.lastRV)
		}
		o.lastRV = ev.RV
		if ev.Object != nil {
			o.fold[ev.Object.Meta().Name] = ev
			o.seen = append(o.seen, receipt{ev, fingerprint(ev.Object)})
		}
	}
}

// mark ends the stream here. The store enqueues events synchronously at
// write time, so the events ahead of the mark are the complete history up to
// this instant: a List taken with no yield in between is the same
// observation of the store as the fold cut at the mark.
func (o *observer) mark() { o.w.Events.Send(endMark) }

// settle waits for the process to reach the mark, then compares the fold
// with the List snapshot rs taken at the mark, and every object's
// fingerprint with the one taken on receipt.
func (o *observer) settle(p *sim.Proc, rs []store.Resource) {
	o.marked.Recv(p)
	o.checkComplete(rs)
	for _, r := range o.seen {
		if fingerprint(r.ev.Object) != r.sum {
			o.res.violate("store-object-frozen", "%s %q handed out %s at RV %d was written through afterwards: now %+v",
				o.kind, r.ev.Object.Meta().Name, r.ev.Type, r.ev.RV, r.ev.Object)
		}
	}
}

// fingerprint hashes everything a resource holds.
func fingerprint(r store.Resource) uint64 {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	m := r.Meta()
	e.Str(string(r.Kind()))
	e.Str(m.Name)
	e.U64(m.UID)
	e.U64(m.ResourceVersion)
	e.U64(m.Generation)
	e.Dur(m.CreatedAt)
	r.EncodeSpec(e)
	r.EncodeStatus(e)
	h := fnv.New64a()
	h.Write(e.Bytes())
	return h.Sum64()
}

// checkComplete compares the folded watch history with a List snapshot of
// current state: every live object must be the last thing the watch saw for
// its name, at the same ResourceVersion, and nothing the watch believes
// live may be missing from the snapshot.
func (o *observer) checkComplete(rs []store.Resource) {
	live := map[string]bool{}
	for _, r := range rs {
		m := r.Meta()
		live[m.Name] = true
		ev, ok := o.fold[m.Name]
		if !ok {
			o.res.violate("store-watch-complete", "%s %q at RV %d never appeared on the watch",
				o.kind, m.Name, m.ResourceVersion)
			continue
		}
		if ev.Type == store.Deleted {
			o.res.violate("store-watch-complete", "%s %q is live at RV %d but the watch last saw it Deleted at RV %d",
				o.kind, m.Name, m.ResourceVersion, ev.RV)
			continue
		}
		if ev.RV != m.ResourceVersion {
			o.res.violate("store-watch-complete", "%s %q is at RV %d but the watch last saw RV %d",
				o.kind, m.Name, m.ResourceVersion, ev.RV)
		}
	}
	for name, ev := range o.fold {
		if ev.Type != store.Deleted && !live[name] {
			o.res.violate("store-watch-complete", "%s %q last seen %s at RV %d but absent from the snapshot",
				o.kind, name, ev.Type, ev.RV)
		}
	}
}

// checkStoreCounters ties the store's version counter to its metrics: every
// RV bump is a write, so the store-wide RV and the write counter must agree.
func checkStoreCounters(res *Result, st *store.Store, reg *metrics.Registry) {
	writes := uint64(reg.Counter("store_writes_total").Value())
	if rv := st.RV(); rv != writes {
		res.violate("store-counter-conservation", "store RV %d != store_writes_total %d", rv, writes)
	}
}

// --- data-plane oracle: export refcount balance ---

// checkExportBalance verifies export accounting on the fabric: every export
// ever created is either freed, stranded with a machine failure, or still
// live — and at quiesce, with all chains complete and sessions closed,
// nothing may still be live.
func checkExportBalance(res *Result, fab *dataplane.Fabric) {
	reg := fab.Metrics()
	exports := reg.Counter(dataplane.CtrExports).Value()
	frees := reg.Counter(dataplane.CtrExportFrees).Value()
	stranded := reg.Counter(dataplane.CtrStranded).Value()
	live := int64(fab.LiveExports())
	if exports != frees+stranded+live {
		res.violate("export-balance", "exports=%d != frees=%d + stranded=%d + live=%d",
			exports, frees, stranded, live)
	}
	if live != 0 {
		res.violate("export-leak", "%d exports still live at quiesce (exports=%d frees=%d stranded=%d)",
			live, exports, frees, stranded)
	}
}

// --- guest oracle: journal replay accounting ---

// checkGuestAccounting verifies the recovery ledger of one invocation:
// replays only happen inside recovery episodes, episodes only redial, and no
// single redial can replay more entries than the journal ever recorded. The
// bound is per redial, not per episode: a replay that itself hits a fault
// mid-way redials and replays again within the same episode, so one episode
// legitimately replays up to Journaled × (its redial count) entries.
func checkGuestAccounting(res *Result, kind string, seq int, inv *faas.Invocation) {
	if inv == nil {
		return
	}
	if inv.Replayed > 0 && inv.Recoveries == 0 {
		res.violate("guest-replay-accounting", "%s %d replayed %d journal entries without a recovery episode",
			kind, seq, inv.Replayed)
	}
	if inv.Redials < inv.Recoveries {
		res.violate("guest-replay-accounting", "%s %d entered %d recovery episodes but redialed only %d times",
			kind, seq, inv.Recoveries, inv.Redials)
	}
	if inv.Recoveries > 0 && inv.Replayed > inv.Journaled*inv.Redials {
		res.violate("guest-replay-accounting", "%s %d replayed %d entries > journaled %d × redials %d",
			kind, seq, inv.Replayed, inv.Journaled, inv.Redials)
	}
}

// --- wire oracle: transport byte conservation ---

// checkWireDelta verifies the run's wire traffic is conserved: counters
// only move forward, and bytes never move without frames. (rx may exceed tx
// legitimately: the simulated transport charges a response's modeled data
// bytes at the receiver only.)
func checkWireDelta(res *Result, d remoting.WireStats) {
	if d.BytesTx < 0 || d.BytesRx < 0 || d.FramesV2 < 0 {
		res.violate("wire-conservation", "wire counters moved backwards: %+v", d)
	}
	if d.BytesTx > 0 && d.FramesV2 == 0 {
		res.violate("wire-conservation", "%d bytes written without a single frame", d.BytesTx)
	}
}
