// Package dataplane is the GPU-side data plane for chained serverless
// functions (ROADMAP item 2, following FaaSTube's GPU-oriented data layer).
//
// DGSF functions historically exchanged every intermediate tensor by bouncing
// it through the guest and objstore — a D2H copy, an object upload, a
// download, and an H2D copy — even when producer and consumer ran on API
// servers sharing one physical GPU. The data plane removes that bounce:
//
//   - Export/Import: a producer detaches a device allocation from its session
//     (cuda.Context.DetachPhys) and publishes it under a fabric-wide export
//     ID. A consumer on the same GPU server imports it as a zero-copy VMM
//     remap (same device) or an NVLink D2D clone (sibling device). No bytes
//     cross the host link either way.
//   - PeerCopy: a consumer on a different GPU server pulls the export over
//     the bandwidth-modeled data-plane fabric (GPUDirect-RDMA-style), still
//     skipping the objstore round trip.
//   - Broadcast: for shared-base-model fleets, the first session per GPU
//     server seeds a model copy from the modelcache host tier with a single
//     staged read and registers itself as the broadcast source; later
//     sessions clone it device-to-device at D2D/NVLink bandwidth instead of
//     paying N× host-to-device loads.
//
// A Fabric is cluster-wide (one per simulation); each GPU server gets a Plane
// via Fabric.NewPlane. Planes are bookkeeping only — the API server performs
// the actual VMM calls and copies — which keeps the package free of any
// dependency on the serving stack, mirroring how modelcache sits beside
// apiserver rather than under it.
package dataplane

import (
	"errors"
	"sort"
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/gpu"
	"dgsf/internal/metrics"
	"dgsf/internal/sim"
)

// Counter names registered on the fabric's metrics registry.
const (
	CtrExports         = "dataplane_exports"
	CtrImports         = "dataplane_imports"
	CtrBypassHits      = "dataplane_bypass_hits"
	CtrPeerCopies      = "dataplane_peer_copies"
	CtrPeerBytes       = "dataplane_peer_bytes"
	CtrBroadcastLoads  = "dataplane_broadcast_loads"
	CtrBroadcastClones = "dataplane_broadcast_clones"
	CtrFallbacks       = "dataplane_fallbacks"
	CtrExportFrees     = "dataplane_export_frees"
	CtrStranded        = "dataplane_exports_stranded"
	CtrFabricFaults    = "dataplane_fabric_faults"
)

// ErrHandoffLost reports that a GPU-side handoff could not complete (export
// missing, consumed, or stranded on a failed GPU server). Chain drivers treat
// it as the signal to fall back to the bounce-through-host path.
var ErrHandoffLost = errors.New("dataplane: handoff lost")

// ErrHandoffLost crosses the remoting boundary: consumers of a chained
// function see it through the generated stubs' status codes.
func init() { cuda.RegisterWireSentinel(9010, ErrHandoffLost) }

// ModelBroadcast source codes (the Src response field).
const (
	SrcMiss     = 0 // no cached copy and no live source: load normally
	SrcHostSeed = 1 // single host-staged read; caller became the source
	SrcClone    = 2 // device-to-device clone from the live source
)

// Config models the inter-GPU-server fabric link used by PeerCopy.
type Config struct {
	PeerBps float64       // cross-server transfer bandwidth, bytes/s
	PeerLat time.Duration // fixed per-transfer link latency
}

// DefaultConfig returns a 25 Gb/s RDMA-class fabric, the class of NIC on the
// paper's p3.8xlarge testbed.
func DefaultConfig() Config {
	return Config{PeerBps: 3.1e9, PeerLat: 30 * time.Microsecond}
}

// Fabric is the cluster-wide data plane: the export namespace shared by every
// GPU server plus the bandwidth model for transfers between them.
type Fabric struct {
	cfg     Config
	reg     *metrics.Registry
	nextID  uint64
	exports map[uint64]*Export

	// faultHook, when set, is consulted before every fabric transfer; a
	// non-nil return aborts the transfer with that error. The fault
	// framework interposes mid-handoff fabric failures here.
	faultHook func(p *sim.Proc, size int64) error
}

// NewFabric creates a fabric. A nil registry gets a private one.
func NewFabric(cfg Config, reg *metrics.Registry) *Fabric {
	if cfg.PeerBps <= 0 {
		cfg.PeerBps = DefaultConfig().PeerBps
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	f := &Fabric{cfg: cfg, reg: reg, exports: make(map[uint64]*Export)}
	// Register every counter up front so experiment reports always show the
	// full set (the registry renders in registration order).
	for _, name := range []string{
		CtrExports, CtrImports, CtrBypassHits, CtrPeerCopies,
		CtrPeerBytes, CtrBroadcastLoads, CtrBroadcastClones, CtrFallbacks,
		CtrExportFrees, CtrStranded, CtrFabricFaults,
	} {
		f.reg.Counter(name)
	}
	return f
}

// SetFaultHook installs the fabric-transfer fault hook (fault injection).
func (f *Fabric) SetFaultHook(hook func(p *sim.Proc, size int64) error) {
	f.faultHook = hook
}

// Metrics returns the fabric's registry.
func (f *Fabric) Metrics() *metrics.Registry { return f.reg }

// TransferTime returns the modeled duration of moving size bytes across the
// fabric (latency + size/bandwidth). Exposed for experiment analysis.
func (f *Fabric) TransferTime(size int64) time.Duration {
	d := f.cfg.PeerLat
	if size > 0 {
		d += time.Duration(float64(size) / f.cfg.PeerBps * float64(time.Second))
	}
	return d
}

// PeerTransfer moves an export's contents into dst across the fabric,
// charging link latency plus size/bandwidth on the virtual clock and both
// devices' copy engines (gpu.FabricCopy). An injected fabric fault aborts
// the transfer partway — roughly half the modeled time is charged, the
// destination contents stay undefined, and the typed error surfaces to the
// caller, which must release dst and leave the export untouched so a retry
// or fallback can still reach the data.
func (f *Fabric) PeerTransfer(p *sim.Proc, dst, src *gpu.PhysAlloc) error {
	if f.faultHook != nil {
		if err := f.faultHook(p, src.Size()); err != nil {
			f.reg.Counter(CtrFabricFaults).Inc()
			if half := f.TransferTime(src.Size()) / 2; half > 0 {
				p.Sleep(half)
			}
			return err
		}
	}
	gpu.FabricCopy(p, dst, src, f.cfg.PeerBps, f.cfg.PeerLat)
	return nil
}

// NoteFallback records a chain driver abandoning the GPU path for the
// host-bounce path.
func (f *Fabric) NoteFallback() { f.reg.Counter(CtrFallbacks).Inc() }

// Lookup finds a live export by ID.
func (f *Fabric) Lookup(id uint64) (*Export, bool) {
	x, ok := f.exports[id]
	return x, ok
}

// BeginImport records a zero-copy mapping of an export into a consumer
// session. This is the same-server bypass: the intermediate skipped the
// objstore round trip entirely.
func (f *Fabric) BeginImport(x *Export) {
	x.imports++
	x.taken = true
	f.reg.Counter(CtrImports).Inc()
	f.reg.Counter(CtrBypassHits).Inc()
}

// EndImport releases one zero-copy mapping. When the last mapping goes and
// the export has been consumed, the backing memory is freed and the export
// leaves the namespace; EndImport returns true in that case (the caller's
// context dropped its reference before calling, so the fabric was the last
// owner).
func (f *Fabric) EndImport(x *Export) bool {
	if x.imports > 0 {
		x.imports--
	}
	if x.imports == 0 && x.taken && !x.dropped {
		f.drop(x)
		return true
	}
	return false
}

// Consume finalizes a copying transfer (cross-device import or peer copy):
// the consumer owns a clone, so the source allocation is freed immediately
// unless zero-copy mappings still reference it.
func (f *Fabric) Consume(x *Export) {
	x.taken = true
	if x.imports == 0 && !x.dropped {
		f.drop(x)
	}
}

// NoteCrossDevImport records a same-machine, cross-device import. It still
// counts as a bypass: the host link was never touched.
func (f *Fabric) NoteCrossDevImport() {
	f.reg.Counter(CtrImports).Inc()
	f.reg.Counter(CtrBypassHits).Inc()
}

// NotePeerCopy records a cross-server fabric transfer.
func (f *Fabric) NotePeerCopy(size int64) {
	f.reg.Counter(CtrPeerCopies).Inc()
	f.reg.Counter(CtrPeerBytes).Add(size)
}

// drop removes the export from the namespace and frees its backing memory.
// Stranded exports (their machine died) leave the namespace without a Free:
// the device memory died with the machine, and the allocation may still be
// referenced by a consumer's zero-copy detach path.
func (f *Fabric) drop(x *Export) {
	x.dropped = true
	delete(f.exports, x.id)
	if x.stranded {
		f.reg.Counter(CtrStranded).Inc()
		return
	}
	f.reg.Counter(CtrExportFrees).Inc()
	x.phys.Free()
}

// Abandon releases an export that will never be consumed — the chain driver
// gave up on the GPU-side handoff (consumer failed, no healthy server to
// land it on) and is falling back to the bounce path. Without this the
// producer's tensor would sit on the device forever. Exports already taken
// or still mapped are left alone: a live consumer owns the lifecycle.
func (f *Fabric) Abandon(id uint64) {
	x, ok := f.exports[id]
	if !ok || x.taken || x.imports > 0 {
		return
	}
	f.drop(x)
}

// LiveExports returns the number of exports still in the namespace.
func (f *Fabric) LiveExports() int { return len(f.exports) }

// strandPlane marks every export of a failed plane stranded. Exports with no
// live zero-copy mappings leave the namespace immediately; mapped ones stay
// until their consumers detach (EndImport drains the refcount and drop then
// skips the Free — the backing device is gone). Conservation invariant for
// the chaos oracle: exports == export_frees + exports_stranded + live.
func (f *Fabric) strandPlane(pl *Plane) {
	ids := make([]uint64, 0, len(f.exports))
	for id, x := range f.exports {
		if x.pl == pl {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		x := f.exports[id]
		x.stranded = true
		if x.imports == 0 {
			f.drop(x)
		}
	}
}

// Plane is one GPU server's view of the data plane: its exports and its
// model-broadcast sources. Created by Fabric.NewPlane and handed to every API
// server on that machine via the server config.
type Plane struct {
	f      *Fabric
	name   string
	failed bool
	// broadcast sources per model key, live while the seeding session holds
	// the allocation.
	sources map[string]*gpu.PhysAlloc
	loads   map[string]int            // host-staged reads per model key
	seeding map[string]*sim.WaitGroup // host-staged seeds in flight
}

// NewPlane creates the plane for one GPU server.
func (f *Fabric) NewPlane(name string) *Plane {
	return &Plane{
		f:       f,
		name:    name,
		sources: make(map[string]*gpu.PhysAlloc),
		loads:   make(map[string]int),
		seeding: make(map[string]*sim.WaitGroup),
	}
}

// Name returns the owning GPU server's name.
func (pl *Plane) Name() string { return pl.name }

// Fabric returns the cluster fabric.
func (pl *Plane) Fabric() *Fabric { return pl.f }

// Fail marks the GPU server dead: its exports are stranded (they leave the
// namespace once unmapped, without freeing device memory that died with the
// machine), its broadcast sources are dropped, and in-flight seed waiters
// are released, so consumers see prompt errors instead of hanging on a
// machine that no longer exists. Idempotent: a second Fail — a flapping
// machine, or overlapping fault paths racing to report the same death —
// must not re-strand exports or re-drain seed waiters.
func (pl *Plane) Fail() {
	if pl.failed {
		return
	}
	pl.failed = true
	pl.f.strandPlane(pl)
	pl.sources = make(map[string]*gpu.PhysAlloc)
	pl.loads = make(map[string]int)
	keys := make([]string, 0, len(pl.seeding))
	for k := range pl.seeding {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		pl.EndSeed(k)
	}
}

// Failed reports whether the GPU server was marked dead.
func (pl *Plane) Failed() bool { return pl.failed }

// --- exports ---

// Export is a published tensor: a physical device allocation detached from
// its producing session, owned by the plane until a consumer takes it.
type Export struct {
	id   uint64
	pl   *Plane
	tag  string
	phys *gpu.PhysAlloc

	imports  int  // live zero-copy mappings held by consumer sessions
	taken    bool // at least one consumer received the data
	dropped  bool // removed from the fabric namespace
	stranded bool // machine died; backing memory is gone, never freed here
}

// ID returns the fabric-wide export ID.
func (x *Export) ID() uint64 { return x.id }

// Size returns the tensor size in bytes.
func (x *Export) Size() int64 { return x.phys.Size() }

// Tag returns the producer-chosen label.
func (x *Export) Tag() string { return x.tag }

// Phys returns the backing allocation.
func (x *Export) Phys() *gpu.PhysAlloc { return x.phys }

// LocalTo reports whether the export lives on pl's GPU server.
func (x *Export) LocalTo(pl *Plane) bool { return x.pl == pl }

// SourceFailed reports whether the GPU server holding the export died; its
// device memory died with it, so consumers must fall back to the bounce path.
func (x *Export) SourceFailed() bool { return x.pl.failed }

// Export publishes a detached allocation under a fresh fabric-wide ID.
func (pl *Plane) Export(tag string, phys *gpu.PhysAlloc) *Export {
	pl.f.nextID++
	x := &Export{id: pl.f.nextID, pl: pl, tag: tag, phys: phys}
	pl.f.exports[x.id] = x
	pl.f.reg.Counter(CtrExports).Inc()
	return x
}

// --- model broadcast ---

// BroadcastSource returns the live broadcast source allocation for a model
// key on this GPU server, if any.
func (pl *Plane) BroadcastSource(key string) (*gpu.PhysAlloc, bool) {
	a, ok := pl.sources[key]
	return a, ok
}

// SetBroadcastSource registers a freshly host-seeded model copy as the
// broadcast source for key and counts the staged read.
func (pl *Plane) SetBroadcastSource(key string, a *gpu.PhysAlloc) {
	pl.sources[key] = a
	pl.loads[key]++
	pl.f.reg.Counter(CtrBroadcastLoads).Inc()
}

// NoteBroadcastClone counts a device-to-device clone served from a source.
func (pl *Plane) NoteBroadcastClone() {
	pl.f.reg.Counter(CtrBroadcastClones).Inc()
}

// DropBroadcastSource deregisters the source backed by allocation a (called
// when the seeding session frees it or ends). Later broadcasts on this server
// re-seed from the host tier.
func (pl *Plane) DropBroadcastSource(key string) {
	delete(pl.sources, key)
}

// HostLoads returns how many host-staged reads key has cost on this server —
// the quantity the broadcast experiment proves stays at 1 for an N-way
// fan-out.
func (pl *Plane) HostLoads(key string) int { return pl.loads[key] }

// BeginSeed marks a host-staged seed for key as in flight. Concurrent
// broadcasters of the same model wait on the gate instead of each paying a
// host read — that is what keeps an N-way simultaneous fan-out at one staged
// read. The sim is cooperatively scheduled, so the check-then-begin sequence
// in the API server cannot interleave with another seeder.
func (pl *Plane) BeginSeed(p *sim.Proc, key string) {
	wg := sim.NewWaitGroup(p.Engine())
	wg.Add(1)
	pl.seeding[key] = wg
}

// EndSeed completes (or aborts) the in-flight seed for key and wakes waiters.
// Waiters re-check for a live source; after an aborted seed one of them takes
// over as the seeder.
func (pl *Plane) EndSeed(key string) {
	if wg, ok := pl.seeding[key]; ok {
		delete(pl.seeding, key)
		wg.Done()
	}
}

// WaitSeed blocks while a seed for key is in flight, reporting whether it
// waited at all.
func (pl *Plane) WaitSeed(p *sim.Proc, key string) bool {
	wg, ok := pl.seeding[key]
	if !ok {
		return false
	}
	wg.Wait(p)
	return true
}

// --- chain handoff state (shared between chained function bodies) ---

// HandoffMode selects how a chained intermediate travels.
type HandoffMode int

const (
	// HandoffBounce is the baseline: D2H + objstore round trip + H2D.
	HandoffBounce HandoffMode = iota
	// HandoffGPU keeps the tensor on the GPU side: MemImport on the same
	// server, PeerCopy across servers.
	HandoffGPU
)

// Handoff carries the data-plane state between a producer and a consumer
// function body. The chain driver resets it per attempt and flips Mode when
// falling back; the bodies read Mode and fill/consume the rest.
type Handoff struct {
	Mode   HandoffMode
	Export uint64 // fabric export ID (HandoffGPU)
	Bytes  int64  // intermediate size, set by the producer
	FP     uint64 // producer-side content fingerprint (bounce path carries it)
}

// Reset prepares the handoff for a fresh chain attempt in the given mode.
func (h *Handoff) Reset(mode HandoffMode) {
	h.Mode = mode
	h.Export = 0
	h.FP = 0
}
