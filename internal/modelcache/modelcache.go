// Package modelcache implements the per-GPU-server model cache: the state
// that lets repeat invocations of a serverless function skip the two
// dominant cold-start phases DGSF itself does not remove — the object-store
// download and the model-load phase (Fig. 3).
//
// The cache has two storage tiers plus a placement signal:
//
//   - the host tier is an LRU over simulated host memory, bounded by a
//     configurable byte budget. It holds downloaded objects (keyed by
//     object-store name + content fingerprint) and model working sets staged
//     out of GPU memory;
//   - the device tier pins, per API server, the model working set the last
//     function left behind at Bye (its VMM reservations stay mapped), bounded
//     by a per-GPU byte budget. Under memory pressure a pin is swapped to the
//     host tier at copy-engine bandwidth, Torpor-style;
//   - the pin table doubles as the locality signal the GPU server's monitor
//     reads when placing functions (PolicyLocality).
//
// The package is pure bookkeeping: all timing (swap transfers, restores,
// downloads) is charged by the callers on the simulation's virtual clock, so
// cache behavior is deterministic under a fixed seed by construction.
package modelcache

import (
	"cmp"
	"slices"
)

// Key identifies a host-tier entry: an object-store name plus a content
// fingerprint, so a re-uploaded object with different content misses.
type Key struct {
	Name string
	FP   uint64
}

// StateKey returns the host-tier key under which a function's staged-out
// model working set is kept. The fingerprint is derived from the function
// identity: the working set a function leaves behind is the same content
// every invocation.
func StateKey(fnID string) Key {
	fp := uint64(0x9e3779b97f4a7c15)
	for _, c := range fnID {
		fp = (fp ^ uint64(c)) * 0x100000001b3
	}
	return Key{Name: "model-state/" + fnID, FP: fp}
}

// Entry is one host-tier resident.
type Entry struct {
	Key   Key
	Bytes int64
	seq   uint64
}

// CacheStats counts host-tier cache activity.
type CacheStats struct {
	Hits         int
	Misses       int
	Inserts      int
	Rejects      int // entries larger than the whole budget
	Evictions    int
	BytesEvicted int64
}

// LRU is a byte-budgeted least-recently-used cache. Recency is a logical
// sequence number, so behavior depends only on the call sequence — no clocks,
// no randomness.
type LRU struct {
	budget  int64
	used    int64
	entries map[Key]*Entry
	seq     uint64
	stats   CacheStats
}

// NewLRU returns an empty cache with the given byte budget.
func NewLRU(budget int64) *LRU {
	return &LRU{budget: budget, entries: make(map[Key]*Entry)}
}

// Get looks up a key, refreshing its recency on a hit.
func (l *LRU) Get(k Key) (int64, bool) {
	e, ok := l.entries[k]
	if !ok {
		l.stats.Misses++
		return 0, false
	}
	l.seq++
	e.seq = l.seq
	l.stats.Hits++
	return e.Bytes, true
}

// Peek reports whether a key is resident without touching recency or
// counters (for placement decisions, not accesses).
func (l *LRU) Peek(k Key) bool {
	_, ok := l.entries[k]
	return ok
}

// PeekName reports whether any entry with the given name is resident,
// regardless of fingerprint.
func (l *LRU) PeekName(name string) bool {
	for k := range l.entries {
		if k.Name == name {
			return true
		}
	}
	return false
}

// Put inserts (or refreshes) an entry, evicting least-recently-used entries
// until it fits. It returns the evicted entries and whether the insert was
// admitted; an entry larger than the whole budget is rejected.
func (l *LRU) Put(k Key, bytes int64) (evicted []Entry, ok bool) {
	if bytes > l.budget || bytes < 0 {
		l.stats.Rejects++
		return nil, false
	}
	if e, exists := l.entries[k]; exists {
		l.used += bytes - e.Bytes
		e.Bytes = bytes
		l.seq++
		e.seq = l.seq
	} else {
		l.seq++
		l.entries[k] = &Entry{Key: k, Bytes: bytes, seq: l.seq}
		l.used += bytes
		l.stats.Inserts++
	}
	for l.used > l.budget {
		victim := l.oldest(k)
		if victim == nil {
			break
		}
		l.used -= victim.Bytes
		delete(l.entries, victim.Key)
		l.stats.Evictions++
		l.stats.BytesEvicted += victim.Bytes
		evicted = append(evicted, *victim)
	}
	return evicted, true
}

// oldest returns the lowest-recency entry other than keep (sequence numbers
// are unique, so the choice is deterministic).
func (l *LRU) oldest(keep Key) *Entry {
	var victim *Entry
	for _, e := range l.entries {
		if e.Key == keep {
			continue
		}
		if victim == nil || e.seq < victim.seq {
			victim = e
		}
	}
	return victim
}

// AppendEntries appends the resident entries to dst oldest-first (ascending
// recency) and returns the extended slice. The order is deterministic:
// sequence numbers are unique. The fleet agent uses this to mirror the host
// tier into the cluster store as StagedModel objects, into one slice it
// reuses across ticks.
func (l *LRU) AppendEntries(dst []Entry) []Entry {
	n := len(dst)
	for _, e := range l.entries {
		dst = append(dst, *e)
	}
	slices.SortFunc(dst[n:], func(a, b Entry) int { return cmp.Compare(a.seq, b.seq) })
	return dst
}

// Seq returns an entry's recency sequence number (0 if absent); older
// entries have lower numbers.
func (l *LRU) Seq(k Key) uint64 {
	if e, ok := l.entries[k]; ok {
		return e.seq
	}
	return 0
}

// Remove drops an entry, reporting whether it was resident.
func (l *LRU) Remove(k Key) bool {
	e, ok := l.entries[k]
	if !ok {
		return false
	}
	l.used -= e.Bytes
	delete(l.entries, k)
	return true
}

// RemoveName drops the oldest entry with the given name, whatever its
// fingerprint, reporting whether one was resident.
func (l *LRU) RemoveName(name string) bool {
	var victim *Entry
	for _, e := range l.entries {
		if e.Key.Name == name && (victim == nil || e.seq < victim.seq) {
			victim = e
		}
	}
	return victim != nil && l.Remove(victim.Key)
}

// Used returns the resident byte total.
func (l *LRU) Used() int64 { return l.used }

// Budget returns the byte budget.
func (l *LRU) Budget() int64 { return l.budget }

// Len returns the number of resident entries.
func (l *LRU) Len() int { return len(l.entries) }

// Stats returns the activity counters.
func (l *LRU) Stats() CacheStats { return l.stats }

// Config parameterizes a GPU server's model cache.
type Config struct {
	// Enable turns the cache on. All zero-value deployments run without a
	// cache and behave exactly as before the subsystem existed.
	Enable bool
	// HostBudget bounds the host tier (downloaded objects plus staged-out
	// model working sets). Zero means the default (32 GiB).
	HostBudget int64
	// DeviceBudget bounds pinned model bytes per GPU. Zero means the default
	// (13 GiB on a 16 GiB V100, leaving room for the idle-server baseline);
	// negative disables the device tier entirely (host staging only).
	DeviceBudget int64
}

// Defaults for the cache budgets.
const (
	DefaultHostBudget   = 32 << 30
	DefaultDeviceBudget = 13 << 30
)

// Attach tiers, reported by the ModelAttach API.
const (
	TierMiss   = 0 // nothing cached: full download + model load
	TierHost   = 1 // restored from the host tier at PCIe bandwidth
	TierDevice = 2 // re-mapped GPU-resident pin: model load skipped entirely
)

// Pin is one GPU-resident cached model: the working set an API server kept
// mapped after its function's Bye.
type Pin struct {
	ServerID int
	GPU      int
	FnID     string
	Bytes    int64
	seq      uint64
}

// Stats aggregates cache activity across both tiers.
type Stats struct {
	DeviceHits int // attaches served by a GPU-resident pin
	HostHits   int // attaches restored from the host tier
	Misses     int // attaches that found nothing

	Pins            int // models retained on-device at Bye
	PinRejects      int // retention attempts denied by the device budget
	DeviceEvictions int // pins swapped out to the host tier
	SwapOutBytes    int64

	// Model-broadcast fan-out (internal/dataplane): how many ModelBroadcast
	// calls seeded a fresh copy from the host tier versus cloned the live
	// source device-to-device. Seeds are the only host-link traversals an
	// N-way fan-out pays.
	BroadcastSeeds  int
	BroadcastClones int

	Host CacheStats // host-tier counters
}

// Attaches returns the total ModelAttach decisions recorded.
func (s Stats) Attaches() int { return s.DeviceHits + s.HostHits + s.Misses }

// DeviceHitRate returns the fraction of attaches served on-device.
func (s Stats) DeviceHitRate() float64 {
	if n := s.Attaches(); n > 0 {
		return float64(s.DeviceHits) / float64(n)
	}
	return 0
}

// HitRate returns the fraction of attaches served by either tier.
func (s Stats) HitRate() float64 {
	if n := s.Attaches(); n > 0 {
		return float64(s.DeviceHits+s.HostHits) / float64(n)
	}
	return 0
}

// Manager is one GPU server's cache: the shared host tier plus the device
// pin table. API servers update it synchronously from simulated processes;
// the monitor reads it for placement and eviction decisions.
type Manager struct {
	deviceBudget int64
	host         *LRU
	pins         map[int]*Pin // server ID -> its pin (at most one each)
	perGPU       map[int]int64
	seq          uint64
	stats        Stats
}

// NewManager builds a cache from cfg, applying defaults for zero budgets.
func NewManager(cfg Config) *Manager {
	host := cfg.HostBudget
	if host == 0 {
		host = DefaultHostBudget
	}
	dev := cfg.DeviceBudget
	if dev == 0 {
		dev = DefaultDeviceBudget
	}
	if dev < 0 {
		dev = 0 // device tier disabled
	}
	return &Manager{
		deviceBudget: dev,
		host:         NewLRU(host),
		pins:         make(map[int]*Pin),
		perGPU:       make(map[int]int64),
	}
}

// Host returns the host tier (shared by the download path and swap-outs).
func (m *Manager) Host() *LRU { return m.host }

// Pin retains a model on-device: serverID keeps bytes of fnID's working set
// mapped on gpu. It fails if the server already holds a pin or the GPU's
// device budget would be exceeded.
func (m *Manager) Pin(serverID, gpu int, fnID string, bytes int64) bool {
	if _, held := m.pins[serverID]; held || bytes <= 0 || m.perGPU[gpu]+bytes > m.deviceBudget {
		m.stats.PinRejects++
		return false
	}
	m.seq++
	m.pins[serverID] = &Pin{ServerID: serverID, GPU: gpu, FnID: fnID, Bytes: bytes, seq: m.seq}
	m.perGPU[gpu] += bytes
	m.stats.Pins++
	return true
}

// Unpin releases a server's pin (adopted into a session, swapped out, or
// dropped).
func (m *Manager) Unpin(serverID int) {
	pin, ok := m.pins[serverID]
	if !ok {
		return
	}
	m.perGPU[pin.GPU] -= pin.Bytes
	delete(m.pins, serverID)
}

// PinnedFn returns the function and size pinned by a server.
func (m *Manager) PinnedFn(serverID int) (fnID string, bytes int64, ok bool) {
	pin, ok := m.pins[serverID]
	if !ok {
		return "", 0, false
	}
	return pin.FnID, pin.Bytes, true
}

// PinnedBytes returns the bytes pinned on one GPU.
func (m *Manager) PinnedBytes(gpu int) int64 { return m.perGPU[gpu] }

// UpdatePinGPU moves a pin's accounting when its API server migrates (the
// mapped reservations travel with the server's address space).
func (m *Manager) UpdatePinGPU(serverID, gpu int) {
	pin, ok := m.pins[serverID]
	if !ok || pin.GPU == gpu {
		return
	}
	m.perGPU[pin.GPU] -= pin.Bytes
	pin.GPU = gpu
	m.perGPU[gpu] += pin.Bytes
}

// OldestPin returns the least-recently-pinned server among those eligible
// (e.g. not currently leased), for the monitor's eviction pass. Ties cannot
// occur: pin sequence numbers are unique.
func (m *Manager) OldestPin(eligible func(serverID int) bool) (int, bool) {
	ids := make([]int, 0, len(m.pins))
	for id := range m.pins {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var victim *Pin
	for _, id := range ids {
		if eligible != nil && !eligible(id) {
			continue
		}
		if pin := m.pins[id]; victim == nil || pin.seq < victim.seq {
			victim = pin
		}
	}
	if victim == nil {
		return 0, false
	}
	return victim.ServerID, true
}

// HasModel reports whether the cache holds fnID's model anywhere: a device
// pin or a host-staged working set.
func (m *Manager) HasModel(fnID string) bool {
	for _, pin := range m.pins {
		if pin.FnID == fnID {
			return true
		}
	}
	return m.host.Peek(StateKey(fnID))
}

// NoteAttach records a ModelAttach decision.
func (m *Manager) NoteAttach(tier int) {
	switch tier {
	case TierDevice:
		m.stats.DeviceHits++
	case TierHost:
		m.stats.HostHits++
	default:
		m.stats.Misses++
	}
}

// NoteBroadcast records a ModelBroadcast decision: seed is true for the
// single host-staged read that creates a GPU server's broadcast source,
// false for a device-to-device clone served from it.
func (m *Manager) NoteBroadcast(seed bool) {
	if seed {
		m.stats.BroadcastSeeds++
	} else {
		m.stats.BroadcastClones++
	}
}

// NoteSwapOut records a device-to-host eviction of bytes.
func (m *Manager) NoteSwapOut(bytes int64) {
	m.stats.DeviceEvictions++
	m.stats.SwapOutBytes += bytes
}

// Stats returns an activity snapshot across both tiers.
func (m *Manager) Stats() Stats {
	st := m.stats
	st.Host = m.host.Stats()
	return st
}
