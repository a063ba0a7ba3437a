// Package apiserver implements a DGSF API server: the process on a GPU
// server that executes remoted API calls on behalf of exactly one serverless
// function at a time (§V-A).
//
// An API server owns one CUDA runtime with (by construction) at most one
// context per physical GPU. It is initially bound to a home GPU; while a
// function runs, the monitor may migrate it to another GPU at an API-call
// boundary, and when the function finishes it returns to its home GPU.
//
// Serverless specializations implemented here (§V-C):
//
//   - pre-initialized CUDA runtime and pooled cuDNN/cuBLAS handles, taking
//     ~3.2 s + 1.2 s + 0.2 s of initialization off the function's critical
//     path (an idle pre-warmed server occupies ~755 MB of device memory);
//   - device virtualization: the function always sees exactly one GPU;
//   - memory accounting against the function's declared limit, enforced at
//     allocation time;
//   - every allocation goes through the CUDA low-level virtual-memory API so
//     migration can rebuild an identical virtual address space elsewhere.
package apiserver

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/dataplane"
	"dgsf/internal/gpu"
	"dgsf/internal/membytes"
	"dgsf/internal/modelcache"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

// Config parameterizes an API server.
type Config struct {
	ID      int
	HomeDev int // initially assigned GPU

	// PoolHandles enables the startup optimization: the CUDA runtime is
	// initialized and poolSize handles of each library are created when the
	// server starts, not when a function first needs them.
	PoolHandles bool

	// CUDACosts is unread: the costs reach the server through its
	// cuda.Runtime. It stays until bench/ stops setting it.
	CUDACosts cuda.Costs
	LibCosts  cudalibs.Costs

	// Cache, when non-nil, is the GPU server's shared model cache: the
	// server may keep a function's model working set mapped after Bye and
	// hand it to the function's next invocation (internal/modelcache).
	Cache *modelcache.Manager

	// Plane, when non-nil, is the GPU server's data plane: tensor
	// export/import between the machine's API servers, peer copies across
	// machines, and model broadcast (internal/dataplane).
	Plane *dataplane.Plane
}

// Stats is a snapshot of server activity for the monitor.
type Stats struct {
	CallsHandled   int
	BatchesHandled int
	AsyncHandled   int // one-way submissions executed without a reply
	FencesHandled  int // pipeline fences answered
	Kernels        int
	Migrations     int           // moves a MigrateRequest asked for that completed
	MigrationTime  time.Duration // their cumulative duration
	SessionMem     int64         // bytes allocated by the current function
	Busy           bool          // a function session is active
	CurrentDev     int
}

// Server is one API server.
type Server struct {
	cfg  Config
	rt   *cuda.Runtime
	libs *cudalibs.Libs

	// Inbox carries both guest requests and monitor control messages; both
	// are processed in FIFO order, which is what confines migration to API
	// call boundaries.
	Inbox *sim.Queue[remoting.Request]

	curDev  int
	prewarm bool // pools are ready

	// visited marks the devices other than home the server has moved to: each
	// holds a context of its own, destroyed when the session ends.
	visited []bool
	// idle is the pool: pre-created library handles no session is using, per
	// cudalibs.Kind, always bound to the context on curDev.
	idle [2][]uint64

	sess    *session
	spare   tables // the last session's, emptied, for the next begin
	stats   Stats
	crashed bool // fault injection killed the server process

	// asyncErr latches the first error produced by a one-way (CallAsync)
	// submission; the next CallFence reports and clears it — the sticky
	// error semantics CUDA gives asynchronous work.
	asyncErr int32

	// lease holds the bulk buffer the transport gave away with the request
	// being handled, until MemWrite claims it or the request is done.
	lease remoting.BulkLease

	// reply is where handle encodes the response to the message it was
	// given: a call's, an entry's inside a batch or a one-way submission —
	// read for its status word and overwritten by the next — a fence's. The
	// request loop copies what is owed to a guest into a buffer of the
	// payload pool, which travels with the Response.
	reply wire.Encoder

	// pinned is the GPU-resident cached model this server holds while idle
	// (or before the owning function adopts it via ModelAttach). Its VMM
	// reservations stay mapped, so it migrates with the server's address
	// space and the pointer survives moves.
	pinned *pinnedModel
}

// pinnedModel is a retained model working set: the allocation a function
// marked with ModelPersist, kept mapped after its Bye.
type pinnedModel struct {
	fnID  string
	ptr   cuda.DevPtr
	bytes int64
}

// session is the state of the one function currently being served.
type session struct {
	fnID     string
	memLimit int64
	used     int64

	tables
	nextVirt uint64
	nextHost uint64

	// mem holds the bytes uploaded with MemWrite, per allocation, so MemRead
	// can return real contents. Free, MemExport and the end of the session
	// drop them with the allocation.
	mem membytes.Store

	persistPtr cuda.DevPtr // allocation to offer to the model cache at Bye

	// bcastPtr/bcastKey root the model-broadcast source this session seeds,
	// deregistered when the pointer is freed or the session ends.
	bcastPtr cuda.DevPtr
	bcastKey string
}

// tables are a session's lookups. The session's end empties them and the
// server keeps them for the next session, which starts on them instead of
// making its own.
type tables struct {
	allocs map[cuda.DevPtr]int64 // base va -> size

	kernelNames []string
	virtFn      map[cuda.FnPtr]string

	// res is the session's resource table: every virtual handle it was
	// handed, of every kind (resources.go).
	res map[uint64]resource

	hostAllocs map[uint64]int64

	// imported maps a session va to the fabric export whose physical memory
	// it shares zero-copy: such pointers are released by detaching the
	// mapping, never by freeing the shared backing.
	imported map[cuda.DevPtr]uint64
}

// reset empties t, keeping what it has grown.
func (t *tables) reset() {
	clear(t.allocs)
	clear(t.kernelNames)
	t.kernelNames = t.kernelNames[:0]
	clear(t.virtFn)
	clear(t.res)
	clear(t.hostAllocs)
	clear(t.imported)
}

var _ gen.API = (*Server)(nil)

// NewServer creates an API server over the GPU server's devices.
func NewServer(e *sim.Engine, rt *cuda.Runtime, cfg Config) *Server {
	return &Server{
		cfg:     cfg,
		rt:      rt,
		libs:    cudalibs.New(cfg.LibCosts),
		Inbox:   sim.NewQueue[remoting.Request](e),
		curDev:  cfg.HomeDev,
		visited: make([]bool, len(rt.Devices())),
	}
}

// ID returns the server's identifier on its GPU server.
func (s *Server) ID() int { return s.cfg.ID }

// HomeDev returns the server's originally assigned GPU.
func (s *Server) HomeDev() int { return s.cfg.HomeDev }

// CurrentDev returns the GPU the server currently executes on.
func (s *Server) CurrentDev() int { return s.curDev }

// Busy reports whether a function session is active.
func (s *Server) Busy() bool { return s.sess != nil }

// Stats returns an activity snapshot for the monitor (step 3 in Fig. 2).
func (s *Server) Stats() Stats {
	st := s.stats
	st.Busy = s.sess != nil
	st.CurrentDev = s.curDev
	if s.sess != nil {
		st.SessionMem = s.sess.used
	}
	return st
}

// Prewarm initializes the CUDA runtime and fills the handle pools. The GPU
// server's manager runs this for every API server it creates, off any
// function's critical path.
func (s *Server) Prewarm(p *sim.Proc) error {
	if s.prewarm {
		return nil
	}
	if err := s.rt.SetDevice(p, s.cfg.HomeDev); err != nil {
		return err
	}
	if err := s.rt.Init(p); err != nil {
		return err
	}
	ctx, err := s.rt.Context(p, s.cfg.HomeDev)
	if err != nil {
		return err
	}
	for k := range s.idle {
		for len(s.idle[k]) < poolSize {
			h, err := s.libs.Create(p, cudalibs.Kind(k), ctx)
			if err != nil {
				return err
			}
			s.idle[k] = append(s.idle[k], h)
		}
	}
	s.prewarm = true
	return nil
}

// Run is the server's request loop. Spawn as a daemon process. If the
// PoolHandles optimization is on, the server pre-warms before serving.
func (s *Server) Run(p *sim.Proc) {
	if s.cfg.PoolHandles {
		if err := s.Prewarm(p); err != nil {
			panic(fmt.Sprintf("apiserver %d: prewarm: %v", s.cfg.ID, err))
		}
	}
	for {
		req, ok := s.Inbox.Recv(p)
		if !ok {
			if s.crashed {
				_ = s.release(p, true) // scavenge: device accounting must end accurate
			}
			return
		}
		if req.Ctrl != nil {
			s.handleCtrl(p, req)
			continue
		}
		s.lease = remoting.LeaseBulk(&req)
		replies, data, bulk := s.handle(p, req)
		s.lease.Recycle()
		if req.PayloadOwned {
			// Handled: nothing decoded from the payload is referenced now.
			wire.PutBuf(req.Payload)
		}
		if !replies || req.ReplyTo == nil {
			continue // one-way submission: no acknowledgement
		}
		payload := append(wire.GetBuf(s.reply.Len()), s.reply.Bytes()...)
		r := remoting.Response{Payload: payload, Pooled: true, RespData: data, Bulk: bulk}
		if bulk != nil && s.sess != nil {
			// A vectored reply's bulk is MemRead's view of the session's
			// bytes: lent until the transport is done with the frame.
			r.Lend = s.sess.mem.Lend()
		}
		// TrySend: the guest's connection may have been severed (fault
		// injection) while the call executed, closing the reply queue.
		if !req.ReplyTo.TrySend(r) {
			r.Release()
		}
	}
}

// Crash kills the API server abruptly, as a process crash would: the inbox
// closes (in-flight guests never get replies; the GPU server's heartbeat
// detects the death), and the run loop releases what the process held on its
// way out — the cleanup the driver performs when a process dies.
func (s *Server) Crash() {
	if s.crashed {
		return
	}
	s.crashed = true
	s.Inbox.Close()
}

// Crashed reports whether fault injection killed this server.
func (s *Server) Crashed() bool { return s.crashed }

// MigrateRequest asks the server to move to another GPU. The monitor sends
// it through the inbox so it executes at an API call boundary. Done, if
// non-nil, receives the migration duration (0 if the move was a no-op).
type MigrateRequest struct {
	TargetDev int
	Done      *sim.Queue[time.Duration]
}

// ResetRequest forcibly ends the current session, releasing all of its
// resources. The TCP front end sends it when a guest connection drops
// without a proper Bye.
type ResetRequest struct {
	Done *sim.Queue[struct{}]
}

// EvictModelRequest asks an idle server to swap its GPU-resident cached
// model out to the host tier, freeing device memory. The monitor sends it
// when a waiting request cannot be placed because of pinned models.
type EvictModelRequest struct {
	Done *sim.Queue[struct{}]
}

// PingRequest is the GPU server's liveness probe. It rides the same FIFO
// inbox as API calls, so an answered ping proves the server's run loop is
// draining requests — not merely that the process exists.
type PingRequest struct {
	Done *sim.Queue[struct{}]
}

func (s *Server) handleCtrl(p *sim.Proc, req remoting.Request) {
	switch c := req.Ctrl.(type) {
	case MigrateRequest:
		from := s.curDev
		d, err := s.Migrate(p, c.TargetDev) // 0 on failure
		if err == nil && s.curDev != from {
			s.stats.Migrations++
			s.stats.MigrationTime += d
		}
		if c.Done != nil {
			c.Done.Send(d)
		}
	case ResetRequest:
		_ = s.Bye(p)
		if c.Done != nil {
			c.Done.Send(struct{}{})
		}
	case EvictModelRequest:
		s.evictPinned(p)
		if c.Done != nil {
			c.Done.Send(struct{}{})
		}
	case PingRequest:
		if c.Done != nil {
			// TrySend: the prober may have timed out and abandoned the probe.
			c.Done.TrySend(struct{}{})
		}
	default:
		panic(fmt.Sprintf("apiserver %d: unknown control message %T", s.cfg.ID, req.Ctrl))
	}
}

// handle executes one wire message (a single call, a batch, an async
// one-way submission or a fence) and leaves the encoded response in s.reply;
// replies is false for a message that gets none. bulk is the reply's bulk
// region, non-nil only for a bulk-response call (MemRead).
func (s *Server) handle(p *sim.Proc, req remoting.Request) (replies bool, data int64, bulk []byte) {
	payload := req.Payload
	s.reply.Reset()
	switch callID(payload) {
	case remoting.CallBatch:
		s.handleBatch(p, payload[2:])
		return true, 0, nil
	case remoting.CallAsync:
		s.handleAsync(p, payload[2:])
		return false, 0, nil
	case remoting.CallFence:
		s.stats.FencesHandled++
		s.reply.I32(s.asyncErr)
		s.asyncErr = 0
		return true, 0, nil
	}
	s.stats.CallsHandled++
	data, bulk = gen.DispatchTo(p, s, &s.reply, payload, req.Bulk)
	return true, data, bulk
}

// callID reads the call ID that opens a message; 0, the reserved ID, for a
// message too short to have one.
func callID(msg []byte) uint16 {
	if len(msg) < 2 {
		return 0
	}
	return binary.LittleEndian.Uint16(msg)
}

// replyStatus reads the status word that opens the response in s.reply.
func (s *Server) replyStatus() int32 {
	return int32(binary.LittleEndian.Uint32(s.reply.Bytes()))
}

// latch records the first error of the pipelined lane.
func (s *Server) latch(code int32) {
	if s.asyncErr == 0 {
		s.asyncErr = code
	}
}

// handleAsync executes a one-way submission: the wrapped message runs like
// any other, but no reply is sent and the first error latches into asyncErr
// until the next fence.
func (s *Server) handleAsync(p *sim.Proc, inner []byte) {
	s.stats.AsyncHandled++
	// Only table-deferrable calls may run one-way: anything result-bearing
	// would silently drop its result here, so reject it instead of executing.
	// That covers the reserved IDs too, which do not nest inside a submission.
	if !gen.CallIsDeferrable(callID(inner)) {
		s.latch(int32(cuda.Code(cuda.ErrInvalidValue)))
		return
	}
	s.handle(p, remoting.Request{Payload: inner})
	s.latch(s.replyStatus())
}

// handleBatch executes the entries of a batch message in order, replying
// with the first error encountered (subsequent entries still execute, like
// asynchronous CUDA work after a sticky error). body is the message after its
// call ID; the entries are dispatched as views of it.
func (s *Server) handleBatch(p *sim.Proc, body []byte) {
	var d wire.Decoder
	d.Reset(body)
	n := int(d.U32())
	s.stats.BatchesHandled++
	firstErr := int32(0)
	for i := 0; i < n && d.Err() == nil; i++ {
		entry := d.BytesShared()
		if d.Err() != nil {
			break
		}
		code := int32(cuda.Code(cuda.ErrInvalidValue))
		// Only table-batchable calls may ride a batch: the batch answers one
		// status, so a result-bearing entry — a MemRead's bytes — would be
		// dropped. It is refused unexecuted, as handleAsync refuses what is
		// not deferrable.
		if gen.CallClass(callID(entry)) == gen.ClassBatchable {
			s.stats.CallsHandled++
			s.reply.Reset()
			gen.DispatchTo(p, s, &s.reply, entry, nil)
			code = s.replyStatus()
		}
		if firstErr == 0 {
			firstErr = code
		}
	}
	if d.Err() != nil && firstErr == 0 {
		firstErr = int32(cuda.Code(cuda.ErrInvalidValue))
	}
	s.reply.Reset()
	s.reply.I32(firstErr)
}

// open is every API method's prologue: the session being served and the
// context on the device the server currently executes on.
func (s *Server) open(p *sim.Proc) (*session, *cuda.Context, error) {
	if s.sess == nil {
		return nil, nil, cuda.ErrNotInitialized
	}
	ctx, err := s.rt.Context(p, s.curDev)
	return s.sess, ctx, err
}

// --- session control ---

// Hello opens a function session. Without the pooling optimization, the
// server selects its home GPU and the CUDA runtime initializes here — on the
// function's critical path, exactly the cost DGSF's pre-initialization
// removes.
func (s *Server) Hello(p *sim.Proc, fnID string, memLimit int64) error {
	return s.begin(p, fnID, memLimit, !s.prewarm)
}

// begin opens a session: with selectHome set, the runtime is pointed at the
// home GPU first (a cudaSetDevice), then initialized unless it already is.
func (s *Server) begin(p *sim.Proc, fnID string, memLimit int64, selectHome bool) error {
	if s.sess != nil {
		return cuda.ErrInitializationError
	}
	s.asyncErr = 0 // a fresh session starts with a clean pipeline

	if selectHome {
		if err := s.rt.SetDevice(p, s.cfg.HomeDev); err != nil {
			return err
		}
	}
	if err := s.rt.Init(p); err != nil {
		return err
	}
	// A different function is moving in: stage the previous tenant's cached
	// model out to the host tier so the session's declared memory limit has
	// the device to itself.
	if s.pinned != nil && s.pinned.fnID != fnID {
		s.evictPinned(p)
	}
	t := s.spare
	s.spare = tables{}
	if t.allocs == nil {
		t = tables{
			allocs:     make(map[cuda.DevPtr]int64),
			virtFn:     make(map[cuda.FnPtr]string),
			res:        make(map[uint64]resource),
			hostAllocs: make(map[uint64]int64),
			imported:   make(map[cuda.DevPtr]uint64),
		}
	}
	s.sess = &session{fnID: fnID, memLimit: memLimit, tables: t}
	return nil
}

// Bye ends the session the orderly way: pending work drains, everything the
// function owned is released with pooled handles going back to the pool, the
// server returns to its home GPU if the monitor had moved it (§V-A), and the
// model working set the function marked is kept for its next invocation.
func (s *Server) Bye(p *sim.Proc) error {
	sess, ctx, err := s.open(p)
	if err != nil {
		return err
	}
	_ = ctx.DeviceSynchronize(p)
	// The allocation marked by ModelPersist is withheld from the release
	// walk: it stays mapped as a retention candidate for the model cache, and
	// rides home in the reservation walk of the move.
	var keep *pinnedModel
	if sess.persistPtr != 0 && s.cfg.Cache != nil {
		if size, ok := sess.allocs[sess.persistPtr]; ok {
			keep = &pinnedModel{fnID: sess.fnID, ptr: sess.persistPtr, bytes: size}
			delete(sess.allocs, sess.persistPtr)
			sess.used -= size
		}
	}
	if err := s.release(p, false); err != nil {
		return err
	}
	if keep != nil {
		// A pin the function never adopted this session (it skipped
		// ModelAttach) cannot coexist with the new candidate.
		if s.pinned != nil {
			s.evictPinned(p)
		}
		if s.cfg.Cache.Pin(s.cfg.ID, s.cfg.HomeDev, keep.fnID, keep.bytes) {
			s.pinned = keep
		} else {
			// Device budget exhausted: swap the working set to the host tier
			// at copy-engine bandwidth instead of keeping it on the GPU.
			s.stageOut(p, keep)
		}
	}
	return nil
}

// release is the one way a session ends: Bye, a reset and a crash (the run
// loop scavenging on its way out) differ only in what they do around it. It
// walks what the session holds in a fixed order — allocations, then the
// resource table, replicas by ascending device — because every step may
// charge virtual time other processes observe. Then the server goes home and
// every context it created on the way is destroyed, not only the one it
// stands on: a context left on a GPU it merely visited holds memory the GPU
// server's placement arithmetic never sees. After a crash nothing survives
// the process: library handles are destroyed instead of pooled, the idle pool
// and the pinned model go too, and the server ends where it is.
func (s *Server) release(p *sim.Proc, crash bool) error {
	home := s.cfg.HomeDev
	if sess := s.sess; sess != nil {
		s.sess = nil
		if ctx, err := s.rt.Context(p, s.curDev); err == nil {
			for _, ptr := range sortedKeys(sess.allocs) {
				s.releaseSessionPtr(p, ctx, sess, ptr)
			}
		}
		for _, virt := range sess.ordered() {
			s.destroy(p, sess.res[virt], !crash)
		}
		sess.reset()
		s.spare, sess.tables = sess.tables, tables{}
	}
	if crash {
		if pin := s.pinned; pin != nil {
			s.pinned = nil
			s.cfg.Cache.Unpin(s.cfg.ID)
			if ctx, err := s.rt.Context(p, s.curDev); err == nil {
				_ = ctx.Free(p, pin.ptr)
			}
		}
		for k := range s.idle {
			for _, h := range s.idle[k] {
				_ = s.libs.Destroy(p, cudalibs.Kind(k), h)
			}
			s.idle[k] = nil
		}
		s.curDev = home
	} else if s.curDev != home {
		// Only a retained model (if any) remains mapped, so the move copies
		// at most that.
		if _, err := s.Migrate(p, home); err != nil {
			return err
		}
	}
	for dev, seen := range s.visited {
		if !seen {
			continue
		}
		s.visited[dev] = false
		if ctx, err := s.rt.Context(p, dev); err == nil {
			ctx.Destroy()
		}
	}
	return nil
}

// evictPinned swaps the server's GPU-resident cached model out to the host
// tier (device-to-host at copy-engine bandwidth) and unmaps it.
func (s *Server) evictPinned(p *sim.Proc) {
	pin := s.pinned
	if pin == nil {
		return
	}
	s.pinned = nil
	s.cfg.Cache.Unpin(s.cfg.ID)
	s.cfg.Cache.NoteSwapOut(pin.bytes)
	s.stageOut(p, pin)
}

// stageOut copies a retained model to the host tier and frees its device
// memory.
func (s *Server) stageOut(p *sim.Proc, pin *pinnedModel) {
	if ctx, err := s.rt.Context(p, s.curDev); err == nil {
		_, _ = ctx.MemcpyD2H(p, pin.ptr, pin.bytes)
		_ = ctx.Free(p, pin.ptr)
	}
	s.cfg.Cache.Host().Put(modelcache.StateKey(pin.fnID), pin.bytes)
}

// --- model cache (internal/modelcache) ---

// ModelAttach hands the session a cached copy of its function's model
// working set, if the cache holds one. A GPU-resident pin left by the
// previous invocation on this server is adopted directly into the session's
// allocation table — the model-load phase vanishes. A host-staged copy is
// restored with an allocation plus a host-to-device transfer. The adopted
// bytes count against the session's declared memory limit like any other
// allocation.
func (s *Server) ModelAttach(p *sim.Proc) (cuda.DevPtr, int64, int, error) {
	sess, ctx, err := s.open(p)
	if err != nil {
		return 0, 0, 0, err
	}
	c := s.cfg.Cache
	if c == nil {
		return 0, 0, modelcache.TierMiss, nil
	}
	if pin := s.pinned; pin != nil && pin.fnID == sess.fnID {
		if sess.used+pin.bytes <= sess.memLimit {
			s.pinned = nil
			c.Unpin(s.cfg.ID)
			sess.allocs[pin.ptr] = pin.bytes
			sess.used += pin.bytes
			c.NoteAttach(modelcache.TierDevice)
			return pin.ptr, pin.bytes, modelcache.TierDevice, nil
		}
		// The pin does not fit the declared limit (it must have been made
		// under a larger one); stage it out rather than stranding it.
		s.evictPinned(p)
	}
	key := modelcache.StateKey(sess.fnID)
	if bytes, ok := c.Host().Get(key); ok {
		if ptr, err := s.Malloc(p, bytes); err == nil {
			_ = ctx.MemcpyH2D(p, ptr, gpu.HostBuffer{FP: key.FP, Size: bytes}, bytes)
			c.NoteAttach(modelcache.TierHost)
			return ptr, bytes, modelcache.TierHost, nil
		}
	}
	c.NoteAttach(modelcache.TierMiss)
	return 0, 0, modelcache.TierMiss, nil
}

// ModelPersist marks a session allocation as the function's model working
// set: at Bye the server tries to retain it (GPU-resident, else host-staged)
// instead of freeing it. Without a cache it degenerates to Free, so
// cache-oblivious deployments behave exactly as before.
func (s *Server) ModelPersist(p *sim.Proc, ptr cuda.DevPtr) error {
	sess, _, err := s.open(p)
	if err != nil {
		return err
	}
	if _, ok := sess.allocs[ptr]; !ok {
		return cuda.ErrInvalidValue
	}
	if _, shared := sess.imported[ptr]; shared {
		// A zero-copy import shares fabric-owned memory; the session cannot
		// promise it to the cache beyond its own lifetime.
		return cuda.ErrInvalidValue
	}
	if s.cfg.Cache == nil {
		return s.Free(p, ptr)
	}
	sess.persistPtr = ptr
	return nil
}

// RegisterKernels registers the function's kernels in the current context
// and hands back stable virtual handles; launches translate them to the
// context-local pointers, which migration re-creates on the target GPU.
func (s *Server) RegisterKernels(p *sim.Proc, names []string) ([]cuda.FnPtr, error) {
	sess, ctx, err := s.open(p)
	if err != nil {
		return nil, err
	}
	out := make([]cuda.FnPtr, 0, len(names))
	for _, name := range names {
		// Dispatch decodes the name slice in shared mode: the strings alias
		// the request buffer and die with it, so anything kept in session
		// state must own its bytes.
		name = strings.Clone(name)
		if _, err := ctx.RegisterFunction(p, name); err != nil {
			return nil, err
		}
		sess.kernelNames = append(sess.kernelNames, name)
		sess.nextVirt++
		virt := cuda.FnPtr(0x5000_0000_0000 + sess.nextVirt)
		sess.virtFn[virt] = name
		out = append(out, virt)
	}
	return out, nil
}

// --- device management (virtualized: the function sees one GPU) ---

// GetDeviceCount always answers 1 (§V-B, "Device management functions").
func (s *Server) GetDeviceCount(p *sim.Proc) (int, error) {
	if _, _, err := s.open(p); err != nil {
		return 0, err
	}
	return 1, nil
}

// GetDeviceProperties reports the currently assigned GPU as device 0.
func (s *Server) GetDeviceProperties(p *sim.Proc, dev int) (cuda.DeviceProp, error) {
	if _, _, err := s.open(p); err != nil {
		return cuda.DeviceProp{}, err
	}
	if dev != 0 {
		return cuda.DeviceProp{}, cuda.ErrInvalidDevice
	}
	return s.rt.DeviceProperties(p, s.curDev)
}

// SetDevice accepts only the virtual device 0.
func (s *Server) SetDevice(p *sim.Proc, dev int) error {
	if _, _, err := s.open(p); err != nil {
		return err
	}
	if dev != 0 {
		return cuda.ErrInvalidDevice
	}
	return nil
}

// GetDevice always answers 0.
func (s *Server) GetDevice(p *sim.Proc) (int, error) {
	_, _, err := s.open(p)
	return 0, err
}

// MemGetInfo is scoped to the function's declared memory limit.
func (s *Server) MemGetInfo(p *sim.Proc) (int64, int64, error) {
	sess, _, err := s.open(p)
	if err != nil {
		return 0, 0, err
	}
	return sess.memLimit - sess.used, sess.memLimit, nil
}

// DeviceSynchronize drains all streams in the current context.
func (s *Server) DeviceSynchronize(p *sim.Proc) error {
	_, ctx, err := s.open(p)
	if err != nil {
		return err
	}
	return ctx.DeviceSynchronize(p)
}

// GetLastError reports no error; errors are returned per call on the wire.
func (s *Server) GetLastError(p *sim.Proc) (int, error) { return 0, nil }

// DriverGetVersion reports CUDA 10.2, the driver version the paper's GPU
// servers run.
func (s *Server) DriverGetVersion(p *sim.Proc) (int, error) { return 10020, nil }

// RuntimeGetVersion reports CUDA 10.1, the runtime exposed to functions.
func (s *Server) RuntimeGetVersion(p *sim.Proc) (int, error) { return 10010, nil }

// --- memory management ---

// Malloc allocates through the VMM path (reserve + create + map) and checks
// the function's declared limit: DGSF "knows exactly how much memory an
// application is using and ensures it is not violating its limits" (§V-B).
func (s *Server) Malloc(p *sim.Proc, size int64) (cuda.DevPtr, error) {
	sess, ctx, err := s.open(p)
	if err != nil {
		return 0, err
	}
	if size <= 0 {
		return 0, cuda.ErrInvalidValue
	}
	if sess.used+size > sess.memLimit {
		return 0, cuda.ErrMemoryAllocation
	}
	ptr, err := ctx.Malloc(p, size)
	if err != nil {
		return 0, err
	}
	sess.allocs[ptr] = size
	sess.used += size
	return ptr, nil
}

// Free releases a function allocation. Pointers attached through the data
// plane (zero-copy imports, broadcast sources) carry extra bookkeeping, so
// the release goes through the shared helper.
func (s *Server) Free(p *sim.Proc, ptr cuda.DevPtr) error {
	sess, ctx, err := s.open(p)
	if err != nil {
		return err
	}
	size, ok := sess.allocs[ptr]
	if !ok {
		return cuda.ErrInvalidValue
	}
	s.releaseSessionPtr(p, ctx, sess, ptr)
	delete(sess.allocs, ptr)
	sess.used -= size
	return nil
}

// Memset mirrors cudaMemset.
func (s *Server) Memset(p *sim.Proc, ptr cuda.DevPtr, value byte, size int64) error {
	_, ctx, err := s.open(p)
	if err != nil {
		return err
	}
	return ctx.Memset(p, ptr, value, size)
}

// MemcpyH2D mirrors cudaMemcpy(HostToDevice).
func (s *Server) MemcpyH2D(p *sim.Proc, dst cuda.DevPtr, src gpu.HostBuffer, size int64) error {
	_, ctx, err := s.open(p)
	if err != nil {
		return err
	}
	return ctx.MemcpyH2D(p, dst, src, size)
}

// MemcpyD2H mirrors cudaMemcpy(DeviceToHost).
func (s *Server) MemcpyD2H(p *sim.Proc, src cuda.DevPtr, size int64) (gpu.HostBuffer, error) {
	_, ctx, err := s.open(p)
	if err != nil {
		return gpu.HostBuffer{}, err
	}
	return ctx.MemcpyD2H(p, src, size)
}

// allocOf returns the session allocation that contains ptr, base or
// interior.
func (sess *session) allocOf(ptr cuda.DevPtr) (base cuda.DevPtr, size int64, ok bool) {
	if size, ok := sess.allocs[ptr]; ok {
		return ptr, size, true
	}
	// Allocations do not overlap, so at most one matches whatever the order.
	for base, size := range sess.allocs {
		if ptr > base && uint64(ptr-base) < uint64(size) {
			return base, size, true
		}
	}
	return 0, 0, false
}

// memRange resolves the n bytes at ptr to a session allocation and an offset
// in it, before anything is charged or stored. A pointer outside the
// session's allocations is an address-space error, a range that leaves its
// allocation an invalid value — which is what keeps the host bytes behind a
// session within what it allocated under its declared limit.
func (sess *session) memRange(ptr cuda.DevPtr, n int64) (base cuda.DevPtr, off int64, err error) {
	base, size, ok := sess.allocOf(ptr)
	if !ok {
		return 0, 0, cuda.ErrInvalidAddressSpace
	}
	off, err = membytes.Offset(base, size, ptr, n)
	return base, off, err
}

// MemWrite is the vectored twin of MemcpyH2D: the payload bytes arrive with
// the call, so the server both charges the PCIe upload and keeps them in the
// session's byte store for read-back through MemRead. data is borrowed and
// copied in — the simulated transport's guest-owned slice, a direct caller's
// argument — unless it is the bulk buffer the transport gave away with this
// request, which becomes the allocation's storage as it is; the storage it
// displaces goes back to the transport.
func (s *Server) MemWrite(p *sim.Proc, dst cuda.DevPtr, data []byte) error {
	sess, ctx, err := s.open(p)
	if err != nil {
		return err
	}
	size := int64(len(data))
	base, off, err := sess.memRange(dst, size)
	if err != nil {
		return err
	}
	if err := ctx.MemcpyH2D(p, dst, gpu.HostBuffer{Size: size}, size); err != nil {
		return err
	}
	if owned := s.lease.Claim(data); owned != nil {
		wire.PutBuf(sess.mem.Adopt(base, off, owned))
	} else {
		sess.mem.CopyIn(base, off, data)
	}
	return nil
}

// MemRead is the vectored twin of MemcpyD2H: it charges the PCIe download
// and returns the allocation's bytes at src, zeros where nothing was
// uploaded. The result is a view of the session's byte store, not a copy: a
// direct caller may read it until the next call that writes or frees src,
// and the request loop lends it to a vectored reply (see Run).
func (s *Server) MemRead(p *sim.Proc, src cuda.DevPtr, size int64) ([]byte, error) {
	sess, ctx, err := s.open(p)
	if err != nil {
		return nil, err
	}
	base, off, err := sess.memRange(src, size)
	if err != nil {
		return nil, err
	}
	if _, err := ctx.MemcpyD2H(p, src, size); err != nil {
		return nil, err
	}
	return sess.mem.View(base, off, size), nil
}

// MemcpyD2D mirrors cudaMemcpy(DeviceToDevice).
func (s *Server) MemcpyD2D(p *sim.Proc, dst, src cuda.DevPtr, size int64) error {
	_, ctx, err := s.open(p)
	if err != nil {
		return err
	}
	return ctx.MemcpyD2D(p, dst, src, size)
}

// MallocHost emulates pinned host allocation server-side (the optimized
// guest never forwards it).
func (s *Server) MallocHost(p *sim.Proc, size int64) (uint64, error) {
	sess, _, err := s.open(p)
	if err != nil {
		return 0, err
	}
	sess.nextHost++
	ptr := 0x6100_0000_0000 + sess.nextHost<<12
	sess.hostAllocs[ptr] = size
	return ptr, nil
}

// FreeHost mirrors cudaFreeHost.
func (s *Server) FreeHost(p *sim.Proc, ptr uint64) error {
	sess, _, err := s.open(p)
	if err != nil {
		return err
	}
	if _, ok := sess.hostAllocs[ptr]; !ok {
		return cuda.ErrInvalidValue
	}
	delete(sess.hostAllocs, ptr)
	return nil
}

// PointerGetAttributes answers from the session allocation table.
func (s *Server) PointerGetAttributes(p *sim.Proc, ptr cuda.DevPtr) (cuda.PtrAttributes, error) {
	sess, _, err := s.open(p)
	if err != nil {
		return cuda.PtrAttributes{}, err
	}
	if _, size, ok := sess.allocOf(ptr); ok {
		return cuda.PtrAttributes{Device: 0, Size: size, IsDevice: true}, nil
	}
	return cuda.PtrAttributes{}, cuda.ErrInvalidValue
}

// --- execution ---

// PushCallConfiguration is accepted for unoptimized guests; the
// configuration is implicit in the subsequent launch.
func (s *Server) PushCallConfiguration(p *sim.Proc, grid, block [3]int, stream cuda.StreamHandle) error {
	_, _, err := s.open(p)
	return err
}

// PopCallConfiguration matches PushCallConfiguration.
func (s *Server) PopCallConfiguration(p *sim.Proc) error {
	_, _, err := s.open(p)
	return err
}

// LaunchKernel translates the virtual function pointer and stream handle to
// the current context's and enqueues the kernel.
func (s *Server) LaunchKernel(p *sim.Proc, lp cuda.LaunchParams) error {
	sess, ctx, err := s.open(p)
	if err != nil {
		return err
	}
	name, ok := sess.virtFn[lp.Fn]
	if !ok {
		return cuda.ErrInvalidFunction
	}
	if lp.Fn, err = ctx.FunctionPtr(name); err != nil {
		return err
	}
	if lp.Stream, err = s.stream(lp.Stream); err != nil {
		return err
	}
	s.stats.Kernels++
	return ctx.LaunchKernel(p, lp)
}

// StreamCreate creates a stream and returns a stable virtual handle.
func (s *Server) StreamCreate(p *sim.Proc) (cuda.StreamHandle, error) {
	return create[cuda.StreamHandle](s, p, kStream, 0)
}

// StreamDestroy destroys the stream in every context holding a replica.
func (s *Server) StreamDestroy(p *sim.Proc, h cuda.StreamHandle) error {
	return s.drop(p, kStream, uint64(h))
}

// StreamSynchronize synchronizes the stream in the current context.
func (s *Server) StreamSynchronize(p *sim.Proc, h cuda.StreamHandle) error {
	_, ctx, err := s.open(p)
	if err != nil {
		return err
	}
	real, err := s.stream(h)
	if err != nil {
		return err
	}
	return ctx.StreamSynchronize(p, real)
}

// EventCreate creates an event behind a stable virtual handle.
func (s *Server) EventCreate(p *sim.Proc) (cuda.EventHandle, error) {
	return create[cuda.EventHandle](s, p, kEvent, 0)
}

// EventDestroy destroys the event in every context holding a replica.
func (s *Server) EventDestroy(p *sim.Proc, h cuda.EventHandle) error {
	return s.drop(p, kEvent, uint64(h))
}

// EventRecord records the event on the translated stream.
func (s *Server) EventRecord(p *sim.Proc, h cuda.EventHandle, stream cuda.StreamHandle) error {
	_, ctx, err := s.open(p)
	if err != nil {
		return err
	}
	real, err := s.real(kEvent, uint64(h))
	if err != nil {
		return err
	}
	realStream, err := s.stream(stream)
	if err != nil {
		return err
	}
	return ctx.EventRecord(p, cuda.EventHandle(real), realStream)
}

// EventSynchronize waits for the translated event.
func (s *Server) EventSynchronize(p *sim.Proc, h cuda.EventHandle) error {
	_, ctx, err := s.open(p)
	if err != nil {
		return err
	}
	real, err := s.real(kEvent, uint64(h))
	if err != nil {
		return err
	}
	return ctx.EventSynchronize(p, cuda.EventHandle(real))
}

// EventElapsed reports time between two translated events.
func (s *Server) EventElapsed(p *sim.Proc, start, end cuda.EventHandle) (time.Duration, error) {
	_, ctx, err := s.open(p)
	if err != nil {
		return 0, err
	}
	rs, err := s.real(kEvent, uint64(start))
	if err != nil {
		return 0, err
	}
	re, err := s.real(kEvent, uint64(end))
	if err != nil {
		return 0, err
	}
	return ctx.EventElapsed(p, cuda.EventHandle(rs), cuda.EventHandle(re))
}
