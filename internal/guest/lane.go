package guest

import (
	"fmt"
	"sync"
	"unsafe"

	"dgsf/internal/cuda"
	"dgsf/internal/cudalibs"
	"dgsf/internal/gpu"
	"dgsf/internal/remoting"
	"dgsf/internal/remoting/gen"
	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

// The call path. Every forwarded call leaves on one of three lanes:
//
//   - sync: flush the pending batch, fence the pipelined lane, then one
//     round trip whose reply the caller waits for (sync, call);
//   - batch: deferred, shipped inside one CallBatch round trip by the next
//     flush (OptBatching);
//   - async: submitted one-way inside a CallAsync envelope, acknowledged in
//     bulk by the next CallFence (OptAsync).
//
// Result-bearing calls always take the sync lane. The eleven result-free
// calls go through submit, which asks laneOf.

// maxAsyncWindow bounds the guest-tracked in-flight depth of the pipelined
// lane; hitting it forces a fence so an unbounded burst of one-way
// submissions cannot run arbitrarily far ahead of the server. It is sized
// above the launch bursts real inference loops produce (hundreds per batch):
// a mid-burst fence would reintroduce exactly the round trip the lane hides.
const maxAsyncWindow = 512

type lane uint8

const (
	laneSync lane = iota
	laneBatch
	laneAsync
)

// laneOf is the one place a result-free call's lane is chosen: from the tier
// bits and the generated call tables. While the pipelined lane is on it
// takes every deferrable call and nothing is batched — so Free, batchable
// but not deferrable, fences there, and MemcpyH2D, deferrable but classed
// remote, is never batched.
func (l *Lib) laneOf(id uint16) lane {
	switch {
	case l.opt&OptAsync != 0 && l.async != nil:
		if gen.CallIsDeferrable(id) {
			return laneAsync
		}
	case l.batching() && gen.CallClass(id) == gen.ClassBatchable:
		return laneBatch
	}
	return laneSync
}

// op is one result-free call in data form: what a deferrable method hands to
// submit, what the pending batch and the unfenced window hold until the
// server has confirmed it, and what encodeOp turns into wire bytes — at send
// time, so a call deferred before a recovery is encoded against the session
// that receives it. Only the fields its call uses are set. lp.Mutates is
// borrowed from the application until the call is confirmed.
type op struct {
	id      uint16
	ptr     cuda.DevPtr       // Free, Memset: the allocation; MemcpyH2D: the destination
	handle  uint64            // the stream, event, cuDNN or cuBLAS handle the call is about
	stream  cuda.StreamHandle // EventRecord and the SetStream pair: the stream bound
	value   byte              // Memset
	size    int64             // Memset, MemcpyH2D: bytes
	src     gpu.HostBuffer    // MemcpyH2D
	reqData int64             // logical payload riding with the request
	lp      cuda.LaunchParams // LaunchKernel
}

// encodeOp appends o's call message, translating guest-virtual handles to
// the current session's.
func (l *Lib) encodeOp(e *wire.Encoder, o *op) {
	switch o.id {
	case gen.CallFree:
		gen.AppendFreeCall(e, l.xp(o.ptr))
	case gen.CallMemset:
		gen.AppendMemsetCall(e, l.xp(o.ptr), o.value, o.size)
	case gen.CallMemcpyH2D:
		gen.AppendMemcpyH2DCall(e, l.xp(o.ptr), o.src, o.size)
	case gen.CallLaunchKernel:
		gen.AppendLaunchKernelCall(e, l.xlp(o.lp))
	case gen.CallStreamDestroy:
		gen.AppendStreamDestroyCall(e, xh(l, cuda.StreamHandle(o.handle)))
	case gen.CallEventDestroy:
		gen.AppendEventDestroyCall(e, xh(l, cuda.EventHandle(o.handle)))
	case gen.CallEventRecord:
		gen.AppendEventRecordCall(e, xh(l, cuda.EventHandle(o.handle)), xh(l, o.stream))
	case gen.CallDnnDestroy:
		gen.AppendDnnDestroyCall(e, xh(l, cudalibs.DNNHandle(o.handle)))
	case gen.CallDnnSetStream:
		gen.AppendDnnSetStreamCall(e, xh(l, cudalibs.DNNHandle(o.handle)), xh(l, o.stream))
	case gen.CallBlasDestroy:
		gen.AppendBlasDestroyCall(e, xh(l, cudalibs.BLASHandle(o.handle)))
	case gen.CallBlasSetStream:
		gen.AppendBlasSetStreamCall(e, xh(l, cudalibs.BLASHandle(o.handle)), xh(l, o.stream))
	default:
		panic(fmt.Sprintf("guest: %s (call %d) has no deferred form", gen.CallName(o.id), o.id))
	}
}

// confirmed is a recoverable library's journal bookkeeping for a call the
// server has executed: synchronously, or covered by a successful flush or
// fence. Releases retire what they released only now — until then a
// recovered session must still rebuild it for the pending release to find —
// and the state-establishing calls are journaled only now.
func (l *Lib) confirmed(o *op) {
	if l.rec == nil {
		return
	}
	switch o.id {
	case gen.CallFree:
		l.dropPtrEntries(o.ptr)
	case gen.CallStreamDestroy, gen.CallEventDestroy, gen.CallDnnDestroy, gen.CallBlasDestroy:
		l.forget(o.handle)
	case gen.CallMemcpyH2D:
		dst, src, size := o.ptr, o.src, o.size
		l.journalPut(jkey{kind: jUpload, id: uint64(dst), size: size}, func(p *sim.Proc) error {
			return l.cl.MemcpyH2D(p, l.xp(dst), src, size)
		})
	case gen.CallDnnSetStream:
		h, s := cudalibs.DNNHandle(o.handle), o.stream
		l.journalPut(jkey{kind: jStream, id: o.handle}, func(p *sim.Proc) error {
			return l.cl.DnnSetStream(p, xh(l, h), xh(l, s))
		})
	case gen.CallBlasSetStream:
		h, s := cudalibs.BLASHandle(o.handle), o.stream
		l.journalPut(jkey{kind: jStream, id: o.handle}, func(p *sim.Proc) error {
			return l.cl.BlasSetStream(p, xh(l, h), xh(l, s))
		})
	}
}

// submit forwards one result-free call on the lane laneOf picks for it.
func (l *Lib) submit(p *sim.Proc, o *op) error {
	switch l.laneOf(o.id) {
	case laneAsync:
		return l.submitAsync(p, o)
	case laneBatch:
		l.stats.Total++
		l.stats.Batched++
		if l.batch == nil {
			l.batch = takeBatch()
		}
		l.batch.ops = append(l.batch.ops, *o)
		return nil
	}
	err := l.sync(p, func(p *sim.Proc) error {
		code, err := l.roundtripStatus(p, o.reqData, func(e *wire.Encoder) { l.encodeOp(e, o) })
		if err == nil {
			err = cuda.FromCode(code)
		}
		return err
	})
	if err == nil {
		l.confirmed(o)
	}
	return err
}

// sync runs fn as one synchronous forwarded call. Any pending batch is
// flushed and the pipelined lane is drained first, so the server observes
// calls in program order and latched asynchronous errors surface before the
// call runs. Non-fault errors (CUDA status codes) pass through untouched; a
// transport fault that recovery cannot cure — or any, on a non-recoverable
// library — surfaces as cudaErrorDevicesUnavailable, what a native runtime
// reports when its device disappears.
func (l *Lib) sync(p *sim.Proc, fn func(p *sim.Proc) error) error {
	l.FlushBatch(p)
	l.fence(p)
	l.stats.Total++
	l.stats.Remoted++
	if l.lost {
		return cuda.ErrDevicesUnavailable
	}
	err := l.attempt(p, maxCallRecoveries, fn)
	if err != nil && remoting.IsConnFault(err) {
		l.lastError = int(cuda.ErrDevicesUnavailable)
		return cuda.ErrDevicesUnavailable
	}
	return err
}

// call is sync for a call that returns a result.
func call[R any](l *Lib, p *sim.Proc, fn func(p *sim.Proc) (R, error)) (R, error) {
	var r R
	err := l.sync(p, func(p *sim.Proc) (err error) {
		r, err = fn(p)
		return
	})
	return r, err
}

// attempt runs one wire exchange. On a recoverable library an exchange that
// dies of a connection fault is re-run on the recovered session, through at
// most budget recovery episodes; anywhere else it runs once.
func (l *Lib) attempt(p *sim.Proc, budget int, do func(p *sim.Proc) error) error {
	err := do(p)
	for n := 0; n < budget && err != nil && l.rec != nil && !l.recovering && !l.lost && remoting.IsConnFault(err); n++ {
		if l.recoverSession(p) != nil {
			break
		}
		err = do(p)
	}
	return err
}

// roundtripStatus sends the message app encodes, in a pooled encoder, and
// returns the status code that opens its reply.
func (l *Lib) roundtripStatus(p *sim.Proc, reqData int64, app func(e *wire.Encoder)) (int, error) {
	enc := wire.GetEncoder()
	app(enc)
	resp, err := l.cl.T.Roundtrip(p, enc.Bytes(), reqData)
	if err != nil {
		// The transport may still hold the request; drop the encoder.
		return 0, err
	}
	wire.PutEncoder(enc)
	return replyStatus(resp)
}

// replyStatus decodes the status code that opens every reply: a call's CUDA
// status, a batch's first failure, a fence's latched asynchronous error.
func replyStatus(resp []byte) (int, error) {
	d := wire.GetDecoder(resp)
	code := int(d.I32())
	err := d.Err()
	wire.PutDecoder(d)
	return code, err
}

// faultCode is the sticky error a transport fault leaves behind on the
// deferred lanes.
func (l *Lib) faultCode() int {
	if l.rec != nil {
		return int(cuda.ErrDevicesUnavailable)
	}
	return -1
}

// batch is a pending batch's storage: the deferred ops, and the encoder
// their CallBatch message is built in. It outlives the library that filled
// it — the flush gives it back to the free list — so a fresh library's batch
// fills a slice and an encoder that earlier batches have already grown.
type batch struct {
	ops []op
	enc wire.Encoder
}

// size is the memory b keeps while it waits in the free list.
func (b *batch) size() int { return cap(b.ops)*int(unsafe.Sizeof(op{})) + cap(b.enc.Bytes()) }

// What the free list of batches keeps. A batch is taken only while a
// function has calls deferred, so live functions bound how many are out at
// once; a batch of 512 launches keeps ≈ 150 KB.
const (
	maxFreeBatches    = 16
	maxFreeBatchBytes = 4 << 20
)

// batches is the free list of batch storage. Like the wire payload pool it is
// a plain list under a lock, not a sync.Pool: the collector does not empty
// it, so a run's allocation count repeats from run to run.
var batches struct {
	mu    sync.Mutex
	free  [maxFreeBatches]*batch
	n     int
	bytes int
}

// takeBatch returns empty batch storage, from the free list when it has any.
func takeBatch() *batch {
	batches.mu.Lock()
	defer batches.mu.Unlock()
	if batches.n == 0 {
		return new(batch)
	}
	batches.n--
	b := batches.free[batches.n]
	batches.free[batches.n] = nil
	batches.bytes -= b.size()
	return b
}

// putBatch gives b back once its flush is over. Its ops are cleared first, so
// that the application's borrowed Mutates slices are not kept reachable.
// Storage the list has no room for is left to the collector.
func putBatch(b *batch) {
	clear(b.ops)
	b.ops = b.ops[:0]
	n := b.size()
	batches.mu.Lock()
	defer batches.mu.Unlock()
	if batches.n < maxFreeBatches && batches.bytes+n <= maxFreeBatchBytes {
		batches.free[batches.n] = b
		batches.n++
		batches.bytes += n
	}
}

// FlushBatch ships the pending batch, if any, as one round trip; after a
// recovery the whole batch is encoded again and retried (batched calls are
// the idempotent kind). Errors from batched calls surface through
// GetLastError, like asynchronous CUDA errors.
func (l *Lib) FlushBatch(p *sim.Proc) {
	b := l.batch
	if b == nil {
		return
	}
	l.stats.Batches++
	var code int
	err := l.attempt(p, maxCallRecoveries, func(p *sim.Proc) error {
		b.enc.Reset()
		l.encodeBatch(&b.enc, b.ops)
		resp, err := l.cl.T.Roundtrip(p, b.enc.Bytes(), 0)
		if err != nil {
			// The transport may still hold the request: its bytes stay
			// with it, and a retry encodes into fresh ones.
			b.enc = wire.Encoder{}
			return err
		}
		code, err = replyStatus(resp)
		return err
	})
	if err != nil {
		l.lastError = l.faultCode()
	} else {
		for i := range b.ops {
			l.confirmed(&b.ops[i])
		}
		if code != 0 {
			l.lastError = code
		}
	}
	l.batch = nil
	putBatch(b)
}

// encodeBatch appends the CallBatch message of ops: a count, then each call
// as a length-prefixed field, encoded in place.
func (l *Lib) encodeBatch(e *wire.Encoder, ops []op) {
	e.U16(remoting.CallBatch)
	e.U32(uint32(len(ops)))
	for i := range ops {
		at := e.OpenField()
		l.encodeOp(e, &ops[i])
		e.CloseField(at)
	}
}

// submitAsync fires one call down the transport's pipelined lane without
// waiting for an acknowledgement. Errors latch server-side and surface at
// the next fence.
func (l *Lib) submitAsync(p *sim.Proc, o *op) error {
	if l.asyncInFlight >= maxAsyncWindow {
		l.fence(p)
	}
	if l.rec != nil {
		if l.lost {
			return cuda.ErrDevicesUnavailable
		}
		// Bounded staleness: the lane must not run blind past FenceLag, or
		// a dead server would be discovered arbitrarily late.
		if l.rec.FenceLag > 0 && len(l.unfenced) > 0 && p.Now()-l.oldestUnfenced > l.rec.FenceLag {
			l.fence(p)
		}
	}
	l.stats.Total++
	l.stats.Async++
	if err := l.attempt(p, 1, func(p *sim.Proc) error { return l.send(p, o) }); err != nil {
		l.lastError = l.faultCode()
		if l.rec != nil {
			return cuda.ErrDevicesUnavailable
		}
		return err
	}
	l.asyncInFlight++
	if l.rec != nil {
		if len(l.unfenced) == 0 {
			l.oldestUnfenced = p.Now()
		}
		l.unfenced = append(l.unfenced, *o)
	}
	return nil
}

// send puts one call on the pipelined lane. The message outlives the call, so
// it leaves in a buffer of the payload pool: Submit takes it, and whoever
// consumes the message returns it.
func (l *Lib) send(p *sim.Proc, o *op) error {
	// Only table-deferrable calls may ride the one-way lane; a result-bearing
	// call submitted here would lose its result. laneOf and the asyncsafe
	// analyzer keep the static paths honest — this guard catches a
	// dynamically built submission that slips past them, before a buffer is
	// taken for it.
	if !gen.CallIsDeferrable(o.id) {
		panic(fmt.Sprintf("guest: %s (call %d) submitted async but not in gen.DeferrableCalls", gen.CallName(o.id), o.id))
	}
	l.scratch.Reset()
	l.scratch.Grow(scratchSize)
	l.scratch.U16(remoting.CallAsync)
	l.encodeOp(&l.scratch, o)
	msg := append(wire.GetBuf(l.scratch.Len()), l.scratch.Bytes()...)
	return l.async.Submit(p, msg, o.reqData)
}

// fence drains the pipelined lane: a CallFence round trip whose FIFO
// position guarantees every prior submission has executed, and whose reply
// carries the first latched asynchronous error. A no-op with nothing in
// flight, so tiers without OptAsync are unaffected. A recovery inside the
// fence re-sends the unfenced window before the fence is retried.
func (l *Lib) fence(p *sim.Proc) {
	if l.asyncInFlight == 0 {
		return
	}
	l.stats.Fences++
	var code int
	err := l.attempt(p, maxCallRecoveries, func(p *sim.Proc) (err error) {
		code, err = l.roundtripStatus(p, 0, func(e *wire.Encoder) { e.U16(remoting.CallFence) })
		return
	})
	l.asyncInFlight = 0
	l.clearUnfenced(err == nil)
	if err != nil {
		l.lastError = l.faultCode()
	} else if code != 0 && l.lastError == 0 {
		l.lastError = code
	}
}
