// Package remoting implements the DGSF API remoting protocol: message
// framing, the transport abstraction between guest libraries and API
// servers, and the network cost model.
//
// Two transports exist. The simulated transport carries calls between
// simulated processes inside one engine, charging virtual time according to
// a NetProfile (round-trip latency plus bandwidth-limited transfer of
// logical payload bytes); every experiment uses it. The TCP transport
// (tcp.go) carries the same framed messages over real sockets and exists to
// demonstrate that the remoting stack is a real protocol, not a mock.
package remoting

import (
	"errors"
	"fmt"
	"time"

	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

// CallBatch is the reserved call ID for a batch container message: a batch
// payload is a sequence of length-prefixed encoded calls executed in order
// with a single acknowledgement — DGSF's "accumulate locally and send in
// batches" optimization (§V-C).
const CallBatch uint16 = 0xFFFF

// CallAsync is the reserved call ID wrapping a one-way submission: the
// payload after the ID is a complete call (or batch) message that the API
// server executes without sending a reply. The server latches the first
// error; a later CallFence surfaces it — the same sticky semantics CUDA
// gives asynchronous kernel launches.
const CallAsync uint16 = 0xFFFE

// CallFence is the reserved call ID for the pipelined lane's fence: a normal
// round trip whose FIFO position guarantees every prior async submission has
// executed. The reply is a single int32 carrying the latched async error
// (0 if none), which the fence clears.
const CallFence uint16 = 0xFFFD

// NetProfile models the network between a function's execution environment
// and the GPU server.
type NetProfile struct {
	RTT        time.Duration // request/response round-trip latency
	Bps        float64       // payload bandwidth, bytes/s
	JitterFrac float64       // multiplicative uniform jitter on transfer time
}

// OpenFaaSNet models the paper's primary deployment: two p3.8xlarge
// instances in one placement group with up to 10 Gbps between them.
func OpenFaaSNet() NetProfile {
	return NetProfile{RTT: 200 * time.Microsecond, Bps: 1.15e9, JitterFrac: 0.02}
}

// LambdaNet models the AWS Lambda deployment: the paper attributes its NLP
// and image-classification slowdowns to lower bandwidth and larger variance.
func LambdaNet() NetProfile {
	return NetProfile{RTT: 300 * time.Microsecond, Bps: 0.35e9, JitterFrac: 0.25}
}

// transferTime returns the virtual time to move bytes over the profile.
func (n NetProfile) transferTime(rng interface{ Float64() float64 }, bytes int64) time.Duration {
	if bytes <= 0 || n.Bps <= 0 {
		return 0
	}
	t := float64(bytes) / n.Bps * float64(time.Second)
	if n.JitterFrac > 0 {
		t *= 1 + n.JitterFrac*(2*rng.Float64()-1)
	}
	return time.Duration(t)
}

// Caller is the guest-side transport handle: one request/response exchange
// with the API server. reqData is the logical payload size riding along with
// the request (e.g. the bytes of a host-to-device memcpy) — it is charged
// against bandwidth in addition to the encoded message itself.
//
// The returned resp is owned by the transport and valid only until its
// caller's next call on the same Caller or — where simulated processes share
// a connection — until that caller next parks: transports reuse the reply
// buffer across round trips, or return it to the payload pool it came from.
// Callers must decode (copying what they keep) before issuing another call or
// blocking — the generated Client does.
type Caller interface {
	Roundtrip(p *sim.Proc, req []byte, reqData int64) (resp []byte, err error)
	Close()
}

// DeadlineCaller is a Caller that can bound its round trips: if no reply
// arrives within d of (virtual or wall) time, the call fails with
// ErrCallTimeout and the connection is torn down — a late reply can no
// longer be matched to its request, so the transport must not be reused.
// Both built-in transports implement it; the guest's failure detector sets
// its per-call deadline on every connection it adopts.
type DeadlineCaller interface {
	Caller
	// RoundtripTimeout is Roundtrip bounded by d for this one call.
	RoundtripTimeout(p *sim.Proc, req []byte, reqData int64, d time.Duration) (resp []byte, err error)
	// SetCallDeadline bounds every later Roundtrip and RoundtripVec on the
	// connection by d (0 lifts the bound).
	SetCallDeadline(d time.Duration)
}

// Faultable is the fault-injection surface of the simulated transport. The
// faults framework (internal/faults) uses it to model peer death, link
// stalls, and frame corruption deterministically.
type Faultable interface {
	// Break severs the connection as if the peer died: pending and future
	// calls fail with ErrConnClosed, and nothing further reaches the
	// listener.
	Break()
	// StallFor delays the next outbound message by d, modeling a transient
	// link stall (e.g. a routing flap) without killing the connection.
	StallFor(d time.Duration)
	// CorruptNext makes the next outbound message fail framing validation:
	// the call charges its transfer time, then fails with an error wrapping
	// ErrFrameCorrupt, and the connection breaks (a corrupt stream cannot
	// be resynchronized).
	CorruptNext()
}

// AsyncCaller is a Caller with a pipelined submission lane. Submit fires a
// one-way message (normally a CallAsync-wrapped call) without waiting for an
// acknowledgement; the transport guarantees FIFO ordering between Submit and
// Roundtrip, so a subsequent Roundtrip — in particular a CallFence — acts as
// a fence that drains the lane. Both built-in transports implement it; test
// doubles that only implement Caller degrade the guest to synchronous calls.
//
// Submit takes req for good, whether or not it succeeds: the message outlives
// the call, so the sender encodes it into a buffer it will not touch again —
// one from the payload pool (wire.GetBuf) — and whoever consumes the message
// returns that buffer there: the API server once it has handled the request,
// the TCP caller once the bytes are in a frame. A consumer that never does (a
// message dropped on a dead wire, a test double) costs a buffer, not safety.
type AsyncCaller interface {
	Caller
	Submit(p *sim.Proc, req []byte, reqData int64) error
}

// VecCaller is a Caller with the vectored bulk lane. Generated stubs for
// calls carrying a trailing bulk []byte use it; on a transport without it
// they inline the bulk into the encoded payload.
//
// Ownership: reqBulk is borrowed by the transport only for the duration of
// the call — it is sent without copying and belongs to the caller again when
// RoundtripVec returns. A reply bulk region is scatter-read into respDst
// when it fits (respBulk then aliases respDst); otherwise a fresh buffer is
// returned. resp follows the usual Caller reply contract.
type VecCaller interface {
	Caller
	ProtoVersion() int // always ProtoV2; bench/ forwards it until ROADMAP item 1a

	RoundtripVec(p *sim.Proc, req, reqBulk, respDst []byte) (resp, respBulk []byte, err error)
}

// Request is one in-flight call as seen by an API server. Control messages
// from the GPU server's monitor (e.g. migration requests) ride the same FIFO
// with Ctrl set and Payload nil, which is what confines them to API call
// boundaries.
type Request struct {
	Payload []byte
	// PayloadOwned reports that Payload is the handler's to dispose of: a
	// one-way submission's buffer (AsyncCaller.Submit), or one a bridge read
	// off a socket. Once the request is handled — nothing the handler decoded
	// from it in shared mode is referenced any longer — the handler returns
	// it with wire.PutBuf. When false, Payload is borrowed from a sender that
	// is blocked on the reply.
	PayloadOwned bool
	ReqData      int64
	ReplyTo      *sim.Queue[Response]
	Profile      NetProfile // so the server charges response transfer symmetrically
	Ctrl         any        // non-nil for monitor control messages

	// Bulk is the request's vectored bulk region: the raw bytes of a
	// trailing bulk argument, delivered outside the encoded payload. nil
	// when the call carries no bulk (or inlined it). BulkOwned says whose it
	// is.
	Bulk []byte
	// BulkOwned reports that Bulk is the handler's property: the transport
	// read it off the socket into a buffer of its own and gave that away
	// with the request (the TCP bridge does). The handler may keep it —
	// install it as storage, copying nothing — and gives every buffer it
	// does not keep, Bulk itself or one Bulk displaced, back through
	// RecycleBulk once the request is handled; LeaseBulk does the
	// bookkeeping. When false, Bulk is borrowed from the sender for the
	// duration of the call (the simulated transport passes the guest's own
	// slice through) and a handler copies what it retains.
	BulkOwned bool
}

// Response carries an encoded reply plus the logical payload bytes flowing
// back to the guest (e.g. a device-to-host memcpy result).
type Response struct {
	Payload []byte
	// Pooled reports that Payload is a buffer of the wire payload pool that
	// travels with the response: Release returns it. Whoever holds the
	// response reads Payload before that and keeps no reference to it after.
	Pooled   bool
	RespData int64

	// Bulk is the reply's vectored bulk region. With Lend set
	// it is a read-only view of storage the producer keeps — a session's
	// bytes, returned by MemRead without a copy — lent to the transport
	// until it calls Release: once, after the reply frame is written or
	// when the reply is dropped, and it keeps no reference to Bulk past
	// that. With Lend nil the bytes are the response's own.
	Bulk []byte
	// Lend ends the lend of Bulk; nil when Bulk is not lent.
	Lend Lend
}

// Lend is the producer's handle on a lent Response.Bulk. While a lend is
// outstanding the producer neither changes the bytes nor reuses their
// buffer, so a transport that never releases costs memory, not safety.
type Lend interface{ Release() }

// Release ends the response: the lend of r.Bulk, if there is one, and a
// pooled Payload goes back to its pool. Whoever takes a Response off a reply
// queue, or fails to put it on one, calls it exactly once — a server's
// transport after the reply frame is written or dropped, a guest's when the
// reply's caller can no longer be reading it.
func (r Response) Release() {
	if r.Lend != nil {
		r.Lend.Release()
	}
	if r.Pooled {
		wire.PutBuf(r.Payload)
	}
}

// BulkLease is a handler's hold on the bulk buffer a transport gave it with
// a request (Request.BulkOwned). The handler opens it before dispatching,
// lets the call that can use the buffer Claim it, and Recycles afterwards —
// which returns an unclaimed buffer to the transport's pool.
type BulkLease struct{ buf []byte }

// LeaseBulk opens the lease on req's bulk region; it is empty when the
// region is borrowed or absent.
func LeaseBulk(req *Request) BulkLease {
	if !req.BulkOwned {
		return BulkLease{}
	}
	return BulkLease{buf: req.Bulk}
}

// Claim tells a call handler whether data — the bulk argument the dispatcher
// passed it — is the leased buffer. If so the lease ends and the buffer comes
// back as the handler's own, to keep or to RecycleBulk; if not, data is
// borrowed and Claim returns nil.
func (l *BulkLease) Claim(data []byte) []byte {
	if len(data) == 0 || len(l.buf) == 0 || &data[0] != &l.buf[0] {
		return nil
	}
	l.buf = nil
	return data
}

// Recycle ends the lease, returning a buffer nobody claimed to the pool.
func (l *BulkLease) Recycle() {
	RecycleBulk(l.buf)
	l.buf = nil
}

// Listener is the server-side endpoint of the simulated transport.
type Listener struct {
	Incoming *sim.Queue[Request]

	// idleReplies are the reply queues of round trips that ran to completion
	// on any connection to the listener, kept for the next ones: a fresh
	// connection's first call takes one instead of allocating its own. Each
	// is empty and open — a queue that was failed, or whose reply was never
	// taken, is not kept.
	idleReplies []*sim.Queue[Response]
}

// NewListener returns a listener bound to engine e.
func NewListener(e *sim.Engine) *Listener {
	return &Listener{Incoming: sim.NewQueue[Request](e)}
}

// simConn implements AsyncCaller over a Listener within one engine.
type simConn struct {
	e       *sim.Engine
	l       *Listener
	profile NetProfile
	closed  bool

	// inflight tracks the per-call reply queues of outstanding round
	// trips, in call order. Each call carries its own queue as ReplyTo,
	// so replies are matched to their callers even when several simulated
	// processes share the connection (a store watch pump's long-poll
	// overlapping CRUD). The queues come from the listener's idle ones.
	// Break/Close fail every outstanding call by closing them all — a
	// slice, not a map, so the wake order stays deterministic. It starts on
	// inline, the room a connection used by one process at a time needs.
	inflight []*sim.Queue[Response]
	inline   [1]*sim.Queue[Response]
	// held is the last reply handed to a caller, its lend already over: the
	// caller is decoding held.Payload, so a pooled one goes back only when
	// the connection is next used, closed or broken. One slot serves a shared
	// connection too: a process that runs here finds every other caller
	// parked, past the decode of whatever it was handed.
	held Response

	// callDeadline bounds every round trip that does not bring its own
	// (SetCallDeadline); 0 means none.
	callDeadline time.Duration

	// Fault-injection state (Faultable). All mutation happens from
	// simulated processes, serialized by the engine.
	broken  bool          // peer considered dead; calls fail typed
	stall   time.Duration // extra one-shot delay on the next send
	corrupt bool          // next message fails framing validation

	// Messages land at the listener in the order they were sent, lastLand
	// being when the newest one does. A round trip's caller sleeps until its
	// message lands and hands it over; a one-way submission waits in
	// submitted for an engine callback, land (deliverSubmitted, bound on the
	// first Submit), that hands over the oldest.
	lastLand  time.Duration
	submitted *sim.Queue[oneWay]
	land      func()
}

// oneWay is a submission on the wire: all its Request holds but the fields
// every submission shares.
type oneWay struct {
	payload []byte
	reqData int64
}

// Dial connects a guest to an API server's listener with the given network
// profile.
func Dial(e *sim.Engine, l *Listener, profile NetProfile) AsyncCaller {
	c := &simConn{e: e, l: l, profile: profile}
	c.inflight = c.inline[:0]
	return c
}

// ProtoVersion implements VecCaller.
func (c *simConn) ProtoVersion() int { return ProtoV2 }

// send puts an outbound message of n bytes (message plus bulk plus logical
// payload) on the wire. It returns the message's transfer time, injected
// stall included, which is the sender's own occupancy, and the instant the
// message lands at the listener: half an RTT after the transfer, never ahead
// of a message sent before it. A closed or broken connection fails at once;
// an armed corruption charges the transfer, then fails the framing.
func (c *simConn) send(p *sim.Proc, n int64) (transfer, landAt time.Duration, err error) {
	if c.closed || c.broken {
		return 0, 0, ErrConnClosed
	}
	transfer = c.profile.transferTime(p.Rand(), n)
	if c.corrupt {
		c.corrupt = false
		if transfer > 0 {
			p.Sleep(transfer)
		}
		c.Break()
		return 0, 0, fmt.Errorf("%w: injected frame corruption", ErrFrameCorrupt)
	}
	wireTx(n)
	transfer += c.stall
	c.stall = 0
	c.lastLand = max(p.Now()+transfer+c.profile.RTT/2, c.lastLand)
	return transfer, c.lastLand, nil
}

// deliverSubmitted hands the oldest one-way submission, which lands now, to
// the listener, whatever befell the connection since it left. A listener
// that has closed (a crashed server) breaks the connection.
func (c *simConn) deliverSubmitted() {
	m, _ := c.submitted.TryRecv()
	if !c.l.Incoming.TrySend(Request{Payload: m.payload, PayloadOwned: true, ReqData: m.reqData, Profile: c.profile}) {
		c.Break()
	}
}

// Roundtrip sends one encoded call and blocks until the reply arrives,
// charging latency and bandwidth in virtual time.
func (c *simConn) Roundtrip(p *sim.Proc, req []byte, reqData int64) ([]byte, error) {
	resp, _, err := c.exchange(p, req, nil, reqData, c.callDeadline, nil)
	return resp, err
}

// SetCallDeadline implements DeadlineCaller.
func (c *simConn) SetCallDeadline(d time.Duration) { c.callDeadline = d }

// RoundtripTimeout is Roundtrip with a virtual-time reply deadline of its
// own (d <= 0 falls back to the connection's, if any). On timeout the
// connection breaks: a late reply could otherwise be mismatched to the next
// call.
func (c *simConn) RoundtripTimeout(p *sim.Proc, req []byte, reqData int64, d time.Duration) ([]byte, error) {
	if d <= 0 {
		d = c.callDeadline
	}
	resp, _, err := c.exchange(p, req, nil, reqData, d, nil)
	return resp, err
}

// RoundtripVec implements VecCaller: the request's bulk bytes ride outside
// the encoded payload (borrowed, never copied on the send side), and the
// reply's bulk region is scatter-read into respDst when it fits — the same
// ownership handoff the TCP transport performs with writev and ReadFrame.
func (c *simConn) RoundtripVec(p *sim.Proc, req, reqBulk, respDst []byte) (resp, respBulk []byte, err error) {
	return c.exchange(p, req, reqBulk, 0, c.callDeadline, respDst)
}

// exchange is the one send–wait–receive sequence of the simulated transport:
// a request with an optional bulk region, an optional reply deadline
// (deadline <= 0 means none) and an optional destination for the reply's bulk.
func (c *simConn) exchange(p *sim.Proc, req, reqBulk []byte, reqData int64, deadline time.Duration, respDst []byte) (resp, respBulk []byte, err error) {
	c.hold(Response{})
	start := p.Now()
	_, landAt, err := c.send(p, int64(len(req))+int64(len(reqBulk))+reqData)
	if err != nil {
		return nil, nil, err
	}
	replyQ := c.callQueue()
	defer c.callDone(replyQ)
	if landAt > p.Now() {
		p.Sleep(landAt - p.Now())
	}
	// The request lands as a submission does: whatever befell the connection
	// meanwhile, and breaking it if the listener has closed.
	if !c.l.Incoming.TrySend(Request{Payload: req, Bulk: reqBulk, ReqData: reqData, ReplyTo: replyQ, Profile: c.profile}) {
		c.Break()
		return nil, nil, ErrConnClosed
	}
	var r Response
	var ok bool
	if deadline <= 0 {
		r, ok = replyQ.Recv(p)
	} else {
		// The deadline covers the whole call, the way a socket timeout
		// does: send-side time (including an injected stall) eats into the
		// reply budget, and a send that alone overruns it is a timeout.
		var timedOut bool
		r, ok, timedOut = replyQ.RecvTimeout(p, max(0, deadline-(p.Now()-start)))
		if timedOut {
			c.Break()
			return nil, nil, fmt.Errorf("%w: no reply within %v", ErrCallTimeout, deadline)
		}
	}
	if !ok {
		// The peer closed our reply queue: the connection is unusable in
		// both directions, so latch the death — later one-way submissions
		// must fail fast too, not vanish into a dead wire.
		c.Break()
		return nil, nil, ErrConnClosed
	}
	n := int64(len(r.Payload)) + int64(len(r.Bulk)) + r.RespData
	wireRx(n)
	// Inbound: the other half of the RTT plus the response transfer.
	if recv := c.profile.RTT/2 + c.profile.transferTime(p.Rand(), n); recv > 0 {
		p.Sleep(recv)
	}
	if r.Bulk != nil {
		// Model the scatter read: the bytes land in the caller's buffer. The
		// server side may have lent us storage it keeps, so the copy is also
		// what makes the sim's ownership semantics match TCP's: the lend ends
		// here, where TCP's ends after the frame write.
		if cap(respDst) >= len(r.Bulk) {
			respBulk = respDst[:len(r.Bulk)]
		} else {
			respBulk = make([]byte, len(r.Bulk))
		}
		copy(respBulk, r.Bulk)
	}
	if r.Lend != nil {
		r.Lend.Release()
		r.Lend = nil
	}
	c.hold(r)
	return r.Payload, respBulk, nil
}

// hold releases the reply the connection was holding for its last caller and
// holds r in its place.
func (c *simConn) hold(r Response) {
	c.held.Release()
	c.held = r
}

// Submit fires one one-way message down the pipelined lane: the caller pays
// only its transfer occupancy, not the round trip, so compute and network
// latency overlap. Ordering with later Roundtrips is FIFO.
func (c *simConn) Submit(p *sim.Proc, req []byte, reqData int64) error {
	transfer, landAt, err := c.send(p, int64(len(req))+reqData)
	if err != nil {
		return err
	}
	if c.submitted == nil {
		c.submitted = sim.NewQueue[oneWay](c.e)
		c.land = c.deliverSubmitted
	}
	c.submitted.Send(oneWay{req, reqData})
	c.e.At(landAt, c.land)
	if transfer > 0 {
		p.Sleep(transfer)
	}
	return nil
}

// callQueue opens the per-call reply queue of one round trip: one of the
// listener's idle queues if it has any, a fresh one otherwise.
func (c *simConn) callQueue() *sim.Queue[Response] {
	var q *sim.Queue[Response]
	if n := len(c.l.idleReplies); n > 0 {
		q = c.l.idleReplies[n-1]
		c.l.idleReplies[n-1] = nil
		c.l.idleReplies = c.l.idleReplies[:n-1]
	} else {
		q = sim.NewQueue[Response](c.e)
	}
	c.inflight = append(c.inflight, q)
	return q
}

// callDone retires a round trip's reply queue. A queue still in flight was
// not closed by failInflight, and its one reply has been received (a wait
// that ends any other way breaks the connection first), so it is empty and
// goes back to the listener for the next call on any connection; a failed
// queue is dropped, so a reply that arrives after a timeout lands in a queue
// no later call will ever read.
func (c *simConn) callDone(q *sim.Queue[Response]) {
	for i, cand := range c.inflight {
		if cand == q {
			c.inflight = append(c.inflight[:i], c.inflight[i+1:]...)
			c.l.idleReplies = append(c.l.idleReplies, q)
			return
		}
	}
}

// failInflight closes every outstanding round trip's reply queue, failing
// its blocked caller with ErrConnClosed. A reply already in a queue whose
// caller has stopped waiting is dropped with it, which ends its lend; one
// that comes later finds the queue closed and is released by its sender.
func (c *simConn) failInflight() {
	for _, q := range c.inflight {
		q.Close()
		for r, ok := q.TryRecv(); ok; r, ok = q.TryRecv() {
			r.Release()
		}
	}
	c.inflight = nil
}

// Close tears the connection down; a blocked Roundtrip fails.
func (c *simConn) Close() {
	if !c.closed {
		c.closed = true
		c.hold(Response{})
		c.failInflight()
	}
}

// Break implements Faultable: the peer is considered dead. Unlike Close,
// the conn object stays distinguishable as "severed by fault" so tests can
// assert the failure path, but the caller-visible behavior is identical —
// everything fails with ErrConnClosed.
func (c *simConn) Break() {
	if c.broken {
		return
	}
	c.broken = true
	c.hold(Response{})
	c.failInflight()
}

// StallFor implements Faultable: the next outbound message is delayed d.
func (c *simConn) StallFor(d time.Duration) { c.stall += d }

// CorruptNext implements Faultable: the next outbound message fails framing.
func (c *simConn) CorruptNext() { c.corrupt = true }

// ErrConnClosed reports use of a closed connection or one whose peer died.
var ErrConnClosed = connErr("remoting: connection closed")

// ErrFrameCorrupt reports a message that failed framing validation — a
// protocol-level fault, distinct from orderly peer death.
var ErrFrameCorrupt = connErr("remoting: frame corrupt")

// ErrCallTimeout reports a round trip that exceeded its reply deadline. The
// connection is broken afterwards: a late reply cannot be re-matched.
var ErrCallTimeout = connErr("remoting: call deadline exceeded")

// ErrFabricFault reports a data-plane fabric transfer (PeerCopy/FabricCopy)
// that died mid-flight — the RDMA-class link dropped, not the guest's own
// control connection. It counts as a connection fault: guests and chain
// drivers treat it like any severed transport and retry or fall back.
var ErrFabricFault = connErr("remoting: data-plane fabric fault")

type connErr string

func (e connErr) Error() string { return string(e) }

// IsConnFault reports whether err is a transport-level connection fault
// (closed/severed connection, corrupt frame, reply deadline, or a data-plane
// fabric fault) as opposed to an application-level error. Guests map these
// to cudaErrorDevicesUnavailable and trigger session recovery.
func IsConnFault(err error) bool {
	return errors.Is(err, ErrConnClosed) ||
		errors.Is(err, ErrFrameCorrupt) ||
		errors.Is(err, ErrCallTimeout) ||
		errors.Is(err, ErrFabricFault)
}
