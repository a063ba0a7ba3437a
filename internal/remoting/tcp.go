package remoting

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

// TCP transport: the same framed messages the simulated transport carries,
// over real sockets. Used by cmd/gpuserver and cmd/dgsf-run to demonstrate
// guest↔API-server remoting across processes; experiments use the simulated
// transport.
//
// Frames are built and parsed by the codec in protocol.go; a connection
// speaks it from its first byte.

// setNoDelay disables Nagle's algorithm explicitly on TCP connections: the
// remoting protocol is latency-bound request/response traffic, and every
// frame is already written as one segment-sized buffer.
func setNoDelay(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
}

// tcpCaller implements AsyncCaller (and VecCaller) over a TCP connection.
// Every frame, one-way or not, is written with WriteFrame on the calling
// goroutine under mu, which is what keeps submissions and round trips in
// FIFO order; a round trip then reads its reply, still under mu, so the next
// frame read off the socket is always its own. A request's bulk slice is
// borrowed only until WriteFrame returns.
type tcpCaller struct {
	mu       sync.Mutex // serializes every frame write and round trip
	conn     net.Conn
	closed   atomic.Bool // set by Close, which takes no lock
	writeErr error       // the first failed write, wrapping ErrConnClosed (guarded by mu)

	// callDeadline bounds every round trip that does not bring its own
	// (SetCallDeadline, guarded by mu); 0 means none.
	callDeadline time.Duration

	// readBuf is the reply buffer reused across round trips (guarded by
	// mu). Returned payloads alias it, per the Caller contract: a reply is
	// valid only until the next call on the same caller.
	readBuf []byte
}

// DialTCP connects a guest library to a TCP API server endpoint.
func DialTCP(addr string) (AsyncCaller, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	setNoDelay(conn)
	return &tcpCaller{conn: conn}, nil
}

// ProtoVersion implements VecCaller.
func (c *tcpCaller) ProtoVersion() int { return ProtoV2 }

// write writes one frame, failing at once on a closed connection or after an
// earlier write failed: the stream may hold part of that frame, so the
// socket is closed and every later call fails with its error. c.mu is held.
func (c *tcpCaller) write(meta, bulk []byte, data int64) error {
	if c.writeErr != nil {
		return c.writeErr
	}
	if c.closed.Load() {
		return ErrConnClosed
	}
	if err := WriteFrame(c.conn, meta, bulk, data); err != nil {
		c.writeErr = fmt.Errorf("%w: %v", ErrConnClosed, err)
		_ = c.conn.Close()
		return c.writeErr
	}
	return nil
}

// exchange writes one framed call — reqBulk, if any, borrowed into the
// frame's writev — and reads the framed reply, its bulk region scatter-read
// straight into respDst. The sim process identity is unused: real sockets
// pace themselves in wall time. Because async submissions receive no reply,
// the next frame read off the socket is always this call's response. d > 0
// is a wall-clock reply deadline for this call, in whose absence the
// connection's own (SetCallDeadline) applies; on timeout the socket is
// closed, since a late reply cannot be re-matched to its request.
func (c *tcpCaller) exchange(req, reqBulk []byte, reqData int64, d time.Duration, respDst []byte) (resp, respBulk []byte, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.write(req, reqBulk, reqData); err != nil {
		return nil, nil, err
	}
	if d <= 0 {
		d = c.callDeadline
	}
	if d > 0 {
		//lint:allow simdeterminism the TCP transport runs against the real network, so deadlines are real-clock by design
		_ = c.conn.SetReadDeadline(time.Now().Add(d))
		defer c.conn.SetReadDeadline(time.Time{})
	}
	resp, respBulk, _, err = ReadFrame(c.conn, c.readBuf, respDst)
	// Keep a grown buffer for the next reply, but never pin a huge one.
	if cap(resp) > cap(c.readBuf) && cap(resp) <= wire.MaxSmallBuf {
		c.readBuf = resp[:0]
	}
	// errors.Is boxes its target, so it runs only on the failure path.
	if err != nil && errors.Is(err, ErrCallTimeout) {
		_ = c.conn.Close()
	}
	return resp, respBulk, err
}

// Roundtrip implements Caller.
func (c *tcpCaller) Roundtrip(p *sim.Proc, req []byte, reqData int64) ([]byte, error) {
	resp, _, err := c.exchange(req, nil, reqData, 0, nil)
	return resp, err
}

// SetCallDeadline implements DeadlineCaller.
func (c *tcpCaller) SetCallDeadline(d time.Duration) {
	c.mu.Lock()
	c.callDeadline = d
	c.mu.Unlock()
}

// RoundtripTimeout implements DeadlineCaller (d <= 0 falls back to the
// connection's deadline, if any).
func (c *tcpCaller) RoundtripTimeout(p *sim.Proc, req []byte, reqData int64, d time.Duration) ([]byte, error) {
	resp, _, err := c.exchange(req, nil, reqData, d, nil)
	return resp, err
}

// RoundtripVec implements VecCaller. The caller owns reqBulk again when this
// returns.
func (c *tcpCaller) RoundtripVec(p *sim.Proc, req, reqBulk, respDst []byte) ([]byte, []byte, error) {
	return c.exchange(req, reqBulk, 0, 0, respDst)
}

// Submit writes one one-way framed message and returns without waiting for
// any acknowledgement. Ordering with later Roundtrips is FIFO through c.mu.
// req is consumed here, written or not.
func (c *tcpCaller) Submit(p *sim.Proc, req []byte, reqData int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.write(req, nil, reqData)
	wire.PutBuf(req)
	return err
}

// Close closes the connection without waiting for a call in progress: a
// round trip blocked on its reply fails, and so does every later call, with
// ErrConnClosed.
func (c *tcpCaller) Close() {
	c.closed.Store(true)
	_ = c.conn.Close()
}

// ServeConn bridges one accepted TCP connection into an API server's inbox
// on an open-mode engine: a reader goroutine turns frames into Requests and
// hands them to the engine's loop, and a simulated writer process streams
// Responses back to the socket. It returns immediately with a channel that
// closes when the connection drops or the inbox is found closed; the bridge
// lives until then.
func ServeConn(e *sim.Engine, conn net.Conn, inbox *sim.Queue[Request]) <-chan struct{} {
	setNoDelay(conn)
	done := make(chan struct{})
	replies := sim.NewQueue[Response](e)
	b := &connFeed{inbox: inbox, replies: replies}
	b.drainFn = b.drain
	e.InjectDaemon("tcp-writer", func(p *sim.Proc) {
		failed := false
		for {
			r, ok := replies.Recv(p)
			if !ok {
				_ = conn.Close()
				return
			}
			// A lent bulk region goes out as the frame's second vector. After
			// a failed write the replies still queued are dropped one by one:
			// written or dropped, a lend ends here.
			if !failed {
				if err := WriteFrame(conn, r.Payload, r.Bulk, r.RespData); err != nil {
					_ = conn.Close()
					failed = true
				}
			}
			r.Release()
		}
	})
	go func() {
		defer close(done)
		defer e.Post(replies.Close)
		for {
			// The payload lands in a buffer of the wire payload pool, and so
			// does a bulk region — up to wire.MaxSmallBuf, in a fresh one of
			// its length. Both travel with the request as the handler's
			// property; what the handler does not keep comes back to the
			// pool (wire.PutBuf).
			payload, bulk, _, err := readFrame(conn, nil, nil, true)
			if err != nil {
				return
			}
			post, live := b.queue(Request{Payload: payload, PayloadOwned: true, Bulk: bulk, BulkOwned: bulk != nil, ReplyTo: replies})
			if !live {
				wire.PutBuf(payload)
				wire.PutBuf(bulk)
				return
			}
			if post {
				e.Post(b.drainFn)
			}
		}
	}()
	return done
}

// connFeed carries the requests a connection's reader decodes over to the
// engine's loop: the reader queues them, posting drain once per burst, and
// drain sends them on the inbox as the loop.
type connFeed struct {
	inbox   *sim.Queue[Request]
	replies *sim.Queue[Response]
	drainFn func() // drain, bound once: a post allocates nothing

	mu     sync.Mutex
	queued []Request
	posted bool // a drain is in the engine's mailbox
	dead   bool // the inbox was found closed: the hosted API server crashed
}

// queue adds r for the next drain and reports whether the reader must post
// one; live is false, and r not queued, once the bridge is dead.
func (b *connFeed) queue(r Request) (post, live bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead {
		return false, false
	}
	b.queued = append(b.queued, r)
	post, b.posted = !b.posted, true
	return post, true
}

// drain sends the queued requests on the inbox. A closed inbox kills the
// bridge rather than panicking: closing replies makes the writer close the
// socket, which ends the reader, and the requests go back to the pool, as do
// any the reader decodes before it ends.
func (b *connFeed) drain() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, r := range b.queued {
		if !b.dead && !b.inbox.TrySend(r) {
			b.dead = true
			b.replies.Close()
		}
		if b.dead {
			wire.PutBuf(r.Payload)
			wire.PutBuf(r.Bulk)
		}
		b.queued[i] = Request{}
	}
	b.queued, b.posted = b.queued[:0], false
}
