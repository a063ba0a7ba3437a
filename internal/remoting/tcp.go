package remoting

import (
	"errors"
	"fmt"
	"net"
	"sync"
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

// tcpWindow bounds the frames queued to the writer goroutine but not yet
// handed to the kernel: the transport-level in-flight window of the
// pipelined lane.
const tcpWindow = 64

// tcpCaller implements AsyncCaller (and VecCaller) over a TCP connection.
// Synchronous calls are strictly request/response; every outbound frame,
// one-way or not, is built on the calling goroutine and handed to a writer
// goroutine, which preserves FIFO order between the two kinds. A frame's
// borrowed bulk vector is only ever attached to a synchronous call, whose
// caller blocks until the reply — which cannot arrive before the writer has
// finished with the slice.
type tcpCaller struct {
	mu     sync.Mutex // serializes synchronous round trips
	conn   net.Conn
	sendCh chan frame

	// callDeadline bounds every round trip that does not bring its own
	// (SetCallDeadline, guarded by mu); 0 means none.
	callDeadline time.Duration

	// readBuf is the reply buffer reused across round trips (guarded by
	// mu). Returned payloads alias it, per the Caller contract: a reply is
	// valid only until the next call on the same caller.
	readBuf []byte

	closeOnce sync.Once
	writeErr  error
	writeDone chan struct{}
}

// DialTCP connects a guest library to a TCP API server endpoint.
func DialTCP(addr string) (AsyncCaller, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	setNoDelay(conn)
	c := &tcpCaller{
		conn:      conn,
		sendCh:    make(chan frame, tcpWindow),
		writeDone: make(chan struct{}),
	}
	go c.writer()
	return c, nil
}

// ProtoVersion implements VecCaller.
func (c *tcpCaller) ProtoVersion() int { return ProtoV2 }

// writer drains the send queue onto the socket. On a write error it records
// the error, tears the connection down and keeps draining so senders never
// block forever.
func (c *tcpCaller) writer() {
	defer close(c.writeDone)
	for f := range c.sendCh {
		if c.writeErr != nil {
			f.release()
			continue
		}
		if err := f.writeTo(c.conn); err != nil {
			c.writeErr = err
			_ = c.conn.Close()
		}
	}
}

// exchange sends one framed call — reqBulk, if any, borrowed into the
// writer's writev — and reads the framed reply, its bulk region scatter-read
// straight into respDst. The sim process identity is unused: real sockets
// pace themselves in wall time. Because async submissions receive no reply,
// the next frame read off the socket is always this call's response. d > 0
// is a wall-clock reply deadline for this call, in whose absence the
// connection's own (SetCallDeadline) applies; on timeout the socket is
// closed, since a late reply cannot be re-matched to its request.
func (c *tcpCaller) exchange(req, reqBulk []byte, reqData int64, d time.Duration, respDst []byte) (resp, respBulk []byte, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sendCh <- newFrame(req, reqBulk, reqData) // blocks while the in-flight window is full
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
	if cap(resp) > cap(c.readBuf) && cap(resp) <= maxPooledFrame {
		c.readBuf = resp[:0]
	}
	if err != nil {
		if c.writeErr != nil {
			err = fmt.Errorf("%w: %v", ErrConnClosed, c.writeErr)
		}
		if errors.Is(err, ErrCallTimeout) {
			_ = c.conn.Close()
		}
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

// Submit queues one one-way framed message without waiting for any
// acknowledgement. Ordering with later Roundtrips is FIFO through the
// writer goroutine; the window bounds queued-but-unwritten frames. The frame
// holds a copy of req, so this is where req is consumed.
func (c *tcpCaller) Submit(p *sim.Proc, req []byte, reqData int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.writeErr != nil {
		return fmt.Errorf("%w: %v", ErrConnClosed, c.writeErr)
	}
	f := newFrame(req, nil, reqData)
	wire.PutBuf(req)
	c.sendCh <- f
	return nil
}

// Close stops the writer and closes the underlying connection.
func (c *tcpCaller) Close() {
	c.closeOnce.Do(func() {
		close(c.sendCh)
		<-c.writeDone
		_ = c.conn.Close()
	})
}

// ServeConn bridges one accepted TCP connection into an API server's inbox
// on an open-mode engine: a reader goroutine turns frames into Requests, and
// a simulated writer process streams Responses back to the socket. It
// returns immediately with a channel that closes when the connection drops;
// the bridge lives until then.
func ServeConn(e *sim.Engine, conn net.Conn, inbox *sim.Queue[Request]) <-chan struct{} {
	setNoDelay(conn)
	done := make(chan struct{})
	replies := sim.NewQueue[Response](e)
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
		defer replies.Close()
		for {
			// The payload lands in a buffer of the wire payload pool and a
			// bulk region in one from the large frame pools — up to
			// maxPooledFrame, in a fresh one of its length. Both travel with
			// the request as the handler's property; what the handler does
			// not keep comes back to the pools (wire.PutBuf, RecycleBulk).
			payload, bulk, data, err := readFrame(conn, nil, nil, true)
			if err != nil {
				return
			}
			// The hosted API server may have crashed (closed its inbox);
			// drop the bridge rather than panic.
			if !inbox.TrySend(Request{Payload: payload, PayloadOwned: true, ReqData: data, Bulk: bulk, BulkOwned: bulk != nil, ReplyTo: replies}) {
				wire.PutBuf(payload)
				RecycleBulk(bulk)
				return
			}
		}
	}()
	return done
}
