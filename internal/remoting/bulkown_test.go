package remoting

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

// rawConn dials addr and returns the bare socket: the peer the bridge tests
// need is one that stops reading when it likes.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// bridge starts an open engine whose one daemon answers every request with
// handle, and a listener that bridges each accepted connection into it.
func bridge(t *testing.T, handle func(p *sim.Proc, req Request) Response) (e *sim.Engine, addr string, bridged <-chan (<-chan struct{})) {
	t.Helper()
	e = sim.NewOpenEngine(1)
	inbox := sim.NewQueue[Request](e)
	e.InjectDaemon("handler", func(p *sim.Proc) {
		for {
			req, ok := inbox.Recv(p)
			if !ok {
				return
			}
			r := handle(p, req)
			if !req.ReplyTo.TrySend(r) {
				r.Release()
			}
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan (<-chan struct{}), 4)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			done <- ServeConn(e, c, inbox)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		e.Stop()
	})
	return e, ln.Addr().String(), done
}

// TestBridgeGivesBulkAwayAndDrawsItBack: the bridge's reader owns no bulk
// buffer of its own. Each bulk region arrives as the handler's property, and
// what the handler recycles is what the reader fills next.
func TestBridgeGivesBulkAwayAndDrawsItBack(t *testing.T) {
	// The pools are per-P: on one P the buffer one goroutine recycles is the
	// one the next goroutine draws.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 300 << 10
	var seen [][]byte // the handler's; the test reads it from a process of the same engine
	e, addr, _ := bridge(t, func(p *sim.Proc, req Request) Response {
		if !req.BulkOwned || len(req.Bulk) != n {
			t.Errorf("bulk region of %d bytes, owned %v; want %d and true", len(req.Bulk), req.BulkOwned, n)
		}
		seen = append(seen, req.Bulk)
		sum := byte(0)
		for _, b := range req.Bulk {
			sum += b
		}
		lease := LeaseBulk(&req)
		if len(seen) == 2 {
			// Keep the second one: a handler that claims a buffer takes it
			// out of circulation.
			if lease.Claim(req.Bulk) == nil {
				t.Error("the request's own bulk region was not claimable")
			}
		}
		lease.Recycle()
		return Response{Payload: []byte{sum}}
	})
	c, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 4; i++ {
		bulk := bytes.Repeat([]byte{byte(i + 1)}, n)
		resp, _, err := c.(VecCaller).RoundtripVec(nil, []byte("m"), bulk, nil)
		if want := byte((i + 1) * n); err != nil || len(resp) != 1 || resp[0] != want {
			t.Fatalf("round %d: reply %v, %v; want the byte sum %d", i, resp, err, want)
		}
	}
	<-e.Inject("check", func(*sim.Proc) {
		if &seen[1][0] != &seen[0][0] && !wire.RaceEnabled { // the race detector drops pool items at random
			t.Error("the reader did not draw the buffer the handler recycled")
		}
		if &seen[2][0] == &seen[1][0] || &seen[3][0] == &seen[1][0] {
			t.Error("the reader filled a buffer the handler had claimed")
		}
		if !bytes.Equal(seen[1], bytes.Repeat([]byte{2}, n)) {
			t.Error("the claimed buffer changed after the handler kept it")
		}
	})
}

// countedLend is a lent buffer that counts its releases and reports the
// first one.
type countedLend struct {
	released atomic.Int32
	first    chan struct{}
}

func (l *countedLend) Release() {
	if l.released.Add(1) == 1 {
		close(l.first)
	}
}

// TestBridgeEndsALendWrittenOrDropped: a lent reply bulk is released exactly
// once — after the frame is on the socket, or when the write fails because
// the guest stopped reading half way and went away.
func TestBridgeEndsALendWrittenOrDropped(t *testing.T) {
	const n = 4 << 20
	stored := bytes.Repeat([]byte{0x5A}, n)
	lends := make(chan *countedLend, 4)
	e, addr, bridged := bridge(t, func(p *sim.Proc, req Request) Response {
		l := &countedLend{first: make(chan struct{})}
		lends <- l
		return Response{Payload: []byte("ok"), Bulk: stored, Lend: l}
	})
	// releasedOnce waits for l's release, lets whatever process made it run
	// on until the engine is idle, and counts.
	releasedOnce := func(l *countedLend, what string) {
		t.Helper()
		<-l.first
		<-e.Inject("settle", func(*sim.Proc) {})
		if got := l.released.Load(); got != 1 {
			t.Fatalf("lend of %s released %d times, want 1", what, got)
		}
	}

	t.Run("written", func(t *testing.T) {
		conn := rawConn(t, addr)
		defer conn.Close()
		<-bridged
		if err := WriteFrame(conn, []byte("read"), nil, 0); err != nil {
			t.Fatal(err)
		}
		_, bulk, _, err := ReadFrame(conn, nil, nil)
		if err != nil || !bytes.Equal(bulk, stored) {
			t.Fatalf("reply: err %v, intact %v", err, bytes.Equal(bulk, stored))
		}
		releasedOnce(<-lends, "a written reply")
	})

	t.Run("dropped", func(t *testing.T) {
		conn := rawConn(t, addr)
		done := <-bridged
		// A second reply queues up behind a guest that reads half of the
		// first and goes away.
		for i := 0; i < 2; i++ {
			if err := WriteFrame(conn, []byte("read"), nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := io.ReadFull(conn, make([]byte, n/2)); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		<-done
		releasedOnce(<-lends, "the reply a guest abandoned half read")
		// The second request may have died unread with the connection. If
		// the handler got it — the engine has been idle since, so it would
		// have by now — the writer process or the handler itself dropped
		// the reply, and the lend ended either way.
		select {
		case l := <-lends:
			releasedOnce(l, "the reply queued behind it")
		default:
		}
		if !bytes.Equal(stored, bytes.Repeat([]byte{0x5A}, n)) {
			t.Fatal("the lent bytes changed")
		}
	})
}

// TestSimConnEndsALendItNeverReceives: a simulated connection that fails ends
// the lend of every reply it will not deliver — one that comes after the
// failure is refused and released by its sender, one already in a queue
// nobody waits on is released with the queue.
func TestSimConnEndsALendItNeverReceives(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		l := NewListener(e)
		late := &countedLend{first: make(chan struct{})}
		p.SpawnDaemon("server", func(p *sim.Proc) {
			req, _ := l.Incoming.Recv(p)
			p.Sleep(2 * time.Second)
			r := Response{Payload: []byte("late"), Bulk: []byte("bulk"), Lend: late}
			if !req.ReplyTo.TrySend(r) {
				r.Release()
			}
		})
		c := Dial(e, l, NetProfile{}).(*simConn)
		if _, err := c.RoundtripTimeout(p, []byte("read"), 0, time.Second); !errors.Is(err, ErrCallTimeout) {
			t.Fatalf("round trip = %v, want ErrCallTimeout", err)
		}
		p.Sleep(2 * time.Second)
		if got := late.released.Load(); got != 1 {
			t.Fatalf("the reply that came after the timeout was released %d times, want 1", got)
		}

		c = Dial(e, l, NetProfile{}).(*simConn)
		queued := &countedLend{first: make(chan struct{})}
		c.callQueue().Send(Response{Bulk: []byte("bulk"), Lend: queued})
		c.Break()
		if got := queued.released.Load(); got != 1 {
			t.Fatalf("the reply in a failed call's queue was released %d times, want 1", got)
		}
	})
}

// TestTakeFrameBufNeverAllocatesForALength: the pooled read path may only use
// a buffer the pool already has, whatever length the header claimed.
func TestTakeFrameBufNeverAllocatesForALength(t *testing.T) {
	const n = (4 << 20) + 9
	for takeFrameBuf(n) != nil { // drain what other tests left in the class
	}
	if avg := testing.AllocsPerRun(50, func() {
		if takeFrameBuf(n) != nil {
			t.Fatal("an empty pool produced a buffer")
		}
	}); avg != 0 {
		t.Fatalf("a pool miss allocates %.1f times", avg)
	}
	buf := make([]byte, n)
	RecycleBulk(buf)
	if got := takeFrameBuf(n); cap(got) < n || &got[:1][0] != &buf[0] {
		t.Fatal("a recycled buffer did not come back")
	}
	// A buffer from the low end of the class is no use to this read, and is
	// not left for the next one to trip over.
	RecycleBulk(make([]byte, 2<<20))
	if got := takeFrameBuf(n); got != nil {
		t.Fatalf("got a %d-byte buffer for a %d-byte read", cap(got), n)
	}
	RecycleBulk(buf)
	if got := takeFrameBuf(n); cap(got) < n {
		t.Fatal("the undersized buffer is still in the way of a fitting one")
	}
}

// TestBulkBuffersStayInTheLargeClasses: the wire payload pool serves the
// framing code — readFrame slices its header out of what GetBuf returns — so
// a recycled buffer of a few bytes must never land in it, and a reader that
// gives its buffers away draws none from it: a region of up to maxPooledFrame
// is read into a slice of its own length. In the large classes the slack of
// what it draws is the ratio between two classes.
func TestBulkBuffersStayInTheLargeClasses(t *testing.T) {
	for _, n := range []int{1, 4, frameHeaderLen - 1, 600, maxPooledFrame} {
		RecycleBulk(make([]byte, n))
		if got := takeFrameBuf(n); got != nil {
			t.Fatalf("a %d-byte region drew a pooled buffer of %d", n, cap(got))
		}
	}
	for i := 0; i < 64; i++ {
		if buf := wire.GetBuf(frameHeaderLen); cap(buf) < frameHeaderLen {
			t.Fatalf("a %d-byte buffer in the payload pool's header class", cap(buf))
		}
	}
	var stream bytes.Buffer
	for i := 0; i < 64; i++ {
		if err := WriteFrame(&stream, []byte("m"), nil, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := ReadFrame(&stream, nil, nil); err != nil {
			t.Fatal(err)
		}
	}

	n := maxPooledFrame + 1 // the shortest region of the class
	for _, size := range largeClassSizes {
		RecycleBulk(make([]byte, size)) // the largest buffer of the class
		got := takeFrameBuf(n)
		if got == nil {
			t.Fatalf("a %d-byte region did not draw the %d-byte buffer of its class", n, size)
		}
		if cap(got) > 4*n+frameHeaderLen+64 {
			t.Fatalf("a %d-byte region drew a buffer of %d", n, cap(got))
		}
		n = size + 1
	}
}

// TestLargeClassesKeepABoundedNumber: the large lists are never emptied by
// the collector, so what each may pin is bounded: largeClassKeep bytes, one
// buffer in the largest class.
func TestLargeClassesKeepABoundedNumber(t *testing.T) {
	for i, size := range largeClassSizes {
		for takeFrameBuf(size) != nil { // drain what other tests left in the class
		}
		want := max(1, largeClassKeep/size)
		for j := 0; j < want+1; j++ {
			RecycleBulk(make([]byte, size))
		}
		l := &largeFramePools[i]
		if got := len(l.free); got != want {
			t.Fatalf("class %d keeps %d buffers, want %d", size, got, want)
		}
		for l.get() != nil { // leave nothing pinned behind
		}
	}
}
