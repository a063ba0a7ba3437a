package remoting

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dgsf/internal/remoting/wire"
	"dgsf/internal/remoting/wire/wiretest"
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
		if &seen[1][0] != &seen[0][0] {
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

// TestServeConnEndsAtAClosedInbox: frames that arrive after the hosted API
// server closed its inbox end the bridge instead of panicking it, and every
// buffer they were read into goes back to the pool exactly once.
func TestServeConnEndsAtAClosedInbox(t *testing.T) {
	t.Run("socket", func(t *testing.T) {
		wiretest.CheckPool(t)
		e := sim.NewOpenEngine(1)
		defer e.Stop()
		inbox := sim.NewQueue[Request](e)
		e.Post(inbox.Close) // the server crashed before the guest's first call
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		bridged := make(chan (<-chan struct{}), 1)
		go func() {
			if c, err := ln.Accept(); err == nil {
				bridged <- ServeConn(e, c, inbox)
			}
		}()
		conn := rawConn(t, ln.Addr().String())
		defer conn.Close()
		done := <-bridged
		for i := 0; i < 8; i++ {
			if WriteFrame(conn, []byte("call"), bytes.Repeat([]byte{0x5A}, 4<<10), 0) != nil {
				break // the bridge is gone and its socket with it
			}
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("the bridge outlived its closed inbox")
		}
		if _, _, _, err := ReadFrame(conn, nil, nil); err == nil {
			t.Fatal("the guest got a reply from a closed inbox")
		}
	})
	t.Run("drain", func(t *testing.T) {
		wiretest.CheckPool(t)
		sim.NewEngine(1).Run("loop", func(p *sim.Proc) {
			e := p.Engine()
			inbox, replies := sim.NewQueue[Request](e), sim.NewQueue[Response](e)
			b := &connFeed{inbox: inbox, replies: replies}
			var bufs [][]byte
			read := func() Request {
				payload, bulk := wire.GetBuf(8)[:8], wire.GetBuf(1 << 10)[:1<<10]
				bufs = append(bufs, payload, bulk)
				return Request{Payload: payload, PayloadOwned: true, Bulk: bulk, BulkOwned: true, ReplyTo: replies}
			}
			for i := 0; i < 2; i++ {
				if post, live := b.queue(read()); post != (i == 0) || !live {
					t.Fatalf("request %d: post %v live %v, want a post for the first only", i, post, live)
				}
			}
			inbox.Close()
			b.drain()
			if !replies.Closed() {
				t.Fatal("a dead bridge left its writer's queue open")
			}
			if post, live := b.queue(read()); post || live {
				t.Fatalf("a dead bridge queued a request: post %v live %v", post, live)
			}
			for i, buf := range bufs[:4] {
				if buf[0] != 0xDB {
					t.Fatalf("buffer %d of a drained request was not returned to the pool", i)
				}
			}
		})
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

// pooledRead writes one frame carrying a bulk region of n bytes and reads it
// back the way the bridge does, giving the metadata back to the pool.
func pooledRead(t *testing.T, n int) []byte {
	t.Helper()
	var stream bytes.Buffer
	if err := WriteFrame(&stream, []byte("m"), bytes.Repeat([]byte{0x5A}, n), 0); err != nil {
		t.Fatal(err)
	}
	meta, bulk, _, err := readFrame(&stream, nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	wire.PutBuf(meta)
	if len(bulk) != n || bulk[0] != 0x5A || bulk[n-1] != 0x5A {
		t.Fatalf("read a %d-byte region back as %d bytes", n, len(bulk))
	}
	return bulk
}

// TestTakeBufNeverAllocatesForALength: the pooled read path may only use a
// buffer the pool already has, whatever length the header claimed.
func TestTakeBufNeverAllocatesForALength(t *testing.T) {
	const n = (4 << 20) + 9
	for wire.TakeBuf(n) != nil { // drain what other tests left in the class
	}
	if avg := testing.AllocsPerRun(50, func() {
		if wire.TakeBuf(n) != nil {
			t.Fatal("an empty pool produced a buffer")
		}
	}); avg != 0 {
		t.Fatalf("a pool miss allocates %.1f times", avg)
	}
}

// TestGrownRegionServesTheNextRead: a region grown on a pool miss ends at its
// class's capacity, so once recycled it serves the next read of the same
// length, a power of two or not.
func TestGrownRegionServesTheNextRead(t *testing.T) {
	for _, n := range []int{wire.MaxSmallBuf + 1, 300 << 10, 1 << 20, (4 << 20) + 9} {
		for wire.TakeBuf(n) != nil { // drain: the first read misses
		}
		first := pooledRead(t, n)
		if cap(first) != wire.ClassCap(n) {
			t.Fatalf("a %d-byte region grew to %d, want its class's %d", n, cap(first), wire.ClassCap(n))
		}
		lease := LeaseBulk(&Request{Bulk: first, BulkOwned: true})
		lease.Recycle()
		if again := pooledRead(t, n); &again[0] != &first[0] {
			t.Fatalf("the next %d-byte read did not draw the recycled region", n)
		}
	}
}

// TestSmallRegionsReadToTheirLength: a region of up to wire.MaxSmallBuf is
// read into a slice of exactly its length, whatever the pool holds, and the
// small buffers a handler recycles never reach a class they cannot serve:
// readFrame slices its header out of what GetBuf returns.
func TestSmallRegionsReadToTheirLength(t *testing.T) {
	for _, n := range []int{1, 4, frameHeaderLen - 1, 600, wire.MaxSmallBuf} {
		wire.PutBuf(make([]byte, n))
		wire.PutBuf(make([]byte, 0, 2*n))
		if got := pooledRead(t, n); cap(got) != n {
			t.Fatalf("a %d-byte region was read into a buffer of %d", n, cap(got))
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
}

// TestLargeClassesKeepABoundedNumber: the pool's classes are never emptied by
// the collector, so what each may pin is bounded: 2 MiB of class capacity
// above wire.MaxSmallBuf, and one buffer in a class larger than that.
func TestLargeClassesKeepABoundedNumber(t *testing.T) {
	for _, c := range []struct{ size, keep int }{
		{128 << 10, 16}, {256 << 10, 8}, {1 << 20, 2}, {4 << 20, 1}, {16 << 20, 1},
	} {
		for wire.TakeBuf(c.size) != nil { // drain what other tests left in the class
		}
		for j := 0; j < c.keep+1; j++ {
			lease := LeaseBulk(&Request{Bulk: make([]byte, c.size), BulkOwned: true})
			lease.Recycle()
		}
		got := 0
		for wire.TakeBuf(c.size) != nil { // leave nothing pinned behind
			got++
		}
		if got != c.keep {
			t.Fatalf("the %d-byte class keeps %d buffers, want %d", c.size, got, c.keep)
		}
	}
}

// TestBulkBuffersUnderPoolChecks: the pool oracle covers the bulk lane. A
// region above wire.MaxSmallBuf a handler gives back is poisoned and never
// handed out again, and a second give-back is counted.
func TestBulkBuffersUnderPoolChecks(t *testing.T) {
	wire.CheckPool(true)
	defer wire.CheckPool(false)
	const n = 1 << 20
	bulk := pooledRead(t, n)
	lease := LeaseBulk(&Request{Bulk: bulk, BulkOwned: true})
	lease.Recycle()
	for i, c := range bulk[:cap(bulk)] {
		if c != 0xDB {
			t.Fatalf("byte %d of a recycled region reads %#x, want the poison", i, c)
		}
	}
	if again := pooledRead(t, n); &again[0] == &bulk[0] {
		t.Fatal("a recycled region was handed out again in checking mode")
	}
	lease = LeaseBulk(&Request{Bulk: bulk, BulkOwned: true})
	lease.Recycle()
	if doubles := wire.CheckPool(false); doubles != 1 {
		t.Fatalf("CheckPool counted %d double returns, want 1", doubles)
	}
}
