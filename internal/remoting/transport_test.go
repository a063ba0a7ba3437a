package remoting

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

func TestSimRoundtripLatency(t *testing.T) {
	e := sim.NewEngine(1)
	var elapsed time.Duration
	e.Run("root", func(p *sim.Proc) {
		l := NewListener(e)
		p.SpawnDaemon("server", func(p *sim.Proc) {
			for {
				req, ok := l.Incoming.Recv(p)
				if !ok {
					return
				}
				req.ReplyTo.Send(Response{Payload: req.Payload})
			}
		})
		// The first call of a connection costs exactly one round trip.
		conn := Dial(e, l, NetProfile{RTT: 100 * time.Microsecond})
		start := p.Now()
		resp, err := conn.Roundtrip(p, []byte("ping"), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp, []byte("ping")) {
			t.Fatalf("echo = %q", resp)
		}
		elapsed = p.Now() - start
	})
	if elapsed != 100*time.Microsecond {
		t.Fatalf("roundtrip took %v, want exactly the RTT (100µs)", elapsed)
	}
}

func TestSimRoundtripChargesBandwidth(t *testing.T) {
	e := sim.NewEngine(1)
	var elapsed time.Duration
	e.Run("root", func(p *sim.Proc) {
		l := NewListener(e)
		p.SpawnDaemon("server", func(p *sim.Proc) {
			for {
				req, ok := l.Incoming.Recv(p)
				if !ok {
					return
				}
				req.ReplyTo.Send(Response{Payload: []byte("ok")})
			}
		})
		// 1 MB/s, no jitter: 1 MB of request payload = 1 s.
		conn := Dial(e, l, NetProfile{Bps: 1e6})
		start := p.Now()
		if _, err := conn.Roundtrip(p, []byte("x"), 1e6-1-2); err != nil {
			t.Fatal(err)
		}
		elapsed = p.Now() - start
	})
	if elapsed != time.Second {
		t.Fatalf("1MB at 1MB/s took %v, want 1s", elapsed)
	}
}

// TestSimLandingOracle: over seeded random sequences of message sizes, one-way
// submissions and round trips from three processes sharing one connection,
// every b-byte message lands at the listener RTT/2 + b/bandwidth after its
// transfer starts, unless an earlier message lands later: then it lands
// with that one, never before it.
func TestSimLandingOracle(t *testing.T) {
	const bps = 1e6 // one byte per microsecond
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prof := NetProfile{RTT: time.Duration(rng.Intn(400)) * time.Microsecond, Bps: bps}
		type msg struct {
			start time.Duration // its transfer starts
			bytes int64
		}
		var sent []msg
		var landed []time.Duration
		e := sim.NewEngine(seed)
		e.Run("root", func(p *sim.Proc) {
			l := NewListener(e)
			p.SpawnDaemon("server", func(p *sim.Proc) {
				for {
					req, ok := l.Incoming.Recv(p)
					if !ok {
						return
					}
					if seq := int(binary.LittleEndian.Uint64(req.Payload)); seq != len(landed) {
						t.Errorf("seed %d: message %d landed in place %d", seed, seq, len(landed))
					}
					landed = append(landed, p.Now())
					if req.ReplyTo != nil {
						req.ReplyTo.Send(Response{Payload: []byte("ok")})
					}
				}
			})
			conn := Dial(e, l, prof)
			done := sim.NewQueue[struct{}](e)
			for range 3 {
				p.Spawn("sender", func(p *sim.Proc) {
					for range 40 {
						p.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
						payload := binary.LittleEndian.AppendUint64(nil, uint64(len(sent)))
						data := int64(rng.Intn(4000))
						if rng.Intn(8) == 0 {
							data = 0
						}
						sent = append(sent, msg{start: p.Now(), bytes: int64(len(payload)) + data})
						var err error
						if rng.Intn(2) == 0 {
							err = conn.Submit(p, payload, data)
						} else {
							_, err = conn.Roundtrip(p, payload, data)
						}
						if err != nil {
							t.Error(err)
						}
					}
					done.Send(struct{}{})
				})
			}
			for range 3 {
				done.Recv(p)
			}
			p.Sleep(time.Second) // the last submissions land
		})
		if len(landed) != len(sent) {
			t.Fatalf("seed %d: %d of %d messages landed", seed, len(landed), len(sent))
		}
		var prev time.Duration
		for i, m := range sent {
			alone := m.start + prof.RTT/2 + time.Duration(m.bytes)*time.Second/bps
			want := max(alone, prev)
			// The transport converts bytes to time in floating point: allow
			// it a nanosecond of rounding, but no landing ahead of another.
			if got := landed[i]; got < prev || got < want-time.Nanosecond || got > want+time.Nanosecond {
				t.Fatalf("seed %d (RTT %v): message %d of %d B sent at %v landed at %v, want %v (the previous landed at %v)",
					seed, prof.RTT, i, m.bytes, m.start, got, want, prev)
			}
			prev = landed[i]
		}
	}
}

func TestSimRoundtripJitterBounded(t *testing.T) {
	e := sim.NewEngine(9)
	e.Run("root", func(p *sim.Proc) {
		l := NewListener(e)
		p.SpawnDaemon("server", func(p *sim.Proc) {
			for {
				req, ok := l.Incoming.Recv(p)
				if !ok {
					return
				}
				req.ReplyTo.Send(Response{Payload: []byte("ok")})
			}
		})
		prof := NetProfile{Bps: 1e6, JitterFrac: 0.5}
		conn := Dial(e, l, prof)
		for i := 0; i < 20; i++ {
			start := p.Now()
			if _, err := conn.Roundtrip(p, make([]byte, 1000), 0); err != nil {
				t.Fatal(err)
			}
			got := p.Now() - start
			// 1002 bytes out + 2 bytes back at 1 MB/s nominal, ±50%.
			lo, hi := 400*time.Microsecond, 1700*time.Microsecond
			if got < lo || got > hi {
				t.Fatalf("jittered roundtrip %v outside [%v, %v]", got, lo, hi)
			}
		}
	})
}

func TestClosedConnFails(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		l := NewListener(e)
		conn := Dial(e, l, NetProfile{})
		conn.Close()
		if _, err := conn.Roundtrip(p, []byte("x"), 0); !errors.Is(err, ErrConnClosed) {
			t.Fatalf("Roundtrip on closed conn = %v, want ErrConnClosed", err)
		}
	})
}

func TestServerClosePendingRoundtripFails(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		l := NewListener(e)
		var conn Caller
		conn = Dial(e, l, NetProfile{})
		p.Spawn("closer", func(p *sim.Proc) {
			req, _ := l.Incoming.Recv(p)
			req.ReplyTo.Close()
		})
		if _, err := conn.Roundtrip(p, []byte("x"), 0); !errors.Is(err, ErrConnClosed) {
			t.Fatalf("Roundtrip with closed reply queue = %v, want ErrConnClosed", err)
		}
	})
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello dgsf")
	if err := WriteFrame(&buf, payload, nil, 12345); err != nil {
		t.Fatal(err)
	}
	got, _, data, err := ReadFrame(&buf, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) || data != 12345 {
		t.Fatalf("frame round trip = (%q, %d)", got, data)
	}
}

func TestFrameRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{FrameMagic, ProtoV2, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	if _, _, _, err := ReadFrame(&buf, nil, nil); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestTCPTransportEndToEnd(t *testing.T) {
	// A real TCP connection into an open-mode engine hosting an echo
	// service, exercising DialTCP + ServeConn end to end.
	e := sim.NewOpenEngine(1)
	defer e.Stop()
	inbox := sim.NewQueue[Request](e)
	e.InjectDaemon("echo", func(p *sim.Proc) {
		for {
			req, ok := inbox.Recv(p)
			if !ok {
				return
			}
			req.ReplyTo.Send(Response{Payload: append([]byte("re:"), req.Payload...)})
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		ServeConn(e, conn, inbox)
	}()
	caller, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()
	for i := 0; i < 5; i++ {
		resp, err := caller.Roundtrip(nil, []byte("ping"), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if string(resp) != "re:ping" {
			t.Fatalf("resp = %q", resp)
		}
	}
}

func TestSimSubmitOverlapsRTT(t *testing.T) {
	// Ten one-way submissions followed by one round trip cost exactly one
	// RTT of guest time: the submissions' network latency is fully hidden.
	// FIFO order through the pipe means the server sees all ten before the
	// fencing round trip.
	e := sim.NewEngine(1)
	var elapsed time.Duration
	var seenBeforeFence int
	e.Run("root", func(p *sim.Proc) {
		l := NewListener(e)
		p.SpawnDaemon("server", func(p *sim.Proc) {
			oneWay := 0
			for {
				req, ok := l.Incoming.Recv(p)
				if !ok {
					return
				}
				if req.ReplyTo == nil {
					oneWay++
					continue
				}
				seenBeforeFence = oneWay
				req.ReplyTo.Send(Response{Payload: []byte("ok")})
			}
		})
		conn := Dial(e, l, NetProfile{RTT: 100 * time.Microsecond})
		start := p.Now()
		for i := 0; i < 10; i++ {
			if err := conn.Submit(p, []byte("one-way"), 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := conn.Roundtrip(p, []byte("fence"), 0); err != nil {
			t.Fatal(err)
		}
		elapsed = p.Now() - start
	})
	if seenBeforeFence != 10 {
		t.Fatalf("server saw %d submissions before the round trip, want 10", seenBeforeFence)
	}
	if elapsed != 100*time.Microsecond {
		t.Fatalf("10 submits + 1 roundtrip took %v, want exactly one RTT (100µs)", elapsed)
	}
}

func TestSimSubmitDeterministic(t *testing.T) {
	run := func() time.Duration {
		e := sim.NewEngine(7)
		var elapsed time.Duration
		e.Run("root", func(p *sim.Proc) {
			l := NewListener(e)
			p.SpawnDaemon("server", func(p *sim.Proc) {
				for {
					req, ok := l.Incoming.Recv(p)
					if !ok {
						return
					}
					if req.ReplyTo != nil {
						req.ReplyTo.Send(Response{Payload: []byte("ok")})
					}
				}
			})
			conn := Dial(e, l, NetProfile{RTT: 150 * time.Microsecond, Bps: 1e9, JitterFrac: 0.1})
			start := p.Now()
			for i := 0; i < 50; i++ {
				if err := conn.Submit(p, make([]byte, 512), 4096); err != nil {
					t.Fatal(err)
				}
				if i%10 == 9 {
					if _, err := conn.Roundtrip(p, []byte("fence"), 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			elapsed = p.Now() - start
		})
		return elapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced %v then %v", a, b)
	}
}

func TestSubmitOnClosedConnFails(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		l := NewListener(e)
		conn := Dial(e, l, NetProfile{})
		conn.Close()
		if err := conn.Submit(p, []byte("x"), 0); !errors.Is(err, ErrConnClosed) {
			t.Fatalf("Submit on closed conn = %v, want ErrConnClosed", err)
		}
	})
}

func TestTCPSubmitPreservesOrder(t *testing.T) {
	// One-way submissions over TCP must reach the server before a later
	// round trip, and the round trip must read its own reply (the server
	// sends none for submissions).
	e := sim.NewOpenEngine(1)
	defer e.Stop()
	inbox := sim.NewQueue[Request](e)
	e.InjectDaemon("server", func(p *sim.Proc) {
		oneWay := 0
		for {
			req, ok := inbox.Recv(p)
			if !ok {
				return
			}
			if len(req.Payload) >= 2 && string(req.Payload[:2]) == "1w" {
				oneWay++
				continue // no reply: the async contract
			}
			req.ReplyTo.Send(Response{Payload: []byte{byte(oneWay)}})
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		ServeConn(e, conn, inbox)
	}()
	caller, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()
	for round := 1; round <= 3; round++ {
		for i := 0; i < 4; i++ {
			if err := caller.Submit(nil, []byte("1w-payload"), 0); err != nil {
				t.Fatal(err)
			}
		}
		resp, err := caller.Roundtrip(nil, []byte("sync"), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp) != 1 || int(resp[0]) != 4*round {
			t.Fatalf("round %d: server saw %v one-way messages, want %d", round, resp, 4*round)
		}
	}
}

// TestTCPCallAfterCloseFails: once Close has returned, every lane of the TCP
// caller fails with ErrConnClosed instead of touching the connection.
func TestTCPCallAfterCloseFails(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	caller, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	caller.Close()
	if err := caller.Submit(nil, append(wire.GetBuf(4), "1way"...), 0); !errors.Is(err, ErrConnClosed) {
		t.Errorf("Submit after Close = %v, want ErrConnClosed", err)
	}
	if _, err := caller.Roundtrip(nil, []byte("sync"), 0); !errors.Is(err, ErrConnClosed) {
		t.Errorf("Roundtrip after Close = %v, want ErrConnClosed", err)
	}
	if _, _, err := caller.(VecCaller).RoundtripVec(nil, []byte("vec"), []byte("bulk"), nil); !errors.Is(err, ErrConnClosed) {
		t.Errorf("RoundtripVec after Close = %v, want ErrConnClosed", err)
	}
}

// TestTCPWriteErrorIsNotARace: the peer resets the connection, the caller
// submits until a write fails, and from then on every call fails with
// ErrConnClosed. Run under -race it also checks that the failed write is
// recorded where the calls read it.
func TestTCPWriteErrorIsNotARace(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	caller, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	_ = peer.(*net.TCPConn).SetLinger(0) // Close sends a reset
	peer.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := caller.Submit(nil, append(wire.GetBuf(4), "1way"...), 0)
		if err != nil {
			if !errors.Is(err, ErrConnClosed) {
				t.Fatalf("failed Submit = %v, want ErrConnClosed", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no Submit failed within 10s of the peer's reset")
		}
	}
	for i := 0; i < 3; i++ {
		if err := caller.Submit(nil, append(wire.GetBuf(4), "1way"...), 0); !errors.Is(err, ErrConnClosed) {
			t.Fatalf("Submit after a failed write = %v, want ErrConnClosed", err)
		}
		if _, err := caller.Roundtrip(nil, []byte("sync"), 0); !errors.Is(err, ErrConnClosed) {
			t.Fatalf("Roundtrip after a failed write = %v, want ErrConnClosed", err)
		}
	}
}

func TestWriteFrameZeroAllocs(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("race detector drops sync.Pool items; alloc counts are meaningless")
	}
	payload := make([]byte, 256)
	if avg := testing.AllocsPerRun(200, func() {
		if err := WriteFrame(io.Discard, payload, nil, 0); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("WriteFrame allocates %.1f times per frame, want 0", avg)
	}
}

func TestFrameRoundTripBoundedAllocs(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("race detector drops sync.Pool items; alloc counts are meaningless")
	}
	payload := make([]byte, 256)
	var framed bytes.Buffer
	if err := WriteFrame(&framed, payload, nil, 7); err != nil {
		t.Fatal(err)
	}
	raw := framed.Bytes()
	var buf bytes.Buffer
	// The only steady-state allocation is the returned payload itself.
	if avg := testing.AllocsPerRun(200, func() {
		buf.Reset()
		buf.Write(raw)
		if _, _, _, err := ReadFrame(&buf, nil, nil); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Fatalf("frame round trip allocates %.1f times, want <= 1", avg)
	}
}

// TestReadFrameReuse checks the reused-buffer read path (metaBuf): a fitting buffer
// is filled in place, an undersized one is replaced by a grown allocation,
// and the warm path allocates nothing.
func TestReadFrameReuse(t *testing.T) {
	var framed bytes.Buffer
	small := []byte("abc")
	big := make([]byte, 300)
	for i := range big {
		big[i] = byte(i)
	}

	// Fits: payload aliases the supplied buffer.
	if err := WriteFrame(&framed, small, nil, 1); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 512)
	got, _, data, err := ReadFrame(&framed, buf, nil)
	if err != nil || data != 1 || !bytes.Equal(got, small) {
		t.Fatalf("reuse read = (%q, %d, %v)", got, data, err)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("fitting payload did not reuse the supplied buffer")
	}

	// Does not fit: a grown buffer comes back, contents intact.
	framed.Reset()
	if err := WriteFrame(&framed, big, nil, 2); err != nil {
		t.Fatal(err)
	}
	got, _, data, err = ReadFrame(&framed, make([]byte, 0, 16), nil)
	if err != nil || data != 2 || !bytes.Equal(got, big) {
		t.Fatalf("grown reuse read failed: len=%d data=%d err=%v", len(got), data, err)
	}

	if !wire.RaceEnabled {
		framed.Reset()
		if err := WriteFrame(&framed, big, nil, 7); err != nil {
			t.Fatal(err)
		}
		raw := framed.Bytes()
		var stream bytes.Buffer
		if avg := testing.AllocsPerRun(200, func() {
			stream.Reset()
			stream.Write(raw)
			if _, _, _, err := ReadFrame(&stream, buf, nil); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("warm ReadFrame into a reused buffer allocates %.1f times, want 0", avg)
		}
	}
}

// --- fault-lane tests: typed errors across connection loss ---

// TestFenceAfterConnFaultSurfacesTypedError drives the pipelined lane into
// every injectable connection fault and checks that a subsequent fence-style
// round trip returns the matching typed error instead of hanging on a reply
// that will never arrive — the failure-detection contract the guest's
// recovery layer is built on. It also checks the conn stays dead afterwards:
// later calls fail fast with ErrConnClosed rather than waiting out another
// deadline.
func TestFenceAfterConnFaultSurfacesTypedError(t *testing.T) {
	cases := []struct {
		name string
		// fault arms the failure after ten async submissions, before the
		// fence round trip.
		fault func(f Faultable)
		// serverDrops makes the server close the reply queue instead of
		// answering the fence (a peer crash with the request in flight).
		serverDrops bool
		// deadline, when non-zero, issues the fence through RoundtripTimeout.
		deadline time.Duration
		want     error
	}{
		{name: "guest side break", fault: func(f Faultable) { f.Break() }, want: ErrConnClosed},
		{name: "peer closes mid fence", serverDrops: true, want: ErrConnClosed},
		{name: "corrupt frame", fault: func(f Faultable) { f.CorruptNext() }, want: ErrFrameCorrupt},
		{name: "stall past deadline", fault: func(f Faultable) { f.StallFor(10 * time.Second) }, deadline: time.Second, want: ErrCallTimeout},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			e.Run("root", func(p *sim.Proc) {
				l := NewListener(e)
				p.SpawnDaemon("server", func(p *sim.Proc) {
					for {
						req, ok := l.Incoming.Recv(p)
						if !ok {
							return
						}
						if req.ReplyTo == nil {
							continue
						}
						if tc.serverDrops {
							req.ReplyTo.Close()
							continue
						}
						req.ReplyTo.Send(Response{Payload: []byte("ok")})
					}
				})
				conn := Dial(e, l, NetProfile{RTT: 100 * time.Microsecond})
				for i := 0; i < 10; i++ {
					if err := conn.Submit(p, []byte("one-way"), 0); err != nil {
						t.Fatal(err)
					}
				}
				if tc.fault != nil {
					tc.fault(conn.(Faultable))
				}
				var err error
				if tc.deadline > 0 {
					_, err = conn.(DeadlineCaller).RoundtripTimeout(p, []byte("fence"), 0, tc.deadline)
				} else {
					_, err = conn.Roundtrip(p, []byte("fence"), 0)
				}
				if !errors.Is(err, tc.want) {
					t.Fatalf("fence after fault = %v, want %v", err, tc.want)
				}
				if !IsConnFault(err) {
					t.Fatalf("%v not classified as a connection fault", err)
				}
				// However the connection died, it stays dead and fails fast.
				start := p.Now()
				if _, err := conn.Roundtrip(p, []byte("fence"), 0); !errors.Is(err, ErrConnClosed) {
					t.Fatalf("fence on dead conn = %v, want ErrConnClosed", err)
				}
				if waited := p.Now() - start; waited != 0 {
					t.Fatalf("call on dead conn waited %v, want immediate failure", waited)
				}
				if err := conn.Submit(p, []byte("one-way"), 0); !errors.Is(err, ErrConnClosed) {
					t.Fatalf("submit on dead conn = %v, want ErrConnClosed", err)
				}
			})
		})
	}
}

// TestRoundtripTimeoutHappyPathUnaffected: a deadline on a healthy conn is
// free — same reply, same virtual-time cost as the plain call.
func TestRoundtripTimeoutHappyPathUnaffected(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		l := NewListener(e)
		p.SpawnDaemon("server", func(p *sim.Proc) {
			for {
				req, ok := l.Incoming.Recv(p)
				if !ok {
					return
				}
				req.ReplyTo.Send(Response{Payload: req.Payload})
			}
		})
		conn := Dial(e, l, NetProfile{RTT: 100 * time.Microsecond}).(DeadlineCaller)
		start := p.Now()
		resp, err := conn.RoundtripTimeout(p, []byte("ping"), 0, time.Second)
		if err != nil || !bytes.Equal(resp, []byte("ping")) {
			t.Fatalf("deadline roundtrip = %q, %v", resp, err)
		}
		if got := p.Now() - start; got != 100*time.Microsecond {
			t.Fatalf("deadline roundtrip took %v, want the RTT", got)
		}
	})
}

// TestConnFaultClassification pins down which sentinels count as connection
// faults (recoverable transport failures) and which do not.
func TestConnFaultClassification(t *testing.T) {
	for _, err := range []error{ErrConnClosed, ErrFrameCorrupt, ErrCallTimeout, ErrFabricFault} {
		if !IsConnFault(err) {
			t.Errorf("IsConnFault(%v) = false, want true", err)
		}
		if !IsConnFault(fmt.Errorf("wrapped: %w", err)) {
			t.Errorf("IsConnFault(wrapped %v) = false, want true", err)
		}
	}
	if IsConnFault(nil) || IsConnFault(io.EOF) || IsConnFault(errors.New("gpu melted")) {
		t.Error("IsConnFault claims unrelated errors")
	}
}

// echoServer replies to every request with its own payload after delay and
// records the reply queue each request named.
func echoServer(p *sim.Proc, l *Listener, delay time.Duration, seen *[]*sim.Queue[Response]) {
	p.SpawnDaemon("server", func(p *sim.Proc) {
		for {
			req, ok := l.Incoming.Recv(p)
			if !ok {
				return
			}
			*seen = append(*seen, req.ReplyTo)
			p.Spawn("reply", func(p *sim.Proc) {
				p.Sleep(delay)
				req.ReplyTo.TrySend(Response{Payload: req.Payload})
			})
		}
	})
}

// TestSimReplyQueueReuse: a connection used by one process at a time names
// the same reply queue on every call, so a steady-state round trip through
// the simulated transport allocates nothing beyond what the server does (here
// a process per reply); an exchange that overlaps another gets a queue of its
// own, and each caller still receives its own reply.
func TestSimReplyQueueReuse(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		l := NewListener(e)
		var seen []*sim.Queue[Response]
		echoServer(p, l, time.Millisecond, &seen)
		conn := Dial(e, l, NetProfile{RTT: 100 * time.Microsecond})
		for i := 0; i < 3; i++ {
			if resp, err := conn.Roundtrip(p, []byte{byte(i)}, 0); err != nil || resp[0] != byte(i) {
				t.Fatalf("call %d = %v, %v", i, resp, err)
			}
		}
		if seen[0] != seen[1] || seen[1] != seen[2] {
			t.Fatalf("sequential calls named reply queues %p %p %p, want one reused queue", seen[0], seen[1], seen[2])
		}
		inline := NewListener(e)
		p.SpawnDaemon("inline-echo", func(p *sim.Proc) {
			for {
				req, ok := inline.Incoming.Recv(p)
				if !ok {
					return
				}
				req.ReplyTo.Send(Response{Payload: req.Payload})
			}
		})
		quiet := Dial(e, inline, NetProfile{RTT: 100 * time.Microsecond})
		msg := []byte("ping")
		if allocs := testing.AllocsPerRun(100, func() { quiet.Roundtrip(p, msg, 0) }); allocs != 0 {
			t.Errorf("steady-state simulated round trip: %v allocs, want 0", allocs)
		}

		// A long call and a short one overlap on the same connection.
		seen = seen[:0]
		done := sim.NewQueue[byte](e)
		p.Spawn("overlap", func(p *sim.Proc) {
			resp, err := conn.Roundtrip(p, []byte{'b'}, 0)
			if err != nil {
				t.Errorf("overlapping call: %v", err)
			}
			done.Send(resp[0])
		})
		resp, err := conn.Roundtrip(p, []byte{'a'}, 0)
		if err != nil || resp[0] != 'a' {
			t.Fatalf("first of two overlapping calls = %q, %v", resp, err)
		}
		if b, _ := done.Recv(p); b != 'b' {
			t.Fatalf("second of two overlapping calls got %q", b)
		}
		if len(seen) != 2 || seen[0] == seen[1] {
			t.Fatalf("overlapping calls shared a reply queue: %v", seen)
		}
	})
}

// TestMessageToClosedListenerBreaksAtDelivery: a server that crashes while a
// call's request is on the wire fails the call when the request lands, on a
// connection that has used the pipelined lane as on one that has not.
func TestMessageToClosedListenerBreaksAtDelivery(t *testing.T) {
	profile := NetProfile{RTT: 100 * time.Microsecond, Bps: 1e9}
	msg := make([]byte, 100_000)
	const landing = 100*time.Microsecond + 50*time.Microsecond // transfer + RTT/2
	for _, submitted := range []bool{false, true} {
		e := sim.NewEngine(1)
		e.Run("root", func(p *sim.Proc) {
			l := NewListener(e)
			p.SpawnDaemon("server", func(p *sim.Proc) {
				for {
					req, ok := l.Incoming.Recv(p)
					if !ok {
						return
					}
					if req.ReplyTo != nil {
						req.ReplyTo.Send(Response{})
					}
				}
			})
			conn := Dial(e, l, profile).(DeadlineCaller)
			if submitted {
				if err := conn.(AsyncCaller).Submit(p, []byte("one-way"), 0); err != nil {
					t.Fatal(err)
				}
				if _, err := conn.Roundtrip(p, []byte("fence"), 0); err != nil {
					t.Fatal(err)
				}
			}
			t0 := p.Now()
			p.Spawn("crash", func(p *sim.Proc) {
				p.Sleep(landing - time.Microsecond)
				l.Incoming.Close()
			})
			_, err := conn.RoundtripTimeout(p, msg, 0, time.Second)
			if !errors.Is(err, ErrConnClosed) || p.Now()-t0 != landing {
				t.Errorf("submitted=%v: call to a listener that closed in flight = %v after %v, want ErrConnClosed after %v", submitted, err, p.Now()-t0, landing)
			}
		})
	}
}

// TestSimWarmSubmitAllocatesNothing: once the pipelined lane has been used,
// one-way submissions and their fence cost no allocation in the transport
// (TestSimReplyQueueReuse holds a lone round trip to the same), and the lane
// spawns no process.
func TestSimWarmSubmitAllocatesNothing(t *testing.T) {
	e := sim.NewEngine(1)
	var spawned []string
	e.SetTrace(func(_ time.Duration, proc, event string) {
		if event == "spawn" {
			spawned = append(spawned, proc)
		}
	})
	e.Run("root", func(p *sim.Proc) {
		l := NewListener(e)
		p.SpawnDaemon("server", func(p *sim.Proc) {
			for {
				req, ok := l.Incoming.Recv(p)
				if !ok {
					return
				}
				if req.ReplyTo == nil {
					wire.PutBuf(req.Payload)
					continue
				}
				req.ReplyTo.Send(Response{Payload: req.Payload})
			}
		})
		conn := Dial(e, l, OpenFaaSNet())
		msg := []byte("call")
		submitFence := func() {
			for i := 0; i < 4; i++ {
				req := wire.GetBuf(len(msg))
				req = append(req, msg...)
				conn.Submit(p, req, 0)
			}
			conn.Roundtrip(p, msg, 0)
		}
		for i := 0; i < 10; i++ {
			submitFence()
		}
		if allocs := testing.AllocsPerRun(100, submitFence); allocs != 0 {
			t.Errorf("warm submissions and fence: %v allocs, want 0", allocs)
		}
	})
	if len(spawned) != 2 {
		t.Errorf("spawned %v, want only the root and the server", spawned)
	}
}

// TestSimLateReplyNeverMatchesLaterCall: a call that times out on a reused
// reply queue closes and drops it, so the reply that arrives afterwards is
// refused and no later call — there can be none on the broken connection,
// and a redial never gets the failed queue back from the listener — can
// ever read it.
func TestSimLateReplyNeverMatchesLaterCall(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		l := NewListener(e)
		late := sim.NewQueue[bool](e)
		p.SpawnDaemon("server", func(p *sim.Proc) {
			for n := 0; ; n++ {
				req, ok := l.Incoming.Recv(p)
				if !ok {
					return
				}
				if n == 1 { // the second call's reply misses its deadline
					p.Sleep(time.Second)
					late.Send(req.ReplyTo.TrySend(Response{Payload: []byte("late")}))
					continue
				}
				req.ReplyTo.Send(Response{Payload: req.Payload})
			}
		})
		conn := Dial(e, l, NetProfile{}).(*simConn)
		if _, err := conn.RoundtripTimeout(p, []byte("one"), 0, time.Millisecond); err != nil {
			t.Fatalf("first call: %v", err)
		}
		if len(l.idleReplies) != 1 {
			t.Fatalf("a completed call left %d idle reply queues, want 1", len(l.idleReplies))
		}
		reused := l.idleReplies[0]
		if _, err := conn.RoundtripTimeout(p, []byte("two"), 0, time.Millisecond); !errors.Is(err, ErrCallTimeout) {
			t.Fatalf("second call = %v, want ErrCallTimeout", err)
		}
		if len(l.idleReplies) != 0 || !reused.Closed() {
			t.Fatalf("timed-out reply queue kept for reuse (idle=%d closed=%v)", len(l.idleReplies), reused.Closed())
		}
		if delivered, _ := late.Recv(p); delivered {
			t.Fatal("late reply was accepted by a reply queue")
		}
		if _, err := conn.Roundtrip(p, []byte("three"), 0); !errors.Is(err, ErrConnClosed) {
			t.Fatalf("call after timeout = %v, want ErrConnClosed", err)
		}
		redial := Dial(e, l, NetProfile{}).(*simConn)
		resp, err := redial.Roundtrip(p, []byte("four"), 0)
		if err != nil || string(resp) != "four" {
			t.Fatalf("call on the redialed conn = %q, %v", resp, err)
		}
		if slices.Contains(l.idleReplies, reused) {
			t.Fatal("redialed conn reuses the failed conn's reply queue")
		}
	})
}

// TestTimedOutReplyQueueNeverReused: the listener's idle reply queues are
// shared by all its connections, so a queue whose call timed out must never
// rejoin them — or the late reply would reach whichever caller on another
// connection took the queue next. Conn a's call times out on a queue the
// listener lent it; conn b then calls before and after the late reply is
// sent, and each time reads its own answer.
func TestTimedOutReplyQueueNeverReused(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		l := NewListener(e)
		late := sim.NewQueue[bool](e)
		p.SpawnDaemon("server", func(p *sim.Proc) {
			for {
				req, ok := l.Incoming.Recv(p)
				if !ok {
					return
				}
				if string(req.Payload) != "slow" {
					req.ReplyTo.Send(Response{Payload: req.Payload})
					continue
				}
				replyTo := req.ReplyTo
				p.Spawn("late-reply", func(p *sim.Proc) {
					p.Sleep(time.Second)
					late.Send(replyTo.TrySend(Response{Payload: []byte("late")}))
				})
			}
		})
		a := Dial(e, l, NetProfile{}).(*simConn)
		b := Dial(e, l, NetProfile{})
		if _, err := a.Roundtrip(p, []byte("warm"), 0); err != nil {
			t.Fatalf("warm-up call: %v", err)
		}
		lent := l.idleReplies[len(l.idleReplies)-1]
		if _, err := a.RoundtripTimeout(p, []byte("slow"), 0, time.Millisecond); !errors.Is(err, ErrCallTimeout) {
			t.Fatalf("slow call = %v, want ErrCallTimeout", err)
		}
		if !lent.Closed() || slices.Contains(l.idleReplies, lent) {
			t.Fatal("the timed-out call's reply queue went back to the listener")
		}
		call := func(msg string) {
			if resp, err := b.Roundtrip(p, []byte(msg), 0); err != nil || string(resp) != msg {
				t.Fatalf("conn b's call %q = %q, %v", msg, resp, err)
			}
		}
		call("before")
		if delivered, _ := late.Recv(p); delivered {
			t.Fatal("the late reply was accepted by a reply queue")
		}
		call("after")
	})
}

// TestFreshConnReusesListenerReplyQueue: on a listener whose connections
// have completed round trips before, a fresh connection's first call takes
// an idle reply queue — the connection itself is its one allocation.
func TestFreshConnReusesListenerReplyQueue(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		l := NewListener(e)
		p.SpawnDaemon("server", func(p *sim.Proc) {
			for {
				req, ok := l.Incoming.Recv(p)
				if !ok {
					return
				}
				req.ReplyTo.Send(Response{Payload: req.Payload})
			}
		})
		msg := []byte("hello")
		fresh := func() {
			if _, err := Dial(e, l, OpenFaaSNet()).Roundtrip(p, msg, 0); err != nil {
				t.Fatal(err)
			}
		}
		fresh()
		if allocs := testing.AllocsPerRun(100, fresh); allocs != 1 {
			t.Errorf("dial and first round trip on a warm listener: %v allocs, want 1 (the conn)", allocs)
		}
		if len(l.idleReplies) != 1 {
			t.Errorf("%d idle reply queues after one call at a time, want 1", len(l.idleReplies))
		}
	})
}

// TestSetCallDeadlineBoundsEveryLane: a connection's own deadline applies to
// the calls that cannot bring one — Roundtrip and the vectored RoundtripVec —
// on both transports, from the first message a connection sends.
func TestSetCallDeadlineBoundsEveryLane(t *testing.T) {
	const deadline = 5 * time.Millisecond
	t.Run("sim", func(t *testing.T) {
		e := sim.NewEngine(1)
		e.Run("root", func(p *sim.Proc) {
			l := NewListener(e)
			p.SpawnDaemon("server", func(p *sim.Proc) {
				// Answer nothing.
				for _, ok := l.Incoming.Recv(p); ok; _, ok = l.Incoming.Recv(p) {
				}
			})
			for _, vectored := range []bool{false, true} {
				conn := Dial(e, l, NetProfile{}).(*simConn)
				conn.SetCallDeadline(deadline)
				start := p.Now()
				var err error
				if vectored {
					_, _, err = conn.RoundtripVec(p, []byte("call"), make([]byte, 1<<10), nil)
				} else {
					_, err = conn.Roundtrip(p, []byte("call"), 0)
				}
				if !errors.Is(err, ErrCallTimeout) {
					t.Fatalf("vectored=%v: silent server = %v, want ErrCallTimeout", vectored, err)
				}
				if took := p.Now() - start; took != deadline {
					t.Fatalf("vectored=%v: timed out after %v, want the %v deadline", vectored, took, deadline)
				}
			}
		})
	})
	t.Run("tcp", func(t *testing.T) {
		e := sim.NewOpenEngine(1)
		defer e.Stop()
		inbox := sim.NewQueue[Request](e) // nobody serves it: every call hangs
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				ServeConn(e, conn, inbox)
			}
		}()
		for _, vectored := range []bool{false, true} {
			caller, err := DialTCP(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			caller.(DeadlineCaller).SetCallDeadline(20 * time.Millisecond)
			if vectored {
				_, _, err = caller.(VecCaller).RoundtripVec(nil, []byte("call"), make([]byte, 1<<10), nil)
			} else {
				_, err = caller.Roundtrip(nil, []byte("call"), 0)
			}
			if !errors.Is(err, ErrCallTimeout) {
				t.Fatalf("vectored=%v: silent server = %v, want ErrCallTimeout", vectored, err)
			}
			caller.Close()
		}
	})
}
