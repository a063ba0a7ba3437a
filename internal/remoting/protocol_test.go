package remoting

import (
	"bytes"
	"io"
	"testing"
	"time"

	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

func TestHandleHelloNegotiation(t *testing.T) {
	// A well-formed hello against a v2 server negotiates v2.
	reply, ver, ok := HandleHello(helloRequest(MaxProtoVersion), MaxProtoVersion)
	if !ok || ver != ProtoV2 {
		t.Fatalf("HandleHello = ver %d ok %v, want v2 ok", ver, ok)
	}
	if v, ok := parseHelloReply(reply); !ok || v != ProtoV2 {
		t.Fatalf("parseHelloReply = %d %v, want v2 ok", v, ok)
	}

	// A future v3 client is capped at what the server speaks.
	if _, ver, ok := HandleHello(helloRequest(3), ProtoV2); !ok || ver != ProtoV2 {
		t.Fatalf("v3 hello = ver %d ok %v, want capped to v2", ver, ok)
	}

	// A v1-only server refuses to answer: the hello falls through to the
	// unknown-call path, whose error status the dialer reads as "v1 peer".
	if _, _, ok := HandleHello(helloRequest(ProtoV2), ProtoV1); ok {
		t.Fatal("v1-only server answered a hello")
	}

	// Malformed hellos (wrong length, wrong magic) are rejected.
	if _, _, ok := HandleHello([]byte{0xFC, 0xFF, 0x00}, ProtoV2); ok {
		t.Fatal("short hello accepted")
	}
	bad := helloRequest(ProtoV2)
	bad[2] = 0x00
	if _, _, ok := HandleHello(bad, ProtoV2); ok {
		t.Fatal("hello with corrupt magic accepted")
	}

	// An error-status reply (a v1 server refusing the call) means v1.
	if _, ok := parseHelloReply([]byte{1, 0, 0, 0}); ok {
		t.Fatal("error reply parsed as a negotiation")
	}
	// A truncated or version-less reply also means v1.
	if _, ok := parseHelloReply([]byte{0, 0, 0, 0}); ok {
		t.Fatal("truncated reply parsed as a negotiation")
	}
}

func TestFrameV2RoundTrip(t *testing.T) {
	cases := []struct {
		name string
		bulk int
	}{
		{"no_bulk", 0},
		{"coalesced", 512},             // under vecCoalesceMax: single write
		{"vectored", 256 << 10},        // two-vector writev path
		{"large_class", (4 << 20) + 9}, // odd size in a large pool class
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			meta := []byte("metadata-bytes")
			bulk := bytes.Repeat([]byte{0x5A}, tc.bulk)
			var w bytes.Buffer
			if err := WriteFrame(&w, ProtoV2, meta, bulk, 42); err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, tc.bulk)
			gotMeta, gotBulk, data, err := ReadFrame(&w, ProtoV2, nil, dst)
			if err != nil {
				t.Fatal(err)
			}
			if data != 42 || !bytes.Equal(gotMeta, meta) {
				t.Fatalf("meta round trip: data=%d meta=%q", data, gotMeta)
			}
			if tc.bulk == 0 {
				if gotBulk != nil {
					t.Fatalf("phantom bulk of %d bytes", len(gotBulk))
				}
				return
			}
			if !bytes.Equal(gotBulk, bulk) {
				t.Fatal("bulk bytes corrupted in transit")
			}
			// The scatter read must land in the caller's buffer, not a copy:
			// that is the zero-allocation contract.
			if &gotBulk[0] != &dst[0] {
				t.Fatal("bulk was not scatter-read into the caller's buffer")
			}
		})
	}
}

func TestReadFrameGrowsWhenBulkDstTooSmall(t *testing.T) {
	bulk := bytes.Repeat([]byte{7}, 8<<10)
	var w bytes.Buffer
	if err := WriteFrame(&w, ProtoV2, []byte("m"), bulk, 0); err != nil {
		t.Fatal(err)
	}
	_, gotBulk, _, err := ReadFrame(&w, ProtoV2, nil, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBulk, bulk) {
		t.Fatal("grown bulk read corrupted the bytes")
	}
}

func TestReadFrameRejectsCorruptV2Headers(t *testing.T) {
	good := func() []byte {
		var w bytes.Buffer
		if err := WriteFrame(&w, ProtoV2, []byte("meta"), bytes.Repeat([]byte{1}, 8<<10), 0); err != nil {
			t.Fatal(err)
		}
		return w.Bytes()
	}
	cases := []struct {
		name   string
		mutate func(b []byte)
	}{
		{"bad_magic", func(b []byte) { b[0] = 0x00 }},
		{"bad_version", func(b []byte) { b[1] = 9 }},
		{"bulk_without_flag", func(b []byte) { b[2], b[3] = 0, 0 }},
		{"hostile_meta_len", func(b []byte) { b[4], b[5], b[6], b[7] = 0xFF, 0xFF, 0xFF, 0xFF }},
		{"hostile_bulk_len", func(b []byte) { b[8], b[9], b[10], b[11] = 0xFF, 0xFF, 0xFF, 0xFF }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frame := good()
			tc.mutate(frame)
			_, _, _, err := ReadFrame(bytes.NewReader(frame), ProtoV2, nil, nil)
			if err == nil {
				t.Fatal("corrupt frame accepted")
			}
			if !IsConnFault(err) {
				t.Fatalf("corrupt frame error is not a typed conn fault: %v", err)
			}
		})
	}
}

// TestSimNegotiationCostsOneRTT pins the negotiation's cost model: the first
// call on a v2-capable connection pays exactly one extra round trip (the
// hello), the steady state pays nothing, and the negotiated version sticks.
func TestSimNegotiationCostsOneRTT(t *testing.T) {
	const rtt = 100 * time.Microsecond
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		l := NewListener(e)
		p.SpawnDaemon("server", func(p *sim.Proc) {
			for {
				req, ok := l.Incoming.Recv(p)
				if !ok {
					return
				}
				if reply, _, ok := HandleHello(req.Payload, MaxProtoVersion); ok {
					req.ReplyTo.TrySend(Response{Payload: reply, Proto: ProtoV1})
					continue
				}
				req.ReplyTo.Send(Response{Payload: req.Payload, Proto: req.Proto})
			}
		})
		// Zero-bandwidth profile: transfer time is zero, so elapsed time
		// counts round trips exactly.
		conn := Dial(e, l, NetProfile{RTT: rtt})
		start := p.Now()
		if _, err := conn.Roundtrip(p, []byte("first"), 0); err != nil {
			t.Fatal(err)
		}
		if got := p.Now() - start; got != 2*rtt {
			t.Fatalf("first call took %v, want hello + call = 2×RTT (%v)", got, 2*rtt)
		}
		start = p.Now()
		if _, err := conn.Roundtrip(p, []byte("second"), 0); err != nil {
			t.Fatal(err)
		}
		if got := p.Now() - start; got != rtt {
			t.Fatalf("steady-state call took %v, want exactly the RTT (%v)", got, rtt)
		}
		if v := conn.(VecCaller).ProtoVersion(); v != ProtoV2 {
			t.Fatalf("negotiated v%d, want v2", v)
		}
	})
}

// TestSimSharedConnConcurrentCallers pins the per-call reply matching: two
// processes sharing one connection, one of them parked in a slow call, must
// each receive their own reply.
func TestSimSharedConnConcurrentCallers(t *testing.T) {
	e := sim.NewEngine(1)
	e.Run("root", func(p *sim.Proc) {
		l := NewListener(e)
		p.SpawnDaemon("server", func(p *sim.Proc) {
			for {
				req, ok := l.Incoming.Recv(p)
				if !ok {
					return
				}
				p.Spawn("worker", func(p *sim.Proc) {
					if string(req.Payload) == "slow" {
						p.Sleep(10 * time.Millisecond)
					}
					req.ReplyTo.Send(Response{Payload: append([]byte("re:"), req.Payload...), Proto: req.Proto})
				})
			}
		})
		conn := DialVersion(e, l, NetProfile{RTT: 100 * time.Microsecond}, ProtoV1)
		done := sim.NewQueue[string](e)
		p.Spawn("slow-caller", func(p *sim.Proc) {
			resp, err := conn.Roundtrip(p, []byte("slow"), 0)
			if err != nil {
				t.Errorf("slow call: %v", err)
			}
			done.Send(string(resp))
		})
		p.Sleep(time.Millisecond) // the slow call is in flight
		resp, err := conn.Roundtrip(p, []byte("fast"), 0)
		if err != nil {
			t.Fatal(err)
		}
		if string(resp) != "re:fast" {
			t.Fatalf("fast caller got %q — reply crosstalk", resp)
		}
		slow, _ := done.Recv(p)
		if slow != "re:slow" {
			t.Fatalf("slow caller got %q — reply crosstalk", slow)
		}
	})
}

// TestWriteFrameVectoredZeroAllocs is the vectored lane's allocation contract: a
// 1 MiB vectored frame write allocates nothing — no coalescing copy, no
// size-proportional buffer.
func TestWriteFrameVectoredZeroAllocs(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("alloc counts are perturbed under the race detector")
	}
	meta := make([]byte, 64)
	bulk := make([]byte, 1<<20)
	// Warm the pools.
	if err := WriteFrame(io.Discard, ProtoV2, meta, bulk, 0); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := WriteFrame(io.Discard, ProtoV2, meta, bulk, 0); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("WriteFrame(v2, 1MiB bulk) allocates %.1f/op, want 0", avg)
	}
}

// TestWriteFrameLargeZeroAllocs pins the size-classed pool fix: a v1 frame
// above the old 64 KiB pool cap no longer allocates per call.
func TestWriteFrameLargeZeroAllocs(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("alloc counts are perturbed under the race detector")
	}
	payload := make([]byte, 1<<20)
	if err := WriteFrame(io.Discard, ProtoV1, payload, nil, 0); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := WriteFrame(io.Discard, ProtoV1, payload, nil, 0); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("WriteFrame(1MiB) allocates %.1f/op, want 0 (size-classed pool)", avg)
	}
}

// TestReadFrameScatterZeroAllocs: reading a 1 MiB bulk frame into a pre-sized
// caller buffer allocates nothing.
func TestReadFrameScatterZeroAllocs(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("alloc counts are perturbed under the race detector")
	}
	meta := make([]byte, 64)
	bulk := make([]byte, 1<<20)
	var w bytes.Buffer
	if err := WriteFrame(&w, ProtoV2, meta, bulk, 0); err != nil {
		t.Fatal(err)
	}
	frame := w.Bytes()
	dst := make([]byte, len(bulk))
	readBuf := make([]byte, 0, 4<<10)
	r := bytes.NewReader(frame)
	if avg := testing.AllocsPerRun(200, func() {
		r.Reset(frame)
		_, gotBulk, _, err := ReadFrame(r, ProtoV2, readBuf, dst)
		if err != nil || len(gotBulk) != len(bulk) {
			t.Fatal("bad frame")
		}
	}); avg != 0 {
		t.Fatalf("ReadFrame(v2, 1MiB bulk) allocates %.1f/op, want 0", avg)
	}
}

func TestWireStatsCountTraffic(t *testing.T) {
	before := SnapshotWireStats()
	var w bytes.Buffer
	if err := WriteFrame(&w, ProtoV2, []byte("meta"), make([]byte, 8<<10), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadFrame(&w, ProtoV2, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&w, ProtoV1, []byte("v1"), nil, 0); err != nil {
		t.Fatal(err)
	}
	d := SnapshotWireStats().Sub(before)
	if d.FramesV2 != 1 || d.FramesV1 != 1 {
		t.Fatalf("frame counters = v1:%d v2:%d, want 1 and 1", d.FramesV1, d.FramesV2)
	}
	wantTx := int64(frameHeaderLenV2+4+(8<<10)) + int64(frameHeaderLenV1+2)
	if d.BytesTx != wantTx {
		t.Fatalf("BytesTx = %d, want %d", d.BytesTx, wantTx)
	}
	if d.BytesRx != int64(frameHeaderLenV2+4+(8<<10)) {
		t.Fatalf("BytesRx = %d, want the v2 frame", d.BytesRx)
	}
}
