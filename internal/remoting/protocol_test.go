package remoting

import (
	"bytes"
	"io"
	"testing"
	"time"

	"dgsf/internal/remoting/wire"
	"dgsf/internal/sim"
)

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
			if err := WriteFrame(&w, meta, bulk, 42); err != nil {
				t.Fatal(err)
			}
			dst := make([]byte, tc.bulk)
			gotMeta, gotBulk, data, err := ReadFrame(&w, nil, dst)
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
	if err := WriteFrame(&w, []byte("m"), bulk, 0); err != nil {
		t.Fatal(err)
	}
	_, gotBulk, _, err := ReadFrame(&w, nil, make([]byte, 16))
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
		if err := WriteFrame(&w, []byte("meta"), bytes.Repeat([]byte{1}, 8<<10), 0); err != nil {
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
			_, _, _, err := ReadFrame(bytes.NewReader(frame), nil, nil)
			if err == nil {
				t.Fatal("corrupt frame accepted")
			}
			if !IsConnFault(err) {
				t.Fatalf("corrupt frame error is not a typed conn fault: %v", err)
			}
		})
	}
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
					req.ReplyTo.Send(Response{Payload: append([]byte("re:"), req.Payload...)})
				})
			}
		})
		conn := Dial(e, l, NetProfile{RTT: 100 * time.Microsecond})
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
	if err := WriteFrame(io.Discard, meta, bulk, 0); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := WriteFrame(io.Discard, meta, bulk, 0); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("WriteFrame(1MiB bulk) allocates %.1f/op, want 0", avg)
	}
}

// TestWriteFrameLargeZeroAllocs pins the size-classed pool: a frame whose
// metadata alone is above the 64 KiB small-pool cap does not allocate per call.
func TestWriteFrameLargeZeroAllocs(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("alloc counts are perturbed under the race detector")
	}
	payload := make([]byte, 1<<20)
	if err := WriteFrame(io.Discard, payload, nil, 0); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := WriteFrame(io.Discard, payload, nil, 0); err != nil {
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
	if err := WriteFrame(&w, meta, bulk, 0); err != nil {
		t.Fatal(err)
	}
	frame := w.Bytes()
	dst := make([]byte, len(bulk))
	readBuf := make([]byte, 0, 4<<10)
	r := bytes.NewReader(frame)
	if avg := testing.AllocsPerRun(200, func() {
		r.Reset(frame)
		_, gotBulk, _, err := ReadFrame(r, readBuf, dst)
		if err != nil || len(gotBulk) != len(bulk) {
			t.Fatal("bad frame")
		}
	}); avg != 0 {
		t.Fatalf("ReadFrame(1MiB bulk) allocates %.1f/op, want 0", avg)
	}
}

func TestWireStatsCountTraffic(t *testing.T) {
	before := SnapshotWireStats()
	var w bytes.Buffer
	if err := WriteFrame(&w, []byte("meta"), make([]byte, 8<<10), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadFrame(&w, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&w, []byte("m2"), nil, 0); err != nil {
		t.Fatal(err)
	}
	d := SnapshotWireStats().Sub(before)
	if d.FramesV2 != 2 || d.FramesV1 != 0 {
		t.Fatalf("frame counters = v1:%d v2:%d, want 0 and 2", d.FramesV1, d.FramesV2)
	}
	wantTx := int64(frameHeaderLen+4+(8<<10)) + int64(frameHeaderLen+2)
	if d.BytesTx != wantTx {
		t.Fatalf("BytesTx = %d, want %d", d.BytesTx, wantTx)
	}
	if d.BytesRx != int64(frameHeaderLen+4+(8<<10)) {
		t.Fatalf("BytesRx = %d, want the first frame", d.BytesRx)
	}
}
