package remoting

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dgsf/internal/remoting/wire"
)

// FuzzReadFrame drives the frame reader with arbitrary byte streams, seeded
// with metadata-only frames — truncated headers, mid-frame truncation,
// hostile length prefixes — and checks the invariants of checkReadFrame.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	if err := WriteFrame(&good, []byte("hello dgsf"), nil, 10); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())                    // well-formed frame
	f.Add(good.Bytes()[:frameHeaderLen+3]) // mid-frame truncation
	f.Add(good.Bytes()[:5])                // mid-header truncation
	f.Add([]byte{})                        // empty stream

	hostile := append([]byte(nil), good.Bytes()[:frameHeaderLen]...)
	binary.LittleEndian.PutUint32(hostile[4:8], 0xFFFF_FFFF) // over the frame cap
	f.Add(hostile)

	big := append([]byte(nil), good.Bytes()[:frameHeaderLen]...)
	binary.LittleEndian.PutUint32(big[4:8], maxFrameLen) // at the cap, body missing
	f.Add(append(big, bytes.Repeat([]byte{0xAB}, 1024)...))

	f.Fuzz(checkReadFrame)
}

// FuzzReadFrameV2 drives the frame reader seeded with frames that carry a
// bulk region (introduced by protocol version 2, hence the name) and with
// corrupt headers: bad magic, bad version, bulk bytes without the bulk flag,
// hostile meta/bulk lengths.
func FuzzReadFrameV2(f *testing.F) {
	var noBulk, small, big bytes.Buffer
	if err := WriteFrame(&noBulk, []byte("meta only"), nil, 3); err != nil {
		f.Fatal(err)
	}
	if err := WriteFrame(&small, []byte("m"), bytes.Repeat([]byte{1}, 100), 0); err != nil {
		f.Fatal(err)
	}
	if err := WriteFrame(&big, []byte("m"), bytes.Repeat([]byte{2}, vecCoalesceMax+100), -1); err != nil {
		f.Fatal(err)
	}
	f.Add(noBulk.Bytes())
	f.Add(small.Bytes())
	f.Add(big.Bytes())                       // vectored-path frame
	f.Add(big.Bytes()[:frameHeaderLen+1])    // truncated after the header
	f.Add(big.Bytes()[:5])                   // mid-header truncation
	f.Add([]byte{})                          // empty stream
	f.Add([]byte{FrameMagic, 9, 0, 0})       // future version
	f.Add([]byte{0x00, byte(ProtoV2), 0, 0}) // bad magic
	noFlag := append([]byte(nil), small.Bytes()...)
	noFlag[2], noFlag[3] = 0, 0 // strip flagBulk while bulkLen stays set
	f.Add(noFlag)
	hostile := make([]byte, frameHeaderLen)
	hostile[0], hostile[1] = FrameMagic, byte(ProtoV2)
	binary.LittleEndian.PutUint32(hostile[4:8], 0xFFFF_FFFF)
	binary.LittleEndian.PutUint32(hostile[8:12], 0xFFFF_FFFF)
	f.Add(hostile)

	f.Fuzz(checkReadFrame)
}

// checkReadFrame holds the two invariants every caller of ReadFrame relies
// on: a failure is always a typed connection fault (IsConnFault), and a
// success never fabricates bytes that were not on the wire.
func checkReadFrame(t *testing.T, in []byte) {
	payload, bulk, _, err := ReadFrame(bytes.NewReader(in), nil, nil)
	if err != nil {
		if !IsConnFault(err) {
			t.Fatalf("ReadFrame error is not a typed conn fault: %v", err)
		}
		return
	}
	if len(in) < frameHeaderLen {
		t.Fatalf("ReadFrame succeeded on a %d-byte stream", len(in))
	}
	metaLen := binary.LittleEndian.Uint32(in[4:8])
	bulkLen := binary.LittleEndian.Uint32(in[8:12])
	if uint32(len(payload)) != metaLen || uint32(len(bulk)) != bulkLen {
		t.Fatalf("lengths %d/%d disagree with header %d/%d", len(payload), len(bulk), metaLen, bulkLen)
	}
	body := in[frameHeaderLen:]
	if !bytes.Equal(payload, body[:len(payload)]) {
		t.Fatal("metadata does not match wire bytes")
	}
	if !bytes.Equal(bulk, body[len(payload):len(payload)+len(bulk)]) {
		t.Fatal("bulk does not match wire bytes")
	}
}

// FuzzFrameRoundtrip checks WriteFrame|ReadFrame is the identity on the
// metadata and data of a frame without a bulk region, including metadata
// beyond the small pool's size class.
func FuzzFrameRoundtrip(f *testing.F) {
	f.Add([]byte("payload"), int64(7))
	f.Add([]byte{}, int64(0))
	f.Add(bytes.Repeat([]byte{0x5A}, wire.MaxSmallBuf+17), int64(-1)) // beyond the pooled size class
	f.Fuzz(func(t *testing.T, payload []byte, data int64) {
		checkFrameRoundtrip(t, payload, nil, data, false)
	})
}

// FuzzFrameRoundtripV2 checks WriteFrame|ReadFrame is the identity on
// metadata, bulk and data, across the coalesced and vectored write paths and
// both scatter destinations (pre-sized and absent).
func FuzzFrameRoundtripV2(f *testing.F) {
	f.Add([]byte("meta"), []byte("bulk"), int64(7), true)
	f.Add([]byte{}, []byte{}, int64(0), false)
	f.Add([]byte("m"), bytes.Repeat([]byte{0x5A}, vecCoalesceMax+17), int64(-1), true) // vectored path
	f.Fuzz(checkFrameRoundtrip)
}

// checkFrameRoundtrip writes one frame and reads it back, into a pre-sized
// bulk destination when presize is set, and requires every field unchanged.
func checkFrameRoundtrip(t *testing.T, meta, bulk []byte, data int64, presize bool) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, meta, bulk, data); err != nil {
		t.Fatal(err)
	}
	var dst []byte
	if presize {
		dst = make([]byte, len(bulk))
	}
	gotMeta, gotBulk, gotData, err := ReadFrame(&buf, nil, dst)
	if err != nil {
		t.Fatal(err)
	}
	if gotData != data || !bytes.Equal(gotMeta, meta) || !bytes.Equal(gotBulk, bulk) {
		t.Fatalf("roundtrip mismatch: %d meta/%d bulk/%d data, want %d/%d/%d",
			len(gotMeta), len(gotBulk), gotData, len(meta), len(bulk), data)
	}
}
