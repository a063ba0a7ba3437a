package remoting

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// writeRecorder keeps each Write's slice as passed, so a test can tell a
// coalesced frame (one write) from a vectored one (header+meta, then the
// caller's own bulk slice).
type writeRecorder struct{ writes [][]byte }

func (w *writeRecorder) Write(b []byte) (int, error) {
	w.writes = append(w.writes, b)
	return len(b), nil
}

// TestGoldenWireBytes pins the bytes on the wire. The vectors were captured
// at commit cd192c2, before the codec was unified: a change to any of them
// is a protocol break, not a refactor. Frames too long to spell out are pinned by their first 48 bytes
// and the SHA-256 of the whole.
func TestGoldenWireBytes(t *testing.T) {
	meta := []byte("dgsf-meta")
	pattern := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7 + 3)
		}
		return b
	}
	cases := []struct {
		name       string
		meta, bulk []byte
		data       int64
		writes     int // Write calls the frame must take
		head       string
		sum        string
	}{
		{"v2_no_bulk", meta, nil, -2, 1,
			"d60200000900000000000000feffffffffffffff646773662d6d657461",
			"df64ac3a52f46ca29c3229cefbc766c734ebe007296e652b1d2d1a59a739f837"},
		{"v2_bulk_1KiB_coalesced", meta, pattern(1 << 10), 77, 1,
			"d602010009000000000400004d00000000000000646773662d6d657461030a11181f262d343b424950575e656c737a81",
			"0216860ed0ba25322bfa4a7e0714db9ba4cfad60d7704114791d7993f55af810"},
		{"v2_bulk_64KiB_vectored", meta, pattern(64 << 10), 1 << 40, 2,
			"d602010009000000000001000000000000010000646773662d6d657461030a11181f262d343b424950575e656c737a81",
			"7883c6c33bc670baf3f05f597eb4fe9ad5dd9433e8db6f2695c09bf3b8c3c6ed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rec writeRecorder
			var onWire []byte
			if err := WriteFrame(&rec, tc.meta, tc.bulk, tc.data); err != nil {
				t.Fatal(err)
			}
			if len(rec.writes) != tc.writes {
				t.Fatalf("frame took %d writes, want %d", len(rec.writes), tc.writes)
			}
			if tc.writes == 2 && &rec.writes[1][0] != &tc.bulk[0] {
				t.Fatal("the bulk vector is a copy, not the caller's slice")
			}
			// The first write aliases a pooled buffer the writer has released:
			// concatenate before anything else frames a message.
			for _, b := range rec.writes {
				onWire = append(onWire, b...)
			}
			head := onWire
			if len(head) > 48 {
				head = head[:48]
			}
			if got := hex.EncodeToString(head); got != tc.head {
				t.Fatalf("frame starts\n  %s\nwant\n  %s", got, tc.head)
			}
			if got := sha256.Sum256(onWire); hex.EncodeToString(got[:]) != tc.sum {
				t.Fatalf("frame of %d bytes hashes to %x, want %s", len(onWire), got, tc.sum)
			}

			gotMeta, gotBulk, data, err := ReadFrame(bytes.NewReader(onWire), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if data != tc.data || !bytes.Equal(gotMeta, tc.meta) || !bytes.Equal(gotBulk, tc.bulk) {
				t.Fatalf("read back %d meta / %d bulk / data %d, want %d / %d / %d",
					len(gotMeta), len(gotBulk), data, len(tc.meta), len(tc.bulk), tc.data)
			}
		})
	}
}
