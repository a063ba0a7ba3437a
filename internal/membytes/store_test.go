package membytes

import (
	"bytes"
	"errors"
	"testing"

	"dgsf/internal/cuda"
)

const base cuda.DevPtr = 0x7f00_0000_0000

func fill(v byte, n int) []byte { return bytes.Repeat([]byte{v}, n) }

func TestCopyInAndViewRoundTrip(t *testing.T) {
	var s Store
	if got := s.View(base, 0, 16); !bytes.Equal(got, make([]byte, 16)) {
		t.Fatalf("never-written bytes read as %v, want zeros", got)
	}
	s.CopyIn(base, 100, fill(7, 50))
	want := make([]byte, 200)
	copy(want[100:], fill(7, 50))
	if got := s.View(base, 0, 200); !bytes.Equal(got, want) {
		t.Fatal("interior write: bytes around it are not zeros, or it moved")
	}
	if got := s.View(base, 120, 10); !bytes.Equal(got, fill(7, 10)) {
		t.Fatalf("interior view = %v", got)
	}
	if got := s.View(base, 5, 0); got != nil {
		t.Fatalf("empty view = %v, want nil", got)
	}
	if _, held, capacity := s.Held(); held != 200 || capacity != 200 {
		t.Fatalf("store holds %d bytes in %d of memory, want the 200 materialised and no more", held, capacity)
	}

	// An overwrite keeps the backing: same array, no growth.
	before := &s.View(base, 0, 200)[0]
	s.CopyIn(base, 0, fill(9, 200))
	s.CopyIn(base, 0, fill(3, 10))
	if after := &s.View(base, 0, 200)[0]; after != before {
		t.Fatal("an overwrite within the held bytes replaced the backing")
	}
	if got := s.View(base, 0, 12); !bytes.Equal(got, append(fill(3, 10), 9, 9)) {
		t.Fatalf("short overwrite = %v, want it over the longer one's head", got)
	}
	// A view cannot be appended into the bytes behind it.
	v := s.View(base, 0, 10)
	_ = append(v, 0xFF)
	if s.View(base, 10, 1)[0] != 9 {
		t.Fatal("append to a view wrote into the store")
	}
}

func TestViewZeroExtendsInPlaceOverStaleCapacity(t *testing.T) {
	var s Store
	buf := fill(0xEE, 1024) // an adopted buffer arrives with whatever its tail held
	if spare := s.Adopt(base, 0, buf[:100]); spare != nil {
		t.Fatalf("first adopt handed back %d bytes", len(spare))
	}
	got := s.View(base, 0, 1024)
	if &got[0] != &buf[0] {
		t.Fatal("extension within capacity moved the backing")
	}
	if !bytes.Equal(got[:100], fill(0xEE, 100)) || !bytes.Equal(got[100:], make([]byte, 924)) {
		t.Fatal("extension exposed stale bytes from the buffer's capacity")
	}
}

func TestAdoptSwapsBackingsAndCopiesNothing(t *testing.T) {
	var s Store
	a, b, c := fill(1, 4096), fill(2, 4096), fill(3, 8192)
	if spare := s.Adopt(base, 0, a); spare != nil {
		t.Fatal("first adopt has nothing to hand back")
	}
	if spare := s.Adopt(base, 0, b); &spare[0] != &a[0] {
		t.Fatal("second adopt did not hand back the displaced backing")
	}
	if spare := s.Adopt(base, 0, c); &spare[0] != &b[0] || &s.View(base, 0, 8192)[0] != &c[0] {
		t.Fatal("a longer adopt did not replace the backing")
	}
	if s.Copied() != 0 {
		t.Fatalf("three adopts copied %d bytes", s.Copied())
	}

	// Shorter than what is held, or not at the base: copied in, and the
	// source comes back.
	short := fill(4, 100)
	if spare := s.Adopt(base, 0, short); &spare[0] != &short[0] {
		t.Fatal("a partial adopt kept the source")
	}
	inner := fill(5, 100)
	if spare := s.Adopt(base, 200, inner); &spare[0] != &inner[0] {
		t.Fatal("an interior adopt kept the source")
	}
	if s.Copied() != 200 {
		t.Fatalf("two copied-in adopts moved %d bytes, want 200", s.Copied())
	}
	got := s.View(base, 0, 8192)
	if &got[0] != &c[0] || got[0] != 4 || got[100] != 3 || got[200] != 5 || got[300] != 3 {
		t.Fatal("copied-in adopts did not land in the held backing")
	}
}

func TestLentBackingIsNeitherOverwrittenNorHandedBack(t *testing.T) {
	for _, write := range []string{"copy-in", "adopt", "drop"} {
		t.Run(write, func(t *testing.T) {
			var s Store
			s.CopyIn(base, 0, fill(1, 4096))
			view := s.View(base, 0, 4096)
			lend := s.Lend()
			switch write {
			case "copy-in":
				s.CopyIn(base, 10, fill(2, 100))
				if s.View(base, 10, 1)[0] != 2 || s.View(base, 0, 1)[0] != 1 {
					t.Fatal("the copy on write lost bytes")
				}
			case "adopt":
				if spare := s.Adopt(base, 0, fill(2, 4096)); spare != nil {
					t.Fatal("a lent backing was handed back for reuse")
				}
			case "drop":
				if spare := s.Drop(base); spare != nil {
					t.Fatal("a lent backing was handed back for reuse")
				}
			}
			if !bytes.Equal(view, fill(1, 4096)) {
				t.Fatal("the lent view changed")
			}
			lend.Release()

			// With the lend over, writes land in place and backings come back.
			s.CopyIn(base, 0, fill(3, 4096))
			before := &s.View(base, 0, 4096)[0]
			s.CopyIn(base, 0, fill(4, 4096))
			if &s.View(base, 0, 4096)[0] != before {
				t.Fatal("a write after the release was still copied aside")
			}
			if spare := s.Drop(base); spare == nil || &spare[0] != before {
				t.Fatal("a drop after the release did not hand back the backing")
			}
			if n, _, held := s.Held(); n != 0 || held != 0 {
				t.Fatalf("store holds %d bytes in %d allocations after the drop", held, n)
			}
		})
	}
}

func TestOffset(t *testing.T) {
	const size = 4096
	cases := []struct {
		ptr  cuda.DevPtr
		n    int64
		off  int64
		fail bool
	}{
		{base, 0, 0, false},
		{base, size, 0, false},
		{base + 4000, 96, 4000, false},
		{base + size - 1, 1, size - 1, false},
		{base, size + 1, 0, true},
		{base + 4000, 97, 0, true},
		{base, -1, 0, true},
		{base + 1, -1, 0, true},
		{base, 1 << 40, 0, true},
		{base + 10, 1<<63 - 1, 0, true},
	}
	for _, c := range cases {
		off, err := Offset(base, size, c.ptr, c.n)
		if c.fail {
			if !errors.Is(err, cuda.ErrInvalidValue) {
				t.Errorf("Offset(base+%d, %d) = %d, %v; want ErrInvalidValue", c.ptr-base, c.n, off, err)
			}
			continue
		}
		if err != nil || off != c.off {
			t.Errorf("Offset(base+%d, %d) = %d, %v; want %d", c.ptr-base, c.n, off, err, c.off)
		}
	}
}
