package wire

import (
	"slices"
	"strings"
	"testing"
)

// FuzzDecoder feeds arbitrary bytes to every composite decode path and
// checks the properties the zero-alloc data path depends on: no panic, no
// allocation larger than the input justifies (length-prefix clamping via
// sliceCap), and sticky-error behavior — after any failure every further
// read returns the zero value.
func FuzzDecoder(f *testing.F) {
	// Seeds from real encoder output so the fuzzer starts on the happy path.
	var e Encoder
	e.Str("model.onnx")
	e.U64s([]uint64{1, 2, 3})
	e.Strs([]string{"a", "bb", "ccc"})
	f.Add(e.Bytes())

	var e2 Encoder
	e2.U32(0xFFFF_FFFF) // hostile slice length prefix
	f.Add(e2.Bytes())

	var e3 Encoder
	e3.U32(1 << 25) // over maxSliceLen but plausible-looking
	e3.U64(42)
	f.Add(e3.Bytes())

	f.Add([]byte{})

	// Interner seed: "gs-15" and "gs-60" share a slot, and a name longer than
	// the interner keeps, each repeated.
	var e4 Encoder
	long := strings.Repeat("n", internMaxLen+1)
	for _, s := range []string{"gs-15", "gs-60", "gs-15", long, "gs-60", long} {
		e4.Str(s)
	}
	e4.Strs([]string{"gs-60", "gs-15"})
	f.Add(e4.Bytes())

	f.Fuzz(func(t *testing.T, in []byte) {
		// Each composite decode runs on its own decoder so one path's
		// failure cannot mask another's.
		checkU64s(t, in)
		checkStrs(t, in)
		checkStr(t, in)
		checkBytesField(t, in)
		checkInterned(t, in)

		d := NewDecoder(in)
		_ = d.Vec3()
		_ = d.HostBuf()
		_ = d.Prop()
		_ = d.Attrs()
		_ = d.Launch()
		_ = d.DevPtrs()
		_ = d.FnPtrs()

		// Sticky error: once failed, everything reads as zero.
		bad := NewDecoder(in)
		for bad.Err() == nil && bad.Remaining() > 0 {
			_ = bad.U64s()
		}
		if bad.Err() != nil {
			if bad.U64() != 0 || bad.Str() != "" || bad.U64s() != nil {
				t.Fatal("reads after a decode error must return zero values")
			}
		}
	})
}

func checkU64s(t *testing.T, in []byte) {
	d := NewDecoder(in)
	out := d.U64s()
	if d.Err() != nil {
		return
	}
	// Clamping property: a successful decode can never have consumed (or
	// allocated) more element bytes than the input held after the prefix.
	if len(out)*8 > len(in) {
		t.Fatalf("U64s produced %d elements from %d input bytes", len(out), len(in))
	}
	if cap(out) != 0 && cap(out)*8 > len(in) {
		t.Fatalf("U64s over-allocated: cap %d from %d input bytes", cap(out), len(in))
	}
}

func checkStrs(t *testing.T, in []byte) {
	d := NewDecoder(in)
	out := d.Strs()
	if d.Err() != nil {
		return
	}
	total := 0
	for _, s := range out {
		total += len(s)
	}
	if total > len(in) {
		t.Fatalf("Strs produced %d string bytes from %d input bytes", total, len(in))
	}
}

func checkStr(t *testing.T, in []byte) {
	d := NewDecoder(in)
	s := d.Str()
	if d.Err() == nil && len(s) > len(in) {
		t.Fatalf("Str produced %d bytes from %d input bytes", len(s), len(in))
	}
}

func checkBytesField(t *testing.T, in []byte) {
	d := NewDecoder(in)
	b := d.BytesField()
	if d.Err() == nil && len(b) > len(in) {
		t.Fatalf("BytesField produced %d bytes from %d input bytes", len(b), len(in))
	}
}

// checkInterned decodes in as a run of strings, then as a string slice, with
// and without an Interner: the results must be equal, errors included.
func checkInterned(t *testing.T, in []byte) {
	var names Interner
	plain, interned := NewDecoder(in), NewDecoder(in)
	interned.SetInterner(&names)
	for plain.Err() == nil && plain.Remaining() > 0 {
		if a, b := plain.Str(), interned.Str(); a != b {
			t.Fatalf("Str: %q plain, %q interned", a, b)
		}
	}
	if plain.Err() != interned.Err() || plain.Remaining() != interned.Remaining() {
		t.Fatalf("Str: plain ends at %d (%v), interned at %d (%v)", plain.Remaining(), plain.Err(), interned.Remaining(), interned.Err())
	}
	plain, interned = NewDecoder(in), NewDecoder(in)
	interned.SetInterner(&names)
	a, b := plain.Strs(), interned.Strs()
	if !slices.Equal(a, b) || plain.Err() != interned.Err() {
		t.Fatalf("Strs: %q (%v) plain, %q (%v) interned", a, plain.Err(), b, interned.Err())
	}
}
