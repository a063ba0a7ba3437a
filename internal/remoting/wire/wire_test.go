package wire

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"dgsf/internal/cuda"
	"dgsf/internal/gpu"
)

func TestScalarRoundTrip(t *testing.T) {
	var e Encoder
	e.U8(7)
	e.Bool(true)
	e.Bool(false)
	e.U16(65535)
	e.U32(1 << 30)
	e.I32(-5)
	e.U64(1 << 62)
	e.I64(-1 << 40)
	e.Int(-42)
	e.Dur(3 * time.Second)
	e.Str("hello")
	e.Str("")
	d := NewDecoder(e.Bytes())
	if d.U8() != 7 || !d.Bool() || d.Bool() {
		t.Fatal("u8/bool mismatch")
	}
	if d.U16() != 65535 || d.U32() != 1<<30 || d.I32() != -5 {
		t.Fatal("u16/u32/i32 mismatch")
	}
	if d.U64() != 1<<62 || d.I64() != -1<<40 || d.Int() != -42 {
		t.Fatal("u64/i64/int mismatch")
	}
	if d.Dur() != 3*time.Second {
		t.Fatal("dur mismatch")
	}
	if d.Str() != "hello" || d.Str() != "" {
		t.Fatal("str mismatch")
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", d.Err(), d.Remaining())
	}
}

func TestCompositeRoundTrip(t *testing.T) {
	var e Encoder
	e.Strs([]string{"a", "bb", ""})
	e.U64s([]uint64{1, 2, 3})
	e.Vec3([3]int{4, 5, 6})
	e.HostBuf(gpu.HostBuffer{FP: 9, Size: 10})
	e.Prop(cuda.DeviceProp{Name: "V100", TotalMem: 16 << 30, SMs: 80, ClockMHz: 1530, Major: 7})
	e.Attrs(cuda.PtrAttributes{Device: 1, Size: 100, IsDevice: true})
	lp := cuda.LaunchParams{Fn: 11, Grid: [3]int{1, 2, 3}, Block: [3]int{4, 5, 6}, Stream: 7, Duration: time.Millisecond, Mutates: []cuda.DevPtr{1, 2}}
	e.Launch(lp)
	d := NewDecoder(e.Bytes())
	strs := d.Strs()
	if len(strs) != 3 || strs[1] != "bb" {
		t.Fatalf("strs = %v", strs)
	}
	if u := d.U64s(); len(u) != 3 || u[2] != 3 {
		t.Fatalf("u64s = %v", u)
	}
	if v := d.Vec3(); v != [3]int{4, 5, 6} {
		t.Fatalf("vec3 = %v", v)
	}
	if hb := d.HostBuf(); hb.FP != 9 || hb.Size != 10 {
		t.Fatalf("hostbuf = %+v", hb)
	}
	if pr := d.Prop(); pr.Name != "V100" || pr.SMs != 80 {
		t.Fatalf("prop = %+v", pr)
	}
	if a := d.Attrs(); !a.IsDevice || a.Size != 100 {
		t.Fatalf("attrs = %+v", a)
	}
	got := d.Launch()
	if got.Fn != lp.Fn || got.Grid != lp.Grid || got.Duration != lp.Duration || len(got.Mutates) != 2 {
		t.Fatalf("launch = %+v", got)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

func TestTruncatedDecodeSticksError(t *testing.T) {
	var e Encoder
	e.U64(1)
	d := NewDecoder(e.Bytes()[:4])
	_ = d.U64()
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", d.Err())
	}
	// Subsequent reads stay zero with the same error.
	if d.U32() != 0 || d.Str() != "" || !errors.Is(d.Err(), ErrTruncated) {
		t.Fatal("sticky error not preserved")
	}
}

func TestOversizedSliceRejected(t *testing.T) {
	var e Encoder
	e.U32(1 << 25) // claims a 32M-entry slice
	d := NewDecoder(e.Bytes())
	if d.U64s() != nil || !errors.Is(d.Err(), ErrOversized) {
		t.Fatalf("err = %v, want ErrOversized", d.Err())
	}
}

// Property: any (string slice, uint64 slice, scalars) tuple round-trips.
func TestRoundTripProperty(t *testing.T) {
	f := func(ss []string, us []uint64, a int64, b uint64, c bool) bool {
		if len(ss) > 1000 || len(us) > 1000 {
			return true
		}
		var e Encoder
		e.Strs(ss)
		e.U64s(us)
		e.I64(a)
		e.U64(b)
		e.Bool(c)
		d := NewDecoder(e.Bytes())
		gs := d.Strs()
		gu := d.U64s()
		if d.I64() != a || d.U64() != b || d.Bool() != c || d.Err() != nil {
			return false
		}
		if len(gs) != len(ss) || len(gu) != len(us) {
			return false
		}
		for i := range ss {
			if gs[i] != ss[i] {
				return false
			}
		}
		for i := range us {
			if gu[i] != us[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOpenFieldMatchesBytesField: a field written in place behind
// OpenField/CloseField is byte for byte the BytesField of the same contents,
// empty and nested ones included.
func TestOpenFieldMatchesBytesField(t *testing.T) {
	var inner, want, got Encoder
	inner.U16(7)
	inner.Str("launch")
	want.U8(1)
	want.BytesField(inner.Bytes())
	want.BytesField(nil)
	var nested Encoder
	nested.BytesField(inner.Bytes())
	want.BytesField(nested.Bytes())

	got.U8(1)
	at := got.OpenField()
	got.U16(7)
	got.Str("launch")
	got.CloseField(at)
	got.CloseField(got.OpenField())
	outer := got.OpenField()
	at = got.OpenField()
	got.U16(7)
	got.Str("launch")
	got.CloseField(at)
	got.CloseField(outer)
	if string(got.Bytes()) != string(want.Bytes()) {
		t.Fatalf("in-place fields encode %x, want %x", got.Bytes(), want.Bytes())
	}
}
