// Package wire implements the binary encoding used by DGSF's API remoting
// protocol. The per-call message layouts are produced by cmd/apigen, which
// generates Encode/Decode pairs over this package's primitives — mirroring
// the paper's approach of generating both sides of the remoting system from
// a single list of APIs (§VI).
//
// All integers are little-endian and fixed-width; variable-length values are
// length-prefixed with a uint32. Decoding uses a sticky error so generated
// code can decode whole structs without per-field error checks.
package wire

import (
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"time"
	"unsafe"

	"dgsf/internal/cuda"
	"dgsf/internal/gpu"
)

// ErrTruncated reports a message shorter than its declared contents.
var ErrTruncated = errors.New("wire: truncated message")

// ErrOversized reports a length prefix beyond sane limits.
var ErrOversized = errors.New("wire: oversized field")

// maxSliceLen bounds decoded slice lengths to keep a corrupt or malicious
// length prefix from causing huge allocations.
const maxSliceLen = 1 << 20

// MaxSmallBuf is where the remoting path's large buffers begin. An encoder
// whose buffer grew past it is not pooled, so one giant message (e.g. a
// model-sized batch) does not pin memory forever; a frame region of up to
// it is read in one allocation, a larger one as its bytes arrive.
const MaxSmallBuf = 64 << 10

// maxPooledScratch caps the shared-decode scratch slices (element counts,
// not bytes) a pooled decoder retains.
const maxPooledScratch = 1024

// Encoder and Decoder pools for the steady-state remoting data path. The
// contract is strict ownership: a pooled Encoder's Bytes() must not be
// referenced after PutEncoder, and a pooled Decoder must not be used after
// PutDecoder. A message that outlives its encoder — a one-way submission in
// flight, a reply on its way to the guest — is copied into a buffer of the
// payload pool (pool.go), which travels with it and is returned by whoever
// consumes it.
var (
	encPool = sync.Pool{New: func() any { return new(Encoder) }}
	decPool = sync.Pool{New: func() any { return new(Decoder) }}
)

// GetEncoder returns an empty pooled encoder.
func GetEncoder() *Encoder {
	e := encPool.Get().(*Encoder)
	e.Reset()
	return e
}

// PutEncoder returns an encoder to the pool.
func PutEncoder(e *Encoder) {
	if cap(e.buf) > MaxSmallBuf {
		return
	}
	encPool.Put(e)
}

// GetDecoder returns a pooled decoder positioned at the start of buf.
func GetDecoder(buf []byte) *Decoder {
	d := decPool.Get().(*Decoder)
	d.Reset(buf)
	return d
}

// PutDecoder returns a decoder to the pool. The decoder must not be used
// afterwards. Slices produced by the copying methods (Strs, Launch, ...)
// remain valid; anything produced by the Shared variants dies here.
func PutDecoder(d *Decoder) {
	d.Reset(nil)
	d.names = nil
	if cap(d.strs) > maxPooledScratch {
		d.strs = nil
	}
	if cap(d.ptrs) > maxPooledScratch {
		d.ptrs = nil
	}
	decPool.Put(d)
}

// Encoder appends binary values to a buffer. The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset clears the buffer for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Grow makes room for n more bytes. A caller that knows roughly what it is
// about to encode into a fresh encoder allocates once, instead of doubling
// its way up from nothing.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// U8 appends a byte.
func (e *Encoder) U8(v byte) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 appends a uint16.
func (e *Encoder) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// U32 appends a uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// I32 appends an int32.
func (e *Encoder) I32(v int32) { e.U32(uint32(v)) }

// U64 appends a uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends an int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as 64 bits.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Dur appends a time.Duration as nanoseconds.
func (e *Encoder) Dur(v time.Duration) { e.I64(int64(v)) }

// Str appends a length-prefixed string.
func (e *Encoder) Str(v string) {
	e.U32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// Raw appends bytes verbatim, with no length prefix. Used for batch bodies
// whose entries are already individually prefixed.
func (e *Encoder) Raw(v []byte) { e.buf = append(e.buf, v...) }

// BytesField appends a length-prefixed byte slice.
func (e *Encoder) BytesField(v []byte) {
	e.U32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// OpenField starts a length-prefixed byte field whose contents the caller
// appends next, in place; CloseField, given what OpenField returned, fills
// in their length. The pair encodes what BytesField would, without the
// contents first being encoded somewhere else.
func (e *Encoder) OpenField() int {
	e.U32(0)
	return len(e.buf)
}

// CloseField ends the field OpenField started at at.
func (e *Encoder) CloseField(at int) {
	binary.LittleEndian.PutUint32(e.buf[at-4:], uint32(len(e.buf)-at))
}

// Strs appends a length-prefixed string slice.
func (e *Encoder) Strs(v []string) {
	e.U32(uint32(len(v)))
	for _, s := range v {
		e.Str(s)
	}
}

// U64s appends a length-prefixed uint64 slice.
func (e *Encoder) U64s(v []uint64) {
	e.U32(uint32(len(v)))
	for _, x := range v {
		e.U64(x)
	}
}

// Vec3 appends a [3]int.
func (e *Encoder) Vec3(v [3]int) {
	for _, x := range v {
		e.Int(x)
	}
}

// HostBuf appends a gpu.HostBuffer.
func (e *Encoder) HostBuf(v gpu.HostBuffer) {
	e.U64(v.FP)
	e.I64(v.Size)
}

// Prop appends a cuda.DeviceProp.
func (e *Encoder) Prop(v cuda.DeviceProp) {
	e.Str(v.Name)
	e.I64(v.TotalMem)
	e.Int(v.SMs)
	e.Int(v.ClockMHz)
	e.Int(v.Major)
	e.Int(v.Minor)
}

// Attrs appends a cuda.PtrAttributes.
func (e *Encoder) Attrs(v cuda.PtrAttributes) {
	e.Int(v.Device)
	e.I64(v.Size)
	e.Bool(v.IsDevice)
}

// Launch appends a cuda.LaunchParams.
func (e *Encoder) Launch(v cuda.LaunchParams) {
	e.U64(uint64(v.Fn))
	e.Vec3(v.Grid)
	e.Vec3(v.Block)
	e.U64(uint64(v.Stream))
	e.Dur(v.Duration)
	e.U32(uint32(len(v.Mutates)))
	for _, m := range v.Mutates {
		e.U64(uint64(m))
	}
}

// DevPtrs appends a []cuda.DevPtr.
func (e *Encoder) DevPtrs(v []cuda.DevPtr) {
	e.U32(uint32(len(v)))
	for _, m := range v {
		e.U64(uint64(m))
	}
}

// FnPtrs appends a []cuda.FnPtr.
func (e *Encoder) FnPtrs(v []cuda.FnPtr) {
	e.U32(uint32(len(v)))
	for _, m := range v {
		e.U64(uint64(m))
	}
}

// Decoder reads binary values from a buffer with a sticky error.
//
// The Shared decode variants (StrShared, StrsShared, LaunchShared,
// DevPtrsShared, BytesShared) return values that alias the decoder's buffer
// and scratch storage: they cost no allocations on the steady-state path but
// are valid only until the next Reset (or PutDecoder) and no longer than the
// buffer itself, and at most one live result per scratch (strs; ptrs, which
// LaunchShared and DevPtrsShared share) per decoder. Callers that retain a
// shared value must clone it first.
type Decoder struct {
	buf []byte
	off int
	err error

	// Scratch reused by the Shared decode variants.
	strs []string
	ptrs []cuda.DevPtr

	// names, when set, is consulted by Str; Reset keeps it, PutDecoder
	// drops it.
	names *Interner
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset repositions the decoder at the start of buf, clearing any sticky
// error, so one decoder can be reused across messages. Values produced by
// the Shared decode variants are invalidated: the string scratch is zeroed
// so a pooled decoder cannot pin a previous message's payload.
func (d *Decoder) Reset(buf []byte) {
	d.buf = buf
	d.off = 0
	d.err = nil
	for i := range d.strs {
		d.strs[i] = ""
	}
	d.strs = d.strs[:0]
	d.ptrs = d.ptrs[:0]
}

// SetInterner makes Str return cached strings from in (nil: none). The
// decoder keeps it across Reset; PutDecoder clears it.
func (d *Decoder) SetInterner(in *Interner) { d.names = in }

// Interner returns the decoder's interner, or nil.
func (d *Decoder) Interner() *Interner { return d.names }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Fail sets the sticky error, unless one is already set. It lets a codec
// layered on the decoder reject a value whose bytes it read intact.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = ErrTruncated
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads a byte.
func (d *Decoder) U8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U16 reads a uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// I32 reads an int32.
func (d *Decoder) I32() int32 { return int32(d.U32()) }

// U64 reads a uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int.
func (d *Decoder) Int() int { return int(d.I64()) }

// Dur reads a time.Duration.
func (d *Decoder) Dur() time.Duration { return time.Duration(d.I64()) }

func (d *Decoder) sliceLen() int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n > maxSliceLen {
		d.err = ErrOversized
		return 0
	}
	return n
}

// sliceCap clamps a decoded element count to what the remaining bytes could
// possibly hold, so a corrupt length prefix cannot force a multi-MB
// pre-allocation before take() fails. elemSize is the minimum encoded size of
// one element.
func (d *Decoder) sliceCap(n, elemSize int) int {
	if max := d.Remaining() / elemSize; n > max {
		return max
	}
	return n
}

// Str reads a length-prefixed string, through the decoder's Interner when
// it has one.
func (d *Decoder) Str() string {
	n := d.sliceLen()
	b := d.take(n)
	if b == nil {
		return ""
	}
	if d.names != nil {
		return d.names.Intern(b)
	}
	return string(b)
}

// StrShared reads a length-prefixed string without copying: the result
// aliases the decoder's buffer and dies with it. For a name the callee only
// looks up; one it keeps must be cloned.
func (d *Decoder) StrShared() string {
	n := d.sliceLen()
	return viewString(d.take(n))
}

// BytesField reads a length-prefixed byte slice.
func (d *Decoder) BytesField() []byte {
	n := d.sliceLen()
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// BytesShared reads a length-prefixed byte slice without copying: the result
// aliases the decoder's buffer and is valid only until the decoder resets.
// The server dispatch path uses it for bulk payloads carried inline (a
// caller without the bulk lane); backends must copy what they retain.
func (d *Decoder) BytesShared() []byte {
	n := d.sliceLen()
	return d.take(n)
}

// Strs reads a length-prefixed string slice.
func (d *Decoder) Strs() []string {
	n := d.sliceLen()
	if d.err != nil {
		return nil
	}
	out := make([]string, 0, d.sliceCap(n, 4))
	for i := 0; i < n; i++ {
		v := d.Str()
		if d.err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// viewString returns a string aliasing b's bytes without copying. The
// string lives exactly as long as b's backing array; the Shared decode
// contract (valid until Reset) is what makes handing it out sound.
func viewString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// StrsShared reads a length-prefixed string slice without copying: the
// strings alias the decoder's buffer and the slice is decoder-owned
// scratch, so steady-state decoding allocates nothing. The result is valid
// only until the next Reset (or PutDecoder); retained strings must be
// cloned. The generated server dispatch path decodes request slices this
// way — the decoder outlives the backend call — so handlers see ordinary
// strings but must copy before stashing one in session state.
func (d *Decoder) StrsShared() []string {
	n := d.sliceLen()
	if d.err != nil {
		return nil
	}
	d.strs = d.strs[:0]
	for i := 0; i < n; i++ {
		m := d.sliceLen()
		b := d.take(m)
		if d.err != nil {
			return nil
		}
		d.strs = append(d.strs, viewString(b))
	}
	return d.strs
}

// U64s reads a length-prefixed uint64 slice.
func (d *Decoder) U64s() []uint64 {
	n := d.sliceLen()
	if d.err != nil {
		return nil
	}
	out := make([]uint64, 0, d.sliceCap(n, 8))
	for i := 0; i < n; i++ {
		v := d.U64()
		if d.err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// Vec3 reads a [3]int.
func (d *Decoder) Vec3() [3]int {
	var v [3]int
	for i := range v {
		v[i] = d.Int()
	}
	return v
}

// HostBuf reads a gpu.HostBuffer.
func (d *Decoder) HostBuf() gpu.HostBuffer {
	return gpu.HostBuffer{FP: d.U64(), Size: d.I64()}
}

// Prop reads a cuda.DeviceProp.
func (d *Decoder) Prop() cuda.DeviceProp {
	return cuda.DeviceProp{
		Name:     d.Str(),
		TotalMem: d.I64(),
		SMs:      d.Int(),
		ClockMHz: d.Int(),
		Major:    d.Int(),
		Minor:    d.Int(),
	}
}

// Attrs reads a cuda.PtrAttributes.
func (d *Decoder) Attrs() cuda.PtrAttributes {
	return cuda.PtrAttributes{Device: d.Int(), Size: d.I64(), IsDevice: d.Bool()}
}

// Launch reads a cuda.LaunchParams.
func (d *Decoder) Launch() cuda.LaunchParams {
	lp := cuda.LaunchParams{
		Fn:       cuda.FnPtr(d.U64()),
		Grid:     d.Vec3(),
		Block:    d.Vec3(),
		Stream:   cuda.StreamHandle(d.U64()),
		Duration: d.Dur(),
	}
	n := d.sliceLen()
	if d.err != nil {
		return lp
	}
	lp.Mutates = make([]cuda.DevPtr, 0, d.sliceCap(n, 8))
	for i := 0; i < n; i++ {
		v := cuda.DevPtr(d.U64())
		if d.err != nil {
			lp.Mutates = nil
			return lp
		}
		lp.Mutates = append(lp.Mutates, v)
	}
	return lp
}

// LaunchShared reads a cuda.LaunchParams with Mutates backed by
// decoder-owned scratch instead of a fresh slice: zero allocations on the
// hottest message of the remoting path. Same contract as StrsShared — the
// result is valid until the next Reset, and the callee must not retain
// Mutates (the CUDA layer resolves it to allocations synchronously).
func (d *Decoder) LaunchShared() cuda.LaunchParams {
	lp := cuda.LaunchParams{
		Fn:       cuda.FnPtr(d.U64()),
		Grid:     d.Vec3(),
		Block:    d.Vec3(),
		Stream:   cuda.StreamHandle(d.U64()),
		Duration: d.Dur(),
	}
	lp.Mutates = d.DevPtrsShared()
	return lp
}

// DevPtrsShared reads a []cuda.DevPtr into the decoder-owned scratch
// LaunchShared uses, under the same contract: valid until the next Reset,
// not to be retained, and a message carries one or the other.
func (d *Decoder) DevPtrsShared() []cuda.DevPtr {
	n := d.sliceLen()
	if d.err != nil {
		return nil
	}
	d.ptrs = d.ptrs[:0]
	for i := 0; i < n; i++ {
		v := cuda.DevPtr(d.U64())
		if d.err != nil {
			return nil
		}
		d.ptrs = append(d.ptrs, v)
	}
	return d.ptrs
}

// DevPtrs reads a []cuda.DevPtr.
func (d *Decoder) DevPtrs() []cuda.DevPtr {
	n := d.sliceLen()
	if d.err != nil {
		return nil
	}
	out := make([]cuda.DevPtr, 0, d.sliceCap(n, 8))
	for i := 0; i < n; i++ {
		v := cuda.DevPtr(d.U64())
		if d.err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// FnPtrs reads a []cuda.FnPtr.
func (d *Decoder) FnPtrs() []cuda.FnPtr {
	n := d.sliceLen()
	if d.err != nil {
		return nil
	}
	out := make([]cuda.FnPtr, 0, d.sliceCap(n, 8))
	for i := 0; i < n; i++ {
		v := cuda.FnPtr(d.U64())
		if d.err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}
