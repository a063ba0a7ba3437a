// Package wire is a miniature mirror of the zero-copy codec package: the
// bufown analyzer matches pool functions by name inside any package whose
// path ends in remoting/wire.
package wire

// Encoder is a pooled message encoder.
type Encoder struct{ buf []byte }

// Decoder is a pooled message decoder.
type Decoder struct{ buf []byte }

// GetEncoder leases an encoder from the pool.
func GetEncoder() *Encoder { return &Encoder{} }

// PutEncoder returns an encoder to the pool.
func PutEncoder(e *Encoder) {}

// GetDecoder leases a decoder positioned over buf.
func GetDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// PutDecoder returns a decoder to the pool.
func PutDecoder(d *Decoder) {}

// GetBuf leases an empty payload buffer with room for n bytes.
func GetBuf(n int) []byte { return make([]byte, 0, n) }

// PutBuf returns a payload buffer to the pool.
func PutBuf(b []byte) {}

// U64 appends a value.
func (e *Encoder) U64(v uint64) {}

// Bytes returns the encoded frame, aliasing the pooled buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// U64 decodes a value.
func (d *Decoder) U64() uint64 { return 0 }

// Str decodes a string (copied; safe to retain).
func (d *Decoder) Str() string { return "" }
