// Package wire is a miniature mirror of the codec: the sharedretain
// analyzer matches the Shared decode variants by name inside any package
// whose path ends in remoting/wire.
package wire

import "f/internal/cuda"

// Decoder reads wire frames; the Shared variants return values backed by
// its scratch.
type Decoder struct {
	buf     []byte
	scratch []string
	devs    []cuda.DevPtr
}

// Str reads a string, copying out of the buffer.
func (d *Decoder) Str() string { return "" }

// Strs reads a string slice, copying every element.
func (d *Decoder) Strs() []string { return append([]string(nil), d.scratch...) }

// StrsShared reads a string slice without copying: the result aliases the
// decoder's scratch.
func (d *Decoder) StrsShared() []string { return d.scratch }

// StrShared reads a string without copying: the result aliases the
// decoder's buffer.
func (d *Decoder) StrShared() string { return "" }

// DevPtrsShared reads a pointer slice into decoder scratch.
func (d *Decoder) DevPtrsShared() []cuda.DevPtr { return d.devs }

// BytesShared reads a byte slice without copying: the result aliases the
// decoder's buffer.
func (d *Decoder) BytesShared() []byte { return d.buf }

// LaunchShared reads launch params with Mutates backed by decoder scratch.
func (d *Decoder) LaunchShared() cuda.LaunchParams {
	return cuda.LaunchParams{Mutates: d.devs}
}
