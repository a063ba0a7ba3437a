// Package guest is a miniature guest library: the sharedretain analyzer
// keys on the "internal/guest" path suffix. Its API methods are called by the
// application, never by the generated dispatch, so their parameters carry
// the application's lifetime, not a decoder's — but a shared decode inside
// the package is still a shared decode.
package guest

import (
	"f/internal/cuda"
	"f/internal/remoting/wire"
	"f/internal/sim"
)

type Lib struct {
	pending []cuda.LaunchParams
	names   []string
}

// LaunchKernel defers the launch: Mutates stays borrowed from the application
// until the batch is flushed.
func (l *Lib) LaunchKernel(p *sim.Proc, lp cuda.LaunchParams) error {
	l.pending = append(l.pending, lp)
	return nil
}

func (l *Lib) peek(d *wire.Decoder) {
	l.names = d.StrsShared() // want "result of StrsShared aliases the decoder's scratch"
}
