// Package remoting is a miniature mirror of the transport: the bufown
// analyzer matches roundtrip entry points by name inside any package whose
// path ends in internal/remoting.
package remoting

import "e/internal/sim"

// Caller is the synchronous transport handle.
type Caller struct{}

// Roundtrip sends req and returns the reply, borrowed until the next call.
func (c *Caller) Roundtrip(p *sim.Proc, req []byte, reqData int64) ([]byte, error) {
	return nil, nil
}

// RoundtripTimeout is Roundtrip with a deadline.
func (c *Caller) RoundtripTimeout(p *sim.Proc, req []byte, reqData int64, d int64) ([]byte, error) {
	return nil, nil
}

// RoundtripVec sends req plus borrowed reqBulk; both results are borrowed.
func (c *Caller) RoundtripVec(p *sim.Proc, req, reqBulk, respDst []byte) ([]byte, []byte, error) {
	return nil, nil, nil
}

// Submit fires req one-way and takes it for good.
func (c *Caller) Submit(p *sim.Proc, req []byte, reqData int64) error { return nil }

// Response mirrors the reply a server hands the transport: Bulk may be a
// view of session storage, lent until Release, and Payload a buffer of the
// payload pool that Release returns.
type Response struct {
	Payload []byte
	Pooled  bool
	Bulk    []byte
	Lend    interface{ Release() }
}

// Release ends the lend of r.Bulk and returns a pooled r.Payload.
func (r Response) Release() {
	if r.Lend != nil {
		r.Lend.Release()
	}
}
