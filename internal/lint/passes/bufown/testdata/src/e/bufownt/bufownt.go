// Package bufownt exercises the bufown analyzer: pooled codec lifecycle
// (double release, use after release, escape past a local release),
// borrowed transport results, borrowed byte arguments, the request slice
// Submit takes, and the lent bulk region and pooled payload of a reply.
package bufownt

import (
	"e/internal/remoting"
	"e/internal/remoting/wire"
	"e/internal/sim"
)

type holder struct {
	enc *wire.Encoder
	buf []byte
}

var globalEnc *wire.Encoder

// --- positives ---

func doublePut() {
	e := wire.GetEncoder()
	e.U64(1)
	wire.PutEncoder(e)
	wire.PutEncoder(e) // want "called again on the same pooled value"
}

func deferAndExplicitPut(payload []byte) {
	d := wire.GetDecoder(payload)
	defer wire.PutDecoder(d)
	_ = d.U64()
	wire.PutDecoder(d) // want "again by the deferred PutDecoder"
}

func useAfterPut() uint64 {
	d := wire.GetDecoder(nil)
	wire.PutDecoder(d)
	return d.U64() // want "after its PutDecoder"
}

func useAfterPutViaAlias(h *holder) []byte {
	e := wire.GetEncoder()
	b := e.Bytes()
	wire.PutEncoder(e)
	return b // want "after its PutEncoder"
}

func escapeFieldWithPut(h *holder) {
	e := wire.GetEncoder()
	h.enc = e // want "escapes (store to field) but is also released locally"
	wire.PutEncoder(e)
}

func escapeGlobalWithPut() {
	e := wire.GetEncoder()
	globalEnc = e // want "escapes (store to package-level variable) but is also released locally"
	wire.PutEncoder(e)
}

func escapeChanWithPut(ch chan *wire.Encoder) {
	e := wire.GetEncoder()
	ch <- e // want "escapes (channel send) but is also released locally"
	wire.PutEncoder(e)
}

func escapeGoWithPut() {
	e := wire.GetEncoder()
	go func() { // want "escapes (goroutine capture) but is also released locally"
		e.U64(1)
	}()
	wire.PutEncoder(e)
}

func putInLoop(n int) {
	e := wire.GetEncoder()
	for i := 0; i < n; i++ {
		wire.PutEncoder(e) // want "inside a loop releases the same pooled value"
	}
}

func retainBorrowedReply(p *sim.Proc, c *remoting.Caller, h *holder, req []byte) error {
	rep, err := c.Roundtrip(p, req, 0)
	if err != nil {
		return err
	}
	h.buf = rep // want "borrowed from the transport"
	return nil
}

func retainBorrowedVec(p *sim.Proc, c *remoting.Caller, h *holder, req, bulk []byte) error {
	_, respBulk, err := c.RoundtripVec(p, req, bulk, nil)
	if err != nil {
		return err
	}
	h.buf = respBulk // want "borrowed from the transport"
	return nil
}

var retainedBulk []byte

// WriteFrame mirrors the transport entry point: argument positions 1 and 2
// are borrowed from the caller until return.
func WriteFrame(w *holder, meta, bulk []byte, data int64) error {
	retainedBulk = bulk // want "borrowed from the caller only until WriteFrame returns"
	return nil
}

// A transport that keeps the lent reply bulk: the view dies at Release.
func keepLentBulk(h *holder, r remoting.Response) {
	h.buf = r.Bulk // want "Response.Bulk may be a view of session storage lent until Release and must not be retained (store to field)"
	r.Release()
}

func sendLentBulkOn(ch chan []byte, r remoting.Response) {
	view := r.Bulk
	ch <- view // want "Response.Bulk may be a view of session storage lent until Release and must not be retained (channel send)"
	r.Release()
}

// A transport that writes the frame after ending the lend.
func writeAfterRelease(h *holder, r remoting.Response) error {
	r.Release()
	return WriteFrame(h, r.Payload, r.Bulk, 0) // want "Response.Bulk read after its Release at line" // want "Response.Payload read after its Release at line"
}

// A transport that keeps the reply's payload apart from the response.
func keepPooledPayload(h *holder, r remoting.Response) {
	h.buf = r.Payload // want "Response.Payload may be a buffer of the payload pool that Release returns and must not be retained (store to field)"
}

// A sender that reads, or returns, the message it has submitted.
func readAfterSubmit(p *sim.Proc, c *remoting.Caller, e *wire.Encoder) (byte, error) {
	msg := append(wire.GetBuf(8), e.Bytes()...)
	err := c.Submit(p, msg, 0)
	return msg[0], err // want "use of pooled value from GetBuf after its Submit at line"
}

func putAfterSubmit(p *sim.Proc, c *remoting.Caller) error {
	msg := wire.GetBuf(8)
	err := c.Submit(p, msg, 0)
	wire.PutBuf(msg) // want "PutBuf called again on the same pooled value from GetBuf"
	return err
}

func submitPooledEncoderBytes(p *sim.Proc, c *remoting.Caller) error {
	e := wire.GetEncoder()
	e.U64(1)
	err := c.Submit(p, e.Bytes(), 0)
	wire.PutEncoder(e) // want "PutEncoder called again on the same pooled value from GetEncoder"
	return err
}

func reuseSubmittedSlice(p *sim.Proc, c *remoting.Caller, msg []byte) error {
	if err := c.Submit(p, msg, 0); err != nil {
		return err
	}
	return c.Submit(p, msg, 0) // want "call argument of msg after Submit took it at line"
}

// --- negatives ---

// The writer's order: frame out (or dropped), then the release.
func writeThenRelease(h *holder, r remoting.Response, failed bool) {
	if !failed {
		_ = WriteFrame(h, r.Payload, r.Bulk, 0)
	}
	r.Release()
}

// The guest transport's order: hold the response itself, hand its payload to
// the caller, release the held one when the connection is next used.
type conn struct{ held remoting.Response }

func (c *conn) hold(r remoting.Response) {
	c.held.Release()
	c.held = r
}

func (c *conn) receive(r remoting.Response) []byte {
	c.hold(r)
	return r.Payload
}

// The one-way lane's order: copy the encoded message out of the pooled
// encoder into a payload buffer, put the encoder back, submit the buffer.
func encodeCopySubmit(p *sim.Proc, c *remoting.Caller) error {
	e := wire.GetEncoder()
	e.U64(1)
	msg := append(wire.GetBuf(8), e.Bytes()...)
	wire.PutEncoder(e)
	return c.Submit(p, msg, 0)
}

// A consumer returns the payload once the request is handled.
func handleThenPut(payload []byte, owned bool) uint64 {
	d := wire.GetDecoder(payload)
	v := d.U64()
	wire.PutDecoder(d)
	if owned {
		wire.PutBuf(payload)
	}
	return v
}

// A retry encodes a new message for each attempt.
func submitPerAttempt(p *sim.Proc, c *remoting.Caller, n int) error {
	var err error
	for i := 0; i < n; i++ {
		msg := wire.GetBuf(8)
		if err = c.Submit(p, msg, 0); err == nil {
			break
		}
	}
	return err
}

// The simulated transport's order: copy into the caller's buffer, release.
func copyThenRelease(dst []byte, r remoting.Response) []byte {
	out := dst[:len(r.Bulk)]
	copy(out, r.Bulk)
	r.Release()
	return out
}

// Each iteration releases the response it received; the next one reads a new
// value of the same variable.
func releasePerIteration(h *holder, in chan remoting.Response) {
	for r := range in {
		_ = WriteFrame(h, r.Payload, r.Bulk, 0)
		r.Release()
	}
}

// Building a response is not reading one.
func produce(view []byte, lend interface{ Release() }) remoting.Response {
	var r remoting.Response
	r.Bulk = view
	r.Lend = lend
	return r
}

func straightLine() uint64 {
	d := wire.GetDecoder(nil)
	v := d.U64()
	wire.PutDecoder(d)
	return v
}

func earlyReturnPut(fail bool) error {
	e := wire.GetEncoder()
	e.U64(1)
	if fail {
		wire.PutEncoder(e)
		return nil
	}
	e.U64(2)
	wire.PutEncoder(e)
	return nil
}

func exclusiveArmsPut(fail bool) {
	e := wire.GetEncoder()
	if fail {
		wire.PutEncoder(e)
	} else {
		e.U64(1)
		wire.PutEncoder(e)
	}
}

// transferOwnership hands the encoder to another owner without a local
// release: the transfer idiom, not a violation.
func transferOwnership(ch chan *wire.Encoder) {
	e := wire.GetEncoder()
	e.U64(1)
	ch <- e
}

// dropOnError loses the codec on the error path on purpose: the transport
// may still hold the request, and the pool reallocates.
func dropOnError(fail bool) error {
	e := wire.GetEncoder()
	e.U64(1)
	if fail {
		return nil
	}
	wire.PutEncoder(e)
	return nil
}

func acquireAndPutInLoop(n int) {
	for i := 0; i < n; i++ {
		e := wire.GetEncoder()
		e.U64(uint64(i))
		wire.PutEncoder(e)
	}
}

func deferThenUse(payload []byte) uint64 {
	d := wire.GetDecoder(payload)
	defer wire.PutDecoder(d)
	return d.U64()
}

// guardedDeferRelease is the conditional-cleanup idiom: the deferred Put
// only runs when the explicit path did not.
func guardedDeferRelease(fail bool) {
	e := wire.GetEncoder()
	done := false
	defer func() {
		if !done {
			wire.PutEncoder(e)
		}
	}()
	if fail {
		return
	}
	done = true
	wire.PutEncoder(e)
}

// decodeBorrowedReply consumes the borrowed reply before the next call:
// decoding copies what it needs.
func decodeBorrowedReply(p *sim.Proc, c *remoting.Caller, req []byte) (uint64, error) {
	rep, err := c.Roundtrip(p, req, 0)
	if err != nil {
		return 0, err
	}
	d := wire.GetDecoder(rep)
	v := d.U64()
	wire.PutDecoder(d)
	return v, nil
}

// copyBorrowedReply retains a copy, not the borrow.
func copyBorrowedReply(p *sim.Proc, c *remoting.Caller, h *holder, req []byte) error {
	rep, err := c.Roundtrip(p, req, 0)
	if err != nil {
		return err
	}
	h.buf = append([]byte(nil), rep...)
	return nil
}

// reacquireAfterPut rebinds the variable; the second value is fresh.
func reacquireAfterPut() {
	e := wire.GetEncoder()
	e.U64(1)
	wire.PutEncoder(e)
	e = wire.GetEncoder()
	e.U64(2)
	wire.PutEncoder(e)
}
