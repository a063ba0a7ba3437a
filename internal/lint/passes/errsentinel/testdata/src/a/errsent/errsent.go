package errsent

import (
	"errors"
	"fmt"
)

// ErrClosed mimics a transport sentinel.
var ErrClosed = errors.New("closed")

// notSentinel is package-level but not Err-named; identity comparison is
// assumed intentional.
var notSentinel = errors.New("other")

func op() error { return ErrClosed }

// ErrCallTimeout mimics the transport's reply-deadline sentinel.
var ErrCallTimeout = errors.New("call deadline exceeded")

// readReply wraps the timeout with the socket's detail, as the TCP transport
// does.
func readReply() error { return fmt.Errorf("%w: i/o timeout", ErrCallTimeout) }

type conn struct{ closed bool }

// The headline case, planted in the TCP caller's reply path: an identity
// test of a wrapped sentinel never matches, so a timed-out connection stays
// open and its late reply is read as the next call's. No tier-1 test
// notices.
func (c *conn) exchange() error {
	err := readReply()
	if err == ErrCallTimeout { // want "use errors.Is"
		c.closed = true
	}
	return err
}

func bad() {
	if op() == ErrClosed { // want "use errors.Is"
		return
	}
	if ErrClosed != op() { // want "use errors.Is"
		return
	}
	err := op()
	_ = fmt.Errorf("op failed: %v", err) // want "without %w"
}

func good() error {
	err := op()
	if err == nil { // nil checks are the success idiom
		return nil
	}
	if errors.Is(err, ErrClosed) {
		return nil
	}
	if err == notSentinel {
		return nil
	}
	_ = fmt.Errorf("op failed: %w", err)
	_ = fmt.Errorf("count %d", 7)
	return err
}
