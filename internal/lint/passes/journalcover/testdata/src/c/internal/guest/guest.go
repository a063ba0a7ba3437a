// Package guest is a miniature guest library: the journalcover analyzer
// keys on the "internal/guest" path suffix.
package guest

// Lib mimics the guest library with its replay journal.
type Lib struct {
	journal map[string]func()
}

func (l *Lib) journalPut(key string, replay func()) { l.journal[key] = replay }

// virtualize journals on behalf of every call that mints a handle.
func (l *Lib) virtualize(v uint64) uint64 {
	l.journalPut("handle", func() {})
	return v
}

// track does bookkeeping that is not journaling.
func (l *Lib) track(v uint64) uint64 { return v }

const (
	CallMemcpyH2D = iota + 1
	CallDnnSetStream
)

type op struct {
	id  int
	dst uint64
}

// submit is the lane helper; a call is journaled when it is confirmed.
func (l *Lib) submit(o op) error {
	l.confirmed(&o)
	return nil
}

func (l *Lib) confirmed(o *op) {
	switch o.id {
	case CallMemcpyH2D:
		l.journalPut("h2d", func() {})
	case CallDnnSetStream:
		l.track(o.dst) // the binding is never journaled
	}
}

// Malloc establishes state but reaches no journal registration.
func (l *Lib) Malloc(size int64) uint64 { // want "never registers a replay-journal entry"
	return l.track(uint64(size))
}

// StreamCreate journals through a helper.
func (l *Lib) StreamCreate() uint64 {
	return l.virtualize(1)
}

// MemcpyH2D is deferred; its case of confirmed journals it.
func (l *Lib) MemcpyH2D(dst uint64, n int64) error {
	return l.submit(op{id: CallMemcpyH2D, dst: dst})
}

// DnnSetStream is deferred too, but its case journals nothing — that another
// case does must not cover for it.
func (l *Lib) DnnSetStream(h uint64) error { // want "never registers a replay-journal entry"
	return l.submit(op{id: CallDnnSetStream, dst: h})
}

// MemWrite journals inside a closure.
func (l *Lib) MemWrite(dst uint64) error {
	keep := func() { l.journalPut("write", func() {}) }
	keep()
	return nil
}

// Bye is not state-establishing; no journal entry required.
func (l *Lib) Bye() {}
