// Package membytes keeps the bytes a function uploads with MemWrite so that
// MemRead can return them. The simulated GPU models an allocation's size and
// fingerprint, not its contents, so a backend holds the contents host-side.
// Each API-server session has one Store, the native baseline's included.
//
// A Store holds one backing slice per device allocation, keyed by the
// allocation's base address. The slice covers the allocation's bytes
// [0, len); whatever lies past it has never been written and reads as zeros.
// Callers validate ranges against the allocation before they call: a Store
// never holds a byte past an allocation's end, so the bytes behind a session
// are bounded by what the session has allocated on the device.
//
// Bytes enter by CopyIn (the source stays the caller's) or by Adopt (the
// caller gives the source away and the store may keep it as the backing,
// copying nothing). A backing the store makes itself is exactly as large as
// the bytes it holds; an adopted one keeps the capacity it came with, so the
// host memory behind a session is the sum of its allocations' sizes times
// whatever slack the giver's buffers carry — none for the TCP bridge's
// buffers of up to 64 KiB, under 4x for its pooled ones (remoting's size
// classes are a factor of four apart). Held reports both sums. Bytes leave
// as read-only views of the backing. A view a
// transport still has to write to a socket is a lend: between Lend and
// Release no backing is overwritten in place or handed back for reuse — a
// write replaces it with a copy and leaves the old one to the collector.
package membytes

import "dgsf/internal/cuda"

// Store is the byte store of one session. The zero value is empty and ready
// to use. It is not safe for concurrent use: every method, Release included,
// runs on the owning engine's processes, one at a time.
type Store struct {
	regions map[cuda.DevPtr][]byte
	lent    int   // views lent to a reply and not yet released
	copied  int64 // bytes the store has moved itself: copy-ins, copies on write, growth
}

// CopyIn writes src at byte offset off of the allocation at base, keeping
// the backing's capacity when it has one. src is borrowed.
func (s *Store) CopyIn(base cuda.DevPtr, off int64, src []byte) {
	if len(src) == 0 {
		return
	}
	end := off + int64(len(src))
	buf := s.regions[base]
	switch {
	case s.lent > 0 && len(buf) > 0:
		// A lent view may cover the bytes about to change: copy on write.
		fresh := make([]byte, max(int64(len(buf)), end))
		s.copied += int64(copy(fresh, buf))
		buf = fresh
		s.regions[base] = buf
	case int64(len(buf)) < end:
		buf = s.extend(base, buf, end)
	}
	s.copied += int64(copy(buf[off:end], src))
}

// Adopt is CopyIn for a source the caller owns and gives away. When src
// replaces every byte held for the allocation it becomes the backing and
// nothing is copied; otherwise it is copied in. Either way the caller gets a
// buffer in exchange that is its own to reuse: the displaced backing, src
// itself after a copy, or nil when there is none to give (a first write, or
// a displaced backing that is still lent).
func (s *Store) Adopt(base cuda.DevPtr, off int64, src []byte) (spare []byte) {
	buf := s.regions[base]
	if off != 0 || len(src) < len(buf) || len(src) == 0 {
		s.CopyIn(base, off, src)
		return src
	}
	if s.regions == nil {
		s.regions = make(map[cuda.DevPtr][]byte)
	}
	s.regions[base] = src
	if s.lent > 0 {
		return nil
	}
	return buf
}

// View returns the n bytes at offset off of the allocation at base as a
// read-only view of the backing, first zero-extending the backing to off+n.
// The view is valid until the allocation is next written or dropped, or —
// once Lend has been called for it — until the matching Release.
func (s *Store) View(base cuda.DevPtr, off, n int64) []byte {
	if n == 0 {
		return nil
	}
	end := off + n
	buf := s.regions[base]
	if int64(len(buf)) < end {
		buf = s.extend(base, buf, end)
	}
	return buf[off:end:end]
}

// extend grows the bytes held for base to n, the new tail zeroed: in place
// when the capacity is there — the tail lies past every view handed out, so
// a lend does not stand in the way — else into a fresh backing.
func (s *Store) extend(base cuda.DevPtr, buf []byte, n int64) []byte {
	if int64(cap(buf)) >= n {
		old := len(buf)
		buf = buf[:n]
		clear(buf[old:])
	} else {
		grown := make([]byte, n)
		s.copied += int64(copy(grown, buf))
		buf = grown
	}
	if s.regions == nil {
		s.regions = make(map[cuda.DevPtr][]byte)
	}
	s.regions[base] = buf
	return buf
}

// Drop forgets the bytes of the allocation at base — it was freed, or left
// the session — and returns the backing for reuse: nil when there was none
// or a view is still lent.
func (s *Store) Drop(base cuda.DevPtr) []byte {
	buf := s.regions[base]
	delete(s.regions, base)
	if s.lent > 0 {
		return nil
	}
	return buf
}

// Lend records that the view just taken is on its way into a reply frame and
// returns the handle that ends the lend.
func (s *Store) Lend() *Store {
	s.lent++
	return s
}

// Release ends one lend: the reply frame was written, or dropped.
func (s *Store) Release() { s.lent-- }

// Held reports how many allocations have bytes in the store, how many bytes
// that is, and the capacity of the backings that hold them: the host memory
// the store keeps alive.
func (s *Store) Held() (allocs int, bytes, capacity int64) {
	for _, buf := range s.regions {
		bytes += int64(len(buf))
		capacity += int64(cap(buf))
	}
	return len(s.regions), bytes, capacity
}

// Copied reports the bytes the store has moved itself since it was created.
// An adopted write adds nothing to it.
func (s *Store) Copied() int64 { return s.copied }

// Offset checks a guest-chosen range before anything is charged or stored:
// the n bytes at ptr must lie inside the size-byte allocation at base, which
// the caller has found to contain ptr. It returns ptr's offset in it.
func Offset(base cuda.DevPtr, size int64, ptr cuda.DevPtr, n int64) (int64, error) {
	off := int64(ptr - base)
	if n < 0 || n > size-off {
		return 0, cuda.ErrInvalidValue
	}
	return off, nil
}
