package wire

// Interner sizing: internSlots direct-mapped slots (a power of two), and
// strings longer than internMaxLen are never cached.
const (
	internSlots  = 256
	internMaxLen = 64
)

// Interner is a fixed-size, direct-mapped cache of decoded strings. A decoder
// that has one (SetInterner) hands out the cached string when a Str it reads
// equals the one in its slot, so a stream that repeats the same short names
// — the session, server and function names of a store watch — decodes them
// without allocating. A miss allocates as Str always does and takes the slot
// over. The zero value is ready to use. An Interner is not safe for
// concurrent use: give it to one decoder at a time.
type Interner struct {
	slots [internSlots]string
}

// Intern returns a string equal to b, from the cache when its slot holds one.
func (in *Interner) Intern(b []byte) string {
	if len(b) == 0 || len(b) > internMaxLen {
		return string(b)
	}
	// FNV-1a, 32-bit.
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	slot := &in.slots[h%internSlots]
	if *slot != string(b) { // the conversion in a comparison does not allocate
		*slot = string(b)
	}
	return *slot
}
