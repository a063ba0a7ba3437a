// Package remoting mirrors the transport's bulk lease: Claim returns its
// argument when the transport gave that buffer away with the request.
package remoting

// BulkLease is the mirror of the handler's hold on an owned bulk buffer.
type BulkLease struct{ buf []byte }

// Claim returns data as the caller's own when it is the leased buffer.
func (l *BulkLease) Claim(data []byte) []byte {
	if len(data) == 0 || len(l.buf) == 0 || &data[0] != &l.buf[0] {
		return nil
	}
	l.buf = nil
	return data
}
