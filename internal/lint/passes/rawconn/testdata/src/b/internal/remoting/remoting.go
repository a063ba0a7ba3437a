// Package remoting is a miniature transport layer: the rawconn analyzer
// exempts any package whose path ends in internal/remoting.
package remoting

import "net"

// ReadFrame reads one frame. Inside the transport, raw conn I/O is allowed.
func ReadFrame(c net.Conn) ([]byte, error) {
	buf := make([]byte, 4)
	_, err := c.Read(buf)
	return buf, err
}

// WriteFrame writes one frame.
func WriteFrame(c net.Conn, b []byte) error {
	_, err := c.Write(b)
	return err
}
