package rawc

import (
	"net"

	"b/internal/remoting"
)

func bad() {
	c, _ := net.Dial("tcp", "example:1") // want "net.Dial outside internal/remoting"
	buf := make([]byte, 4)
	_, _ = c.Read(buf)              // want "direct Read on a net connection"
	_, _ = c.Write(buf)             // want "direct Write on a net connection"
	_, _ = remoting.ReadFrame(c)    // want "framing primitive"
	_ = remoting.WriteFrame(c, buf) // want "framing primitive"
}

func good() (net.Listener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0") // servers may listen
	if err != nil {
		return nil, err
	}
	c, err := l.Accept() // and accept, handing the conn to the transport
	if err == nil {
		c.Close() // owners may close their conns
	}
	return l, nil
}
