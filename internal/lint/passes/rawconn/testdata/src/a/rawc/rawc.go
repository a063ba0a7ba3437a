package rawc

import (
	"net"

	"b/internal/remoting"
)

// The headline case, planted in cmd/gpuserver's accept loop: a server with
// no free API server tells the client so in raw bytes and hangs up. The
// client's frame reader takes "busy" for a header and reports a corrupt
// frame, not a capacity error, and neither fault injection nor the byte
// counters see the write. No tier-1 test runs the daemon.
func refuse(c net.Conn) {
	_, _ = c.Write([]byte("busy\n")) // want "direct Write on a net connection"
	_ = c.Close()
}

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
