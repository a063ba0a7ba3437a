// Compatibility matrix for the wire-protocol version negotiation: every
// pairing of v1 and v2 endpoints must interoperate, over both the simulated
// transport and real TCP, across several deterministic seeds — the rolling
// upgrade story is that any mix of old and new builds keeps working.
package remoting_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"

	"dgsf/internal/remoting"
	"dgsf/internal/sim"
)

var compatSeeds = []int64{1, 2, 3, 7}

// wantVer is the version the hello must land on for a given pairing.
func wantVer(clientMax, serverMax int) int {
	if clientMax >= remoting.ProtoV2 && serverMax >= remoting.ProtoV2 {
		return remoting.ProtoV2
	}
	return remoting.ProtoV1
}

// simServer is an echo server honest about its protocol ceiling: a v2-capable
// one answers hellos, a v1-only one rejects the unknown call ID with an error
// status — exactly what an old build's dispatcher does.
func simServer(p *sim.Proc, l *remoting.Listener, serverMax int) {
	p.SpawnDaemon("server", func(p *sim.Proc) {
		for {
			req, ok := l.Incoming.Recv(p)
			if !ok {
				return
			}
			if reply, _, ok := remoting.HandleHello(req.Payload, serverMax); ok {
				req.ReplyTo.TrySend(remoting.Response{Payload: reply, Proto: remoting.ProtoV1})
				continue
			}
			if len(req.Payload) >= 2 && binary.LittleEndian.Uint16(req.Payload) == remoting.CallProtoHello {
				// v1 build: unknown call, error status.
				req.ReplyTo.TrySend(remoting.Response{Payload: []byte{1, 0, 0, 0}, Proto: remoting.ProtoV1})
				continue
			}
			resp := remoting.Response{
				Payload: append([]byte("re:"), req.Payload...),
				Proto:   req.Proto,
			}
			if req.Bulk != nil {
				resp.Bulk = append([]byte(nil), req.Bulk...)
			}
			req.ReplyTo.Send(resp)
		}
	})
}

func TestCompatMatrixSim(t *testing.T) {
	versions := []int{remoting.ProtoV1, remoting.ProtoV2}
	for _, seed := range compatSeeds {
		for _, serverMax := range versions {
			for _, clientMax := range versions {
				e := sim.NewEngine(seed)
				e.Run("root", func(p *sim.Proc) {
					l := remoting.NewListener(e)
					simServer(p, l, serverMax)
					conn := remoting.DialVersion(e, l, remoting.NetProfile{}, clientMax)
					resp, err := conn.Roundtrip(p, []byte("ping"), 0)
					if err != nil {
						t.Fatalf("seed %d c%d/s%d: %v", seed, clientMax, serverMax, err)
					}
					if string(resp) != "re:ping" {
						t.Fatalf("seed %d c%d/s%d: resp %q", seed, clientMax, serverMax, resp)
					}
					want := wantVer(clientMax, serverMax)
					if v := conn.(remoting.VecCaller).ProtoVersion(); v != want {
						t.Fatalf("seed %d c%d/s%d: negotiated v%d, want v%d", seed, clientMax, serverMax, v, want)
					}
					if want == remoting.ProtoV2 {
						bulk := bytes.Repeat([]byte{0xAB}, 128<<10)
						dst := make([]byte, len(bulk))
						resp, respBulk, err := conn.(remoting.VecCaller).RoundtripVec(p, []byte("vec"), bulk, dst)
						if err != nil {
							t.Fatalf("seed %d vec: %v", seed, err)
						}
						if string(resp) != "re:vec" || !bytes.Equal(respBulk, bulk) {
							t.Fatalf("seed %d vec: corrupted round trip", seed)
						}
						if &respBulk[0] != &dst[0] {
							t.Fatalf("seed %d vec: reply bulk not scattered into caller buffer", seed)
						}
					}
				})
			}
		}
	}
}

func TestCompatSimCorruptedHello(t *testing.T) {
	// A corrupted negotiation is a corrupted stream: the first call fails
	// typed and the connection is dead — never a silent wrong-version limbo.
	for _, seed := range compatSeeds {
		e := sim.NewEngine(seed)
		e.Run("root", func(p *sim.Proc) {
			l := remoting.NewListener(e)
			simServer(p, l, remoting.MaxProtoVersion)
			conn := remoting.Dial(e, l, remoting.NetProfile{})
			conn.(remoting.Faultable).CorruptNext() // lands on the hello
			if _, err := conn.Roundtrip(p, []byte("ping"), 0); !errors.Is(err, remoting.ErrFrameCorrupt) {
				t.Fatalf("seed %d: corrupted hello error = %v, want ErrFrameCorrupt", seed, err)
			}
			if _, err := conn.Roundtrip(p, []byte("ping"), 0); !errors.Is(err, remoting.ErrConnClosed) {
				t.Fatalf("seed %d: conn after corrupt hello = %v, want ErrConnClosed", seed, err)
			}
		})
	}
}

// startTCPServer runs a ServeConnVersion bridge into an open-mode engine
// hosting an echo daemon, returning the listen address.
func startTCPServer(t *testing.T, e *sim.Engine, serverMax int) string {
	t.Helper()
	inbox := sim.NewQueue[remoting.Request](e)
	e.InjectDaemon("echo", func(p *sim.Proc) {
		for {
			req, ok := inbox.Recv(p)
			if !ok {
				return
			}
			resp := remoting.Response{
				Payload: append([]byte("re:"), req.Payload...),
				Proto:   req.Proto,
			}
			if req.Bulk != nil {
				resp.Bulk = append([]byte(nil), req.Bulk...)
			}
			req.ReplyTo.Send(resp)
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			remoting.ServeConnVersion(e, conn, inbox, serverMax)
		}
	}()
	return ln.Addr().String()
}

func TestCompatMatrixTCP(t *testing.T) {
	versions := []int{remoting.ProtoV1, remoting.ProtoV2}
	for _, seed := range compatSeeds {
		for _, serverMax := range versions {
			e := sim.NewOpenEngine(seed)
			addr := startTCPServer(t, e, serverMax)
			for _, clientMax := range versions {
				caller, err := remoting.DialTCPVersion(addr, clientMax)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := caller.Roundtrip(nil, []byte("ping"), 0)
				if err != nil {
					t.Fatalf("seed %d c%d/s%d: %v", seed, clientMax, serverMax, err)
				}
				if string(resp) != "re:ping" {
					t.Fatalf("seed %d c%d/s%d: resp %q", seed, clientMax, serverMax, resp)
				}
				want := wantVer(clientMax, serverMax)
				if v := caller.(remoting.VecCaller).ProtoVersion(); v != want {
					t.Fatalf("seed %d c%d/s%d: negotiated v%d, want v%d", seed, clientMax, serverMax, v, want)
				}
				if want == remoting.ProtoV2 {
					bulk := bytes.Repeat([]byte{0xCD}, 128<<10)
					dst := make([]byte, len(bulk))
					resp, respBulk, err := caller.(remoting.VecCaller).RoundtripVec(nil, []byte("vec"), bulk, dst)
					if err != nil {
						t.Fatalf("seed %d tcp vec: %v", seed, err)
					}
					if string(resp) != "re:vec" || !bytes.Equal(respBulk, bulk) {
						t.Fatalf("seed %d tcp vec: corrupted round trip", seed)
					}
					if &respBulk[0] != &dst[0] {
						t.Fatalf("seed %d tcp vec: reply bulk not scattered into caller buffer", seed)
					}
				}
				caller.Close()
			}
			e.Stop()
		}
	}
}

func TestCompatTCPGarbledHelloReplyFallsBackToV1(t *testing.T) {
	// A middlebox (or hostile peer) that answers the hello with garbage must
	// leave the client on v1, still able to talk to a v1 echo server.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// First frame is the hello: answer with bytes that parse as a
		// successful status but a nonsense negotiation payload. This peer
		// deliberately speaks raw frames — it emulates a middlebox that no
		// transport helper would produce.
		//lint:allow rawconn hostile peer emulation must hand-craft frames
		if _, _, _, err := remoting.ReadFrame(conn, remoting.ProtoV1, nil, nil); err != nil {
			return
		}
		//lint:allow rawconn garbled hello reply, bypassing HandleHello on purpose
		if err := remoting.WriteFrame(conn, remoting.ProtoV1, []byte{0, 0, 0, 0, 0x99, 0x77}, nil, 0); err != nil {
			return
		}
		for { // then speak plain v1 echo
			//lint:allow rawconn raw v1 echo loop for the fallback assertion
			payload, _, data, err := remoting.ReadFrame(conn, remoting.ProtoV1, nil, nil)
			if err != nil {
				return
			}
			//lint:allow rawconn raw v1 echo loop for the fallback assertion
			if err := remoting.WriteFrame(conn, remoting.ProtoV1, append([]byte("re:"), payload...), nil, data); err != nil {
				return
			}
		}
	}()
	caller, err := remoting.DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()
	if v := caller.(remoting.VecCaller).ProtoVersion(); v != remoting.ProtoV1 {
		t.Fatalf("garbled hello reply negotiated v%d, want fallback to v1", v)
	}
	resp, err := caller.Roundtrip(nil, []byte("ping"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "re:ping" {
		t.Fatalf("resp = %q", resp)
	}
}
