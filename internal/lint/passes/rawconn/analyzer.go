// Package rawconn keeps raw network I/O inside internal/remoting. Every
// byte between guest and API server must flow through the transport's
// framing layer (WriteFrame/ReadFrame) so that fault injection, bandwidth
// accounting and crash recovery observe all traffic; a stray conn.Write in
// another package bypasses all three.
package rawconn

import (
	"go/ast"
	"go/types"
	"strings"

	"dgsf/internal/lint"
)

// Analyzer is the rawconn pass.
var Analyzer = &lint.Analyzer{
	Name: "rawconn",
	Doc: "forbid direct net.Conn reads/writes, net dialing and frame " +
		"construction outside internal/remoting; all guest↔server bytes go " +
		"through the transport layer",
	Run: run,
}

// connMethods are the net.Conn operations that move or gate bytes. Close is
// allowed: owners of an accepted conn may close it.
var connMethods = map[string]bool{
	"Read": true, "Write": true,
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
}

// dialFuncs are net package entry points that open client connections;
// guests must connect through remoting.DialTCP instead. Listen/Accept stay
// allowed so servers can hand accepted conns to remoting.ServeConn.
var dialFuncs = map[string]bool{
	"Dial": true, "DialTimeout": true, "DialTCP": true, "DialUDP": true, "DialUnix": true, "DialIP": true,
}

// frameFuncs are remoting's framing primitives, reserved to the transport
// itself.
var frameFuncs = map[string]bool{"ReadFrame": true, "WriteFrame": true}

func run(pass *lint.Pass) error {
	path := pass.Pkg.Path()
	if lint.PkgPathHasSuffix(path, "internal/remoting") || strings.Contains(path, "internal/remoting/") {
		return nil // the transport layer and its subpackages are the one place this is allowed
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.ObjectOf(sel.Sel)
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			sig, _ := fn.Type().(*types.Signature)
			switch {
			case fn.Pkg().Path() == "net" && sig != nil && sig.Recv() != nil && connMethods[fn.Name()]:
				pass.Reportf(call.Pos(), "direct %s on a net connection outside internal/remoting bypasses framing, fault injection and bandwidth accounting; use the transport layer", fn.Name())
			case fn.Pkg().Path() == "net" && sig != nil && sig.Recv() == nil && dialFuncs[fn.Name()]:
				pass.Reportf(call.Pos(), "net.%s outside internal/remoting; connect through remoting (DialTCP) so the session owns the conn", fn.Name())
			case lint.PkgPathHasSuffix(fn.Pkg().Path(), "internal/remoting") && sig != nil && sig.Recv() == nil && frameFuncs[fn.Name()]:
				pass.Reportf(call.Pos(), "remoting.%s is the transport's framing primitive; packages outside internal/remoting must use Roundtrip/Submit", fn.Name())
			}
			return true
		})
	}
	return nil
}
