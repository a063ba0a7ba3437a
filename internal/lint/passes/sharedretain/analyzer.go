// Package sharedretain enforces the shared-decode aliasing contract of the
// wire path (DESIGN §4c). The Shared decode variants — StrsShared,
// LaunchShared, BytesShared, and the generated per-request DecodeShared —
// return values backed by the decoder's buffer or scratch: they die when
// the decoder is released or reset, so they may be read and dispatched but
// never stored or returned without a deep copy (strings.Clone per element,
// a fresh []byte, or an owned slice).
//
// Three kinds of values carry the shared lifetime:
//
//   - Results of wire.Decoder shared-decode methods.
//   - Request structs populated in place by a generated DecodeShared: their
//     decoded reference fields alias the dispatch decoder from that call on.
//   - Backend method parameters listed in gen.SharedDecodeParams: the
//     generated dispatch passes shared-decoded request fields straight
//     through, so every implementation of RegisterKernels / LaunchKernel /
//     MemWrite receives aliases it must not retain.
//
// One of those parameters can change hands. The bulk parameters listed in
// gen.OwnedBulkParams (MemWrite's data) arrive in a buffer the transport may
// have given away with the request; a handler finds out by passing the
// parameter to the claim method gen.OwnedBulkClaim names, whose non-nil
// result is the handler's own to keep. The analyzer models the claim as what
// it is — a function that returns its argument, so its result is exactly as
// borrowed as what went in — and the table as the one exemption: the claim
// applied to an OwnedBulkParams parameter, inside the method the table names,
// yields an owned value. Storing the parameter itself stays an error.
//
// The wire package itself is exempt (it implements the scratch), as are the
// generated DecodeShared bodies (storing the alias into the request is the
// mechanism) and the guest side's methods — the generated Client and the
// guest library on top of it — whose parameters come from the application
// caller, not a shared decode (what the library borrows from the application,
// and for how long, is the gen.API contract's business). The engine's sanitizers
// apply: string([]byte) conversions, appends of shallow-safe elements, and
// strings.Clone all produce owned values.
package sharedretain

import (
	"go/ast"
	"go/types"

	"dgsf/internal/lint"
	"dgsf/internal/lint/dataflow"
	"dgsf/internal/remoting/gen"
)

// Analyzer is the sharedretain pass.
var Analyzer = &lint.Analyzer{
	Name: "sharedretain",
	Doc: "values from the Shared decode variants (StrsShared/LaunchShared/" +
		"BytesShared/DecodeShared) alias the decoder's scratch and must not be " +
		"stored or returned without a deep copy; backend parameters listed in " +
		"gen.SharedDecodeParams carry the same lifetime",
	Run: run,
}

// The contract tables default to the generated single source of truth and
// are overridable in tests.
var (
	// SharedMethods names the decoder methods whose results alias scratch.
	SharedMethods = gen.SharedDecodeMethods
	// SharedParams maps backend call names to their shared parameters.
	SharedParams = gen.SharedDecodeParams
	// OwnedParams maps backend call names to the bulk parameter a transport
	// may hand over as owned; OwnedClaim names the remoting method that
	// tells a handler whether it did.
	OwnedParams = gen.OwnedBulkParams
	OwnedClaim  = gen.OwnedBulkClaim
)

func calleeInPkg(info *types.Info, call *ast.CallExpr, suffix string) bool {
	fn := dataflow.CalleeFunc(call, info)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return lint.PkgPathHasSuffix(fn.Pkg().Path(), suffix)
}

// isSharedDecode matches d.StrsShared() / d.LaunchShared() / d.BytesShared()
// on the wire decoder; isDecodeShared matches the generated in-place
// req.DecodeShared(dec).
func isSharedDecode(info *types.Info, call *ast.CallExpr) bool {
	name := dataflow.CalleeName(call)
	return name != "DecodeShared" && SharedMethods[name] && calleeInPkg(info, call, "remoting/wire")
}

func isDecodeShared(info *types.Info, call *ast.CallExpr) bool {
	return dataflow.CalleeName(call) == "DecodeShared" && SharedMethods["DecodeShared"] &&
		calleeInPkg(info, call, "remoting/gen")
}

// firstParamIsProc reports the backend-method shape: a leading *sim.Proc
// parameter. gen.SharedDecodeParams positions are relative to it.
func firstParamIsProc(fn *dataflow.Func) bool {
	if len(fn.Params) == 0 || fn.Params[0] == nil {
		return false
	}
	ptr, ok := fn.Params[0].Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Proc" && obj.Pkg() != nil && lint.PkgPathHasSuffix(obj.Pkg().Path(), "internal/sim")
}

func run(pass *lint.Pass) error {
	// The wire package implements the scratch these contracts protect.
	if lint.PkgPathHasSuffix(pass.Pkg.Path(), "remoting/wire") {
		return nil
	}
	guestSide := lint.PkgPathHasSuffix(pass.Pkg.Path(), "remoting/gen") ||
		lint.PkgPathHasSuffix(pass.Pkg.Path(), "internal/guest")
	pkg := dataflow.Analyze(pass.Files, pass.Info, claimConfig(pass))
	for _, fn := range pkg.Funcs {
		fd, ok := fn.Decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		// The generated DecodeShared bodies store the alias into the
		// request on purpose — that store is the contract, not a leak.
		if fd.Name.Name == "DecodeShared" {
			continue
		}
		checkSharedCalls(pass, pkg, fn)
		if !guestSide {
			checkSharedParams(pass, pkg, fn, fd)
		}
	}
	return nil
}

// claimConfig teaches the engine the ownership claim: its result aliases its
// argument, except where the generated table says the argument may have been
// handed over — the OwnedParams parameter of the backend method it belongs to.
func claimConfig(pass *lint.Pass) dataflow.Config {
	owned := map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			op, ok := OwnedParams[fd.Name.Name]
			if !ok {
				continue
			}
			var params []*ast.Ident
			for _, field := range fd.Type.Params.List {
				params = append(params, field.Names...)
			}
			if idx := op.Arg + 1; idx < len(params) { // positions are relative to the *sim.Proc parameter
				owned[pass.Info.ObjectOf(params[idx])] = true
			}
		}
	}
	return dataflow.Config{
		AliasResult: func(call *ast.CallExpr, info *types.Info) bool {
			if dataflow.CalleeName(call) != OwnedClaim || !calleeInPkg(info, call, "internal/remoting") || len(call.Args) != 1 {
				return false
			}
			id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
			return !ok || !owned[info.ObjectOf(id)]
		},
	}
}

// checkSharedCalls tracks the result of every shared-decode call and every
// request populated in place by DecodeShared.
func checkSharedCalls(pass *lint.Pass, pkg *dataflow.Package, fn *dataflow.Func) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isSharedDecode(pass.Info, call) {
			name := dataflow.CalleeName(call)
			v := fn.Track(dataflow.Origin{Expr: call})
			reportFlows(pass, pkg, v, "result of "+name)
		} else if isDecodeShared(pass.Info, call) {
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok {
				return true
			}
			recv, ok := pass.Info.ObjectOf(id).(*types.Var)
			if !ok {
				return true
			}
			v := fn.Track(dataflow.Origin{Param: recv, From: call.End()})
			reportFlows(pass, pkg, v, "request decoded in place by DecodeShared")
		}
		return true
	})
}

// checkSharedParams tracks backend-method parameters that the generated
// dispatch fills with shared-decoded request fields.
func checkSharedParams(pass *lint.Pass, pkg *dataflow.Package, fn *dataflow.Func, fd *ast.FuncDecl) {
	params, ok := SharedParams[fd.Name.Name]
	if !ok || !firstParamIsProc(fn) {
		return
	}
	for _, sp := range params {
		idx := sp.Arg + 1 // positions are relative to the *sim.Proc parameter
		if idx >= len(fn.Params) || fn.Params[idx] == nil {
			continue
		}
		v := fn.Track(dataflow.Origin{Param: fn.Params[idx]})
		what := "parameter " + fn.Params[idx].Name() + " of " + fd.Name.Name +
			" (shared-decoded request field " + sp.Field + ")"
		reportFlows(pass, pkg, v, what)
	}
}

// reportFlows flags every retention of a shared value: stores, sends,
// goroutine captures, returns, and calls whose summary stores the argument.
// Plain uses and dispatch through unknown callees are fine — the contract
// forbids retention, not reading.
func reportFlows(pass *lint.Pass, pkg *dataflow.Package, v *dataflow.Value, what string) {
	const contract = "aliases the decoder's scratch (dead once the decoder is released or reused)"
	for _, f := range v.Flows {
		switch f.Kind {
		case dataflow.FlowFieldStore, dataflow.FlowGlobalStore, dataflow.FlowIndexStore,
			dataflow.FlowChanSend, dataflow.FlowGoCapture:
			pass.Reportf(f.Pos, "%s %s and must not be retained (%s); deep-copy it first (strings.Clone per element or a fresh slice)", what, contract, f.Kind)
		case dataflow.FlowReturn:
			if !f.Deferred {
				pass.Reportf(f.Pos, "%s %s and must not be returned; deep-copy it first (strings.Clone per element or a fresh slice)", what, contract)
			}
		case dataflow.FlowCallArg:
			if f.Call == nil {
				continue
			}
			if callee := dataflow.CalleeFunc(f.Call, pass.Info); callee != nil {
				if sum := pkg.Summary(callee); sum != nil && f.ArgIndex >= 0 && f.ArgIndex < len(sum.Escapes) && sum.Escapes[f.ArgIndex] {
					pass.Reportf(f.Pos, "%s %s but %s retains its argument; deep-copy it first", what, contract, f.CalleeName)
				}
			}
		}
	}
}
