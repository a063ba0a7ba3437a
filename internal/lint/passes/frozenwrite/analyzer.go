// Package frozenwrite enforces the read-only half of the store's sharing
// contract (DESIGN §5 "Watches"). An object the store has stored is frozen:
// a write takes ownership of its argument, which becomes the stored object,
// and the store hands that one object — not a copy — to its replay log, to
// every watcher, to every pull and back to its callers; a controller's cache
// hands the same view to every reader. Such a value may be read, passed on
// and kept for as long as anyone likes (that is what makes sharing it
// sound), but writing through it changes what every other holder sees: the
// cache, the other watchers, a replay served an hour later.
//
// These values are frozen:
//
//   - the Object field of a store.Event, wherever the event came from;
//   - the results of Get, List, Create, Update and UpdateStatus called on
//     any implementation of store.Interface (the interface included);
//   - the argument of Create, Update, UpdateStatus and UpdateStatusAsync on
//     such an implementation, from the end of the call on (the pass orders
//     statements lexically, as the dataflow engine does);
//   - the results of controller.Cache.Get and Cache.UpdateStatus, and the
//     argument of Cache.UpdateStatus after the call.
//
// Until a DeepCopy() — whose result is the caller's own — the pass reports
// every assignment that goes through such a value (x.Status.F = v,
// *x.Meta() = m, x.(*store.Session).Spec = s, ++ and op= included; Meta's
// result aliases its receiver), every call that hands it to a parameter a
// one-level summary shows is written through, the in-place decoders
// (DecodeSpec, DecodeStatus) called on it, and every store write it is
// handed to, which would take ownership of an object that is already the
// store's. Assigning to a field of a struct copied out of it
// (st := x.Status; st.F = v) touches only the copy and is fine. Test files
// are exempt: a test may plant the violation it checks for.
package frozenwrite

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"dgsf/internal/lint"
	"dgsf/internal/lint/dataflow"
)

// Analyzer is the frozenwrite pass.
var Analyzer = &lint.Analyzer{
	Name: "frozenwrite",
	Doc: "the Object of a store.Event, what the store's reads and writes return, " +
		"a write's argument once written and the views controller.Cache hands out " +
		"are shared and frozen: they may be read and retained, but not written " +
		"through or written back before a DeepCopy()",
	Run: run,
}

// decoders are the Resource methods that overwrite their receiver in place.
var decoders = map[string]bool{"DecodeSpec": true, "DecodeStatus": true}

// recvNamed reports whether t, or what it points to, is the named type
// pkgSuffix.name.
func recvNamed(t types.Type, pkgSuffix, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && lint.PkgPathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// storeReads are the store methods whose results are frozen; storeWrites
// are those that take ownership of their resource argument.
var (
	storeReads  = map[string]bool{"Get": true, "List": true, "Create": true, "Update": true, "UpdateStatus": true}
	storeWrites = map[string]bool{"Create": true, "Update": true, "UpdateStatus": true, "UpdateStatusAsync": true}
)

// storeCall reports whether call is a method of store.Interface called on
// an implementation of it (the interface itself included). The store
// package is the one that declares the Resource type in the method's
// signature.
func storeCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn := dataflow.CalleeFunc(call, info)
	recv := info.TypeOf(sel.X)
	if fn == nil || recv == nil {
		return false
	}
	sig := fn.Type().(*types.Signature)
	var pkg *types.Package
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tup.Len() && pkg == nil; i++ {
			t := tup.At(i).Type()
			if sl, ok := t.(*types.Slice); ok {
				t = sl.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Name() == "Resource" &&
				named.Obj().Pkg() != nil && lint.PkgPathHasSuffix(named.Obj().Pkg().Path(), "internal/store") {
				pkg = named.Obj().Pkg()
			}
		}
	}
	if pkg == nil {
		return false
	}
	obj, _ := pkg.Scope().Lookup("Interface").(*types.TypeName)
	if obj == nil {
		return false
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	if _, isPtr := recv.Underlying().(*types.Pointer); !isPtr && !types.IsInterface(recv) {
		recv = types.NewPointer(recv) // an addressable value has its pointer's methods
	}
	return types.Implements(recv, iface)
}

// cacheCall reports whether call is the named method of controller.Cache.
func cacheCall(info *types.Info, call *ast.CallExpr, name string) bool {
	if dataflow.CalleeName(call) != name {
		return false
	}
	fn := dataflow.CalleeFunc(call, info)
	if fn == nil {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && recvNamed(recv.Type(), "internal/controller", "Cache")
}

// writeCall reports whether call hands its resource argument to the store
// for good: a store write, or the cache's UpdateStatus, which forwards it.
func writeCall(info *types.Info, call *ast.CallExpr) bool {
	return (storeWrites[dataflow.CalleeName(call)] && storeCall(info, call)) || cacheCall(info, call, "UpdateStatus")
}

// frozenOrigin says what kind of frozen value e yields, or "".
func frozenOrigin(info *types.Info, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal &&
			e.Sel.Name == "Object" && recvNamed(sel.Recv(), "internal/store", "Event") {
			return "the Object of a store.Event"
		}
	case *ast.CallExpr:
		name := dataflow.CalleeName(e)
		switch {
		case (name == "Get" || name == "UpdateStatus") && cacheCall(info, e, name):
			return "the view controller.Cache." + name + " returned"
		case storeReads[name] && storeCall(info, e):
			return "what the store's " + name + " returned"
		}
	}
	return ""
}

// writtenArg returns the local variable a store write is handed as its
// resource argument, or nil.
func writtenArg(info *types.Info, call *ast.CallExpr) *types.Var {
	if len(call.Args) != 2 || !writeCall(info, call) {
		return nil
	}
	id, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := info.ObjectOf(id).(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
		return nil
	}
	return v
}

func run(pass *lint.Pass) error {
	pkg := dataflow.Analyze(pass.Files, pass.Info, dataflow.Config{
		// Meta returns a pointer into its receiver.
		AliasResult: func(call *ast.CallExpr, _ *types.Info) bool {
			return dataflow.CalleeName(call) == "Meta" && len(call.Args) == 0
		},
	})
	for _, fn := range pkg.Funcs {
		if pass.IsTestFile(fn.Decl.Pos()) {
			continue
		}
		reported := map[token.Pos]bool{} // two origins may reach one write
		var stack []ast.Node
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			if what := frozenOrigin(pass.Info, e); what != "" {
				check(pass, pkg, fn.Track(dataflow.Origin{Expr: e}), what, reported, nil)
			}
			if call, ok := e.(*ast.CallExpr); ok {
				if v := writtenArg(pass.Info, call); v != nil {
					what := "the argument the store's " + dataflow.CalleeName(call) + " took"
					at := dataflow.Site{Pos: call.Pos(), Stack: slices.Clone(stack)}
					check(pass, pkg, fn.Track(dataflow.Origin{Param: v, From: call.End()}), what, reported, &at)
				}
			}
			return true
		})
	}
	return nil
}

// check reports what v's writes and flows do to a frozen value. With from
// set — the write call that froze v — events in the other arm of a branch
// the call sits in do not follow it and are skipped.
func check(pass *lint.Pass, pkg *dataflow.Package, v *dataflow.Value, what string, reported map[token.Pos]bool, from *dataflow.Site) {
	const contract = "is shared with the store's log, caches and every other watcher, and frozen"
	report := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}
	follows := func(f dataflow.Flow) bool { return from == nil || !dataflow.MutuallyExclusive(*from, f.Site) }
	for _, w := range v.Writes {
		if !follows(w) {
			continue
		}
		report(w.Pos, "%s %s: this assignment writes through it; DeepCopy() it first and change the copy", what, contract)
	}
	for _, f := range v.Flows {
		if f.Kind != dataflow.FlowCallArg || f.Call == nil || !follows(f) {
			continue
		}
		if f.ArgIndex >= 0 && writeCall(pass.Info, f.Call) {
			report(f.Pos, "%s %s: %s takes ownership of its argument; pass it a DeepCopy()", what, contract, f.CalleeName)
			continue
		}
		if f.ArgIndex < 0 {
			if decoders[f.CalleeName] {
				report(f.Pos, "%s %s: %s overwrites it in place; DeepCopy() it first and decode into the copy", what, contract, f.CalleeName)
			}
			continue
		}
		if callee := dataflow.CalleeFunc(f.Call, pass.Info); callee != nil {
			if sum := pkg.Summary(callee); sum != nil && f.ArgIndex < len(sum.Writes) && sum.Writes[f.ArgIndex] {
				report(f.Pos, "%s %s, but %s writes through its argument; pass it a DeepCopy()", what, contract, f.CalleeName)
			}
		}
	}
}
