// Package frozenwrite enforces the read-only half of the store's sharing
// contract (DESIGN §5 "Watches"). An object the store has stored is frozen,
// and the store hands that one object — not a copy — to its replay log, to
// every watcher and to every pull; a controller's cache hands the same view
// to every reader. Such a value may be read, passed on and kept for as long
// as anyone likes (that is what makes sharing it sound), but writing through
// it changes what every other holder sees: the cache, the other watchers, a
// replay served an hour later.
//
// Two kinds of values are frozen:
//
//   - the Object field of a store.Event, wherever the event came from;
//   - the results of controller.Cache.Get and Cache.UpdateStatus.
//
// Until a DeepCopy() — whose result is the caller's own — the pass reports
// every assignment that goes through such a value (x.Status.F = v,
// *x.Meta() = m, x.(*store.Session).Spec = s, ++ and op= included; Meta's
// result aliases its receiver), every call that hands it to a parameter a
// one-level summary shows is written through, and the in-place decoders
// (DecodeSpec, DecodeStatus) called on it. Assigning to a field of a struct
// copied out of it (st := x.Status; st.F = v) touches only the copy and is
// fine. Test files are exempt: a test may plant the violation it checks for.
package frozenwrite

import (
	"go/ast"
	"go/token"
	"go/types"

	"dgsf/internal/lint"
	"dgsf/internal/lint/dataflow"
)

// Analyzer is the frozenwrite pass.
var Analyzer = &lint.Analyzer{
	Name: "frozenwrite",
	Doc: "the Object of a store.Event and the views controller.Cache hands out " +
		"are shared and frozen: they may be read and retained, but not written " +
		"through before a DeepCopy()",
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
		if name != "Get" && name != "UpdateStatus" {
			return ""
		}
		if fn := dataflow.CalleeFunc(e, info); fn != nil {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && recvNamed(recv.Type(), "internal/controller", "Cache") {
				return "the view controller.Cache." + name + " returned"
			}
		}
	}
	return ""
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
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			if what := frozenOrigin(pass.Info, e); what != "" {
				check(pass, pkg, fn.Track(dataflow.Origin{Expr: e}), what, reported)
			}
			return true
		})
	}
	return nil
}

func check(pass *lint.Pass, pkg *dataflow.Package, v *dataflow.Value, what string, reported map[token.Pos]bool) {
	const contract = "is shared with the store's log, caches and every other watcher, and frozen"
	report := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}
	for _, w := range v.Writes {
		report(w.Pos, "%s %s: this assignment writes through it; DeepCopy() it first and change the copy", what, contract)
	}
	for _, f := range v.Flows {
		if f.Kind != dataflow.FlowCallArg || f.Call == nil {
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
