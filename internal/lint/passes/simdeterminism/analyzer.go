// Package simdeterminism forbids nondeterminism sources in simulation-driven
// code: wall-clock reads, the global math/rand generator, and unordered map
// iteration that feeds simulated events or leaks into a slice's order. The
// simulator's reproducibility
// guarantee (same seed, same trace) holds only if every event's timing and
// payload derive from the engine seed; see internal/sim's per-Proc RNG.
package simdeterminism

import (
	"go/ast"
	"go/types"
	"strings"

	"dgsf/internal/lint"
)

// Analyzer is the simdeterminism pass.
var Analyzer = &lint.Analyzer{
	Name: "simdeterminism",
	Doc: "forbid time.Now, global math/rand and unordered map iteration feeding " +
		"sim events or an unsorted slice; use p.Now()/p.Rand() so runs replay deterministically " +
		"(//lint:allow simdeterminism for real-clock paths like the TCP transport)",
	Run: run,
}

// forbiddenTime lists time-package functions that read or depend on the real
// clock. Constructors like time.Duration arithmetic are fine.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRand lists math/rand functions that construct explicitly-seeded
// generators (the deterministic per-Proc pattern); every other package-level
// function uses the shared global source.
var allowedRand = map[string]bool{"New": true, "NewSource": true}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue // tests may time themselves
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkSelector(pass, n)
			case *ast.RangeStmt:
				checkRange(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkOrderLeak(pass, n.Body)
				}
			}
			return true
		})
	}
	return nil
}

func checkSelector(pass *lint.Pass, sel *ast.SelectorExpr) {
	obj := pass.ObjectOf(sel.Sel)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	// Only package-level functions: methods (e.g. (*rand.Rand).Intn,
	// (time.Time).Sub) have a receiver and are deterministic given their
	// receiver.
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTime[fn.Name()] {
			pass.Reportf(sel.Pos(), "time.%s reads the real clock; use the Proc/engine virtual clock (p.Now) in simulation-driven code", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRand[fn.Name()] {
			pass.Reportf(sel.Pos(), "rand.%s uses the global RNG; use the deterministic per-Proc generator (p.Rand) seeded from the engine seed", fn.Name())
		}
	}
}

// checkRange flags `for k := range m` over a map when the loop body makes a
// call involving a *sim.Proc or other internal/sim value — map order is
// random per run, so such a loop emits simulated events, or arms Engine.At
// callbacks whose arming order breaks ties between equal instants, in random
// order — or
// draws from a *rand.Rand: even an explicitly-seeded generator becomes
// nondeterministic when its draw order follows map order. The chaos schedule
// generator is the canonical client of the second rule: a fault plan must be
// a pure function of (seed, trial), which randomized draw order breaks
// silently.
func checkRange(pass *lint.Pass, rng *ast.RangeStmt) {
	if !isMap(pass.TypeOf(rng.X)) {
		return
	}
	var badSim, badRand ast.Node
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if badSim != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callTouchesSim(pass, call) {
			badSim = call
			return false
		}
		if badRand == nil && callDrawsRand(pass, call) {
			badRand = call
		}
		return true
	})
	if badSim != nil {
		pass.Reportf(rng.Pos(), "map iteration order is randomized but this loop drives simulated events (%s); collect and sort the keys first", exprString(pass, badSim))
		return
	}
	if badRand != nil {
		pass.Reportf(rng.Pos(), "map iteration order is randomized but this loop draws from an RNG (%s), so the draw sequence differs per run; collect and sort the keys first", exprString(pass, badRand))
	}
}

// checkOrderLeak flags the quiet form of the same bug: a `range` over a map
// whose body appends to a slice that outlives the loop, in a function that
// never sorts that slice. Nothing in the loop touches the simulator, but the
// slice now carries map order to whoever walks it next — the GPU server's
// monitor once picked its migration victim that way. Handing the slice to any
// sort.* function or slices.Sort* anywhere in the function clears it.
func checkOrderLeak(pass *lint.Pass, body *ast.BlockStmt) {
	sorted := map[types.Object]bool{}
	var ranges []*ast.RangeStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if isMap(pass.TypeOf(n.X)) {
				ranges = append(ranges, n)
			}
		case *ast.CallExpr:
			if !isSortCall(pass, n) {
				break
			}
			for _, arg := range n.Args {
				ast.Inspect(arg, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						sorted[pass.ObjectOf(id)] = true
					}
					return true
				})
			}
		}
		return true
	})
	for _, rng := range ranges {
		ast.Inspect(rng.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || !isAppend(pass, as.Rhs[0]) {
				return true
			}
			id, _ := as.Lhs[0].(*ast.Ident)
			if sel, ok := as.Lhs[0].(*ast.SelectorExpr); ok {
				id = sel.Sel // a field: declared outside any loop
			}
			if id == nil {
				return true
			}
			obj := pass.ObjectOf(id)
			if obj == nil || sorted[obj] || (obj.Pos() >= rng.Pos() && obj.Pos() < rng.End()) {
				return true
			}
			pass.Reportf(as.Pos(), "map iteration order is randomized and this loop appends to %s, which the function never sorts; hand it to sort.* or slices.Sort* before anything can observe its order", id.Name)
			return true
		})
	}
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isAppend(pass *lint.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// isSortCall reports whether call is a package-level function of sort, or one
// of slices' Sort family.
func isSortCall(pass *lint.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == "sort" || path == "slices" && strings.HasPrefix(fn.Name(), "Sort")
}

func callTouchesSim(pass *lint.Pass, call *ast.CallExpr) bool {
	// Builtins (delete, append, len, ...) never emit events.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin {
			return false
		}
	}
	for _, arg := range call.Args {
		if isSimType(pass.TypeOf(arg)) {
			return true
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if isSimType(pass.TypeOf(sel.X)) {
			return true
		}
	}
	return false
}

// callDrawsRand reports whether the call is a method on a math/rand
// generator (*rand.Rand, rand.Source) — a draw whose position in the stream,
// and therefore its value, depends on the surrounding iteration order.
func callDrawsRand(pass *lint.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return isRandType(pass.TypeOf(sel.X))
}

func isRandType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	return path == "math/rand" || path == "math/rand/v2"
}

func isSimType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return lint.PkgPathHasSuffix(named.Obj().Pkg().Path(), "internal/sim")
}

func exprString(pass *lint.Pass, n ast.Node) string {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "call"
	}
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return "call to " + fun.Sel.Name
	case *ast.Ident:
		return "call to " + fun.Name
	}
	return "call"
}
