// Package goroutineleak flags goroutines with no way to stop. In the
// long-running server packages (gpuserver, apiserver, remoting, faas) every
// spawned goroutine must be able to exit — via return on a closed channel,
// a ctx/done signal, or a connection error — or restart-heavy serverless
// churn accumulates leaked goroutines until the process dies.
package goroutineleak

import (
	"go/ast"
	"go/types"

	"dgsf/internal/lint"
)

// Analyzer is the goroutineleak pass.
var Analyzer = &lint.Analyzer{
	Name: "goroutineleak",
	Doc: "goroutines spawned in server packages must have a shutdown path: an " +
		"infinite for-loop inside `go` must contain a return, a break out of " +
		"the loop, or a terminal call (panic/os.Exit/log.Fatal)",
	Run: run,
}

// scopeSuffixes are the long-running server packages under watch.
var scopeSuffixes = []string{
	"internal/gpuserver",
	"internal/apiserver",
	"internal/remoting",
	"internal/faas",
	"internal/store",
	"internal/controller",
	"cmd/gpuserver",
}

func run(pass *lint.Pass) error {
	inScope := false
	for _, s := range scopeSuffixes {
		if lint.PkgPathHasSuffix(pass.Pkg.Path(), s) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}

	// Index this package's function declarations so `go f()` and a method
	// value such as `go c.loop()` resolve to a body we can inspect.
	decls := map[types.Object]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.ObjectOf(fd.Name); obj != nil {
					decls[obj] = fd
				}
			}
		}
	}

	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue // test goroutines die with the test process
		}
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := goBody(pass, gs, decls)
			if body == nil {
				return true // dynamic target; cannot analyze
			}
			checkBody(pass, gs, body)
			return true
		})
	}
	return nil
}

// goBody resolves the statement list the goroutine will execute.
func goBody(pass *lint.Pass, gs *ast.GoStmt, decls map[types.Object]*ast.FuncDecl) *ast.BlockStmt {
	switch fun := gs.Call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		if fd := decls[pass.ObjectOf(fun)]; fd != nil {
			return fd.Body
		}
	case *ast.SelectorExpr:
		if fd := decls[pass.ObjectOf(fun.Sel)]; fd != nil {
			return fd.Body
		}
	}
	return nil
}

// checkBody reports every infinite for-loop in body with no exit.
func checkBody(pass *lint.Pass, gs *ast.GoStmt, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a nested closure is not this goroutine's body
		}
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil || loop.Init != nil || loop.Post != nil {
			return true
		}
		if !loopCanExit(pass, loop) {
			pass.Reportf(gs.Pos(), "goroutine runs an infinite loop (at %s) with no return, break or terminal call: it can never be shut down — select on a done/ctx channel or exit on error", pass.Fset.Position(loop.Pos()))
		}
		return true
	})
}

// loopCanExit reports whether an infinite `for { ... }` has any path out.
func loopCanExit(pass *lint.Pass, loop *ast.ForStmt) bool {
	canExit := false
	// depth counts enclosing break targets (for/range/select/switch) between
	// a statement and this loop: an unlabeled break only exits the loop when
	// depth is zero.
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		if canExit || n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return // separate function; its returns do not exit the loop
		case *ast.ReturnStmt:
			canExit = true
			return
		case *ast.BranchStmt:
			// A labeled break/goto out of the loop, or an unlabeled break
			// belonging to it.
			if n.Tok.String() == "break" && (n.Label != nil || depth == 0) {
				canExit = true
			}
			if n.Tok.String() == "goto" {
				canExit = true
			}
			return
		case *ast.CallExpr:
			if isTerminalCall(pass, n) {
				canExit = true
				return
			}
		case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
			ast.Inspect(n, func(m ast.Node) bool {
				if m == n || canExit {
					return m == n
				}
				walk(m, depth+1)
				return false
			})
			return
		}
		// Generic recursion over children at the same depth.
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n || canExit {
				return m == n
			}
			walk(m, depth)
			return false
		})
	}
	for _, st := range loop.Body.List {
		walk(st, 0)
	}
	return canExit
}

// isTerminalCall reports calls that never return: panic, os.Exit,
// log.Fatal*, runtime.Goexit.
func isTerminalCall(pass *lint.Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			if _, isBuiltin := pass.ObjectOf(fun).(*types.Builtin); isBuiltin {
				return true
			}
		}
	case *ast.SelectorExpr:
		fn, ok := pass.ObjectOf(fun.Sel).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() {
		case "os":
			return fn.Name() == "Exit"
		case "log":
			return fn.Name() == "Fatal" || fn.Name() == "Fatalf" || fn.Name() == "Fatalln" ||
				fn.Name() == "Panic" || fn.Name() == "Panicf" || fn.Name() == "Panicln"
		case "runtime":
			return fn.Name() == "Goexit"
		}
	}
	return false
}
