package dataflow

import (
	"go/ast"
	"go/types"
)

// flowWalker performs the final pass over a function body, recording every
// return, call and write-through involving an expression that carries the
// tracked value at that point. It maintains the enclosing-node stack so each
// Flow can reason about branches.
type flowWalker struct {
	t      *tracker
	stack  []ast.Node
	flows  []Flow
	writes []Flow // the FlowWrite events, in source order
}

func (w *flowWalker) site(n ast.Node) Site {
	return Site{Pos: n.Pos(), Stack: copyStack(w.stack)}
}

func (w *flowWalker) carries(e ast.Expr) bool {
	if e == nil {
		return false
	}
	return w.t.carriesAt(e, e.Pos())
}

func (w *flowWalker) walk(root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			w.stack = w.stack[:len(w.stack)-1]
			return true
		}
		w.stack = append(w.stack, n)
		switch n := n.(type) {
		case *ast.GoStmt:
			// The goroutine body is another execution. Pop manually since
			// we stop the descent.
			w.stack = w.stack[:len(w.stack)-1]
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				w.write(n, lhs)
			}
		case *ast.IncDecStmt:
			w.write(n, n.X)
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if w.carries(r) {
					w.flows = append(w.flows, Flow{Site: w.site(n), Kind: FlowReturn})
				}
			}
		case *ast.CallExpr:
			w.call(n)
		}
		return true
	})
}

// write records a FlowWrite event when dst, the destination of the assignment
// n, is storage reached through the tracked value.
func (w *flowWalker) write(n ast.Node, dst ast.Expr) {
	root, indirect := lvalueRoot(dst, w.t.fn.pkg.Info)
	if indirect && w.carries(root) {
		w.writes = append(w.writes, Flow{Site: w.site(n), Kind: FlowWrite})
	}
}

// lvalueRoot walks an assignable expression down to the value it starts
// from — x for x.f.g, x[i].f and *x; the call for x.M().f — and reports
// whether the walk crossed an indirection: a field of a pointer's target, an
// element of a slice or map, a dereference. Without one, the assignment
// changes only the root variable's own storage.
func lvalueRoot(e ast.Expr, info *types.Info) (root ast.Expr, indirect bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.ObjectOf(id).(*types.PkgName); isPkg {
					return x, indirect
				}
			}
			if t := info.TypeOf(x.X); t != nil {
				if _, ptr := t.Underlying().(*types.Pointer); ptr {
					indirect = true
				}
			}
			e = x.X
		case *ast.IndexExpr:
			if t := info.TypeOf(x.X); t != nil {
				if _, array := t.Underlying().(*types.Array); !array {
					indirect = true
				}
			}
			e = x.X
		case *ast.StarExpr:
			indirect = true
			e = x.X
		default:
			return x, indirect
		}
	}
}

// call records CallArg flows for tracked arguments and receivers.
func (w *flowWalker) call(n *ast.CallExpr) {
	info := w.t.fn.pkg.Info
	if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
		return // conversion, handled by carriesAt
	}
	if builtinName(n, info) != "" {
		return
	}
	name := CalleeName(n)
	for i, a := range n.Args {
		if w.carries(a) {
			w.flows = append(w.flows, Flow{Site: w.site(n), Kind: FlowCallArg, Call: n, ArgIndex: i, CalleeName: name})
		}
	}
	if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && w.carries(sel.X) {
		w.flows = append(w.flows, Flow{Site: w.site(n), Kind: FlowCallArg, Call: n, ArgIndex: -1, CalleeName: name})
	}
}
