package dataflow

import (
	"go/ast"
	"go/types"
)

// flowWalker performs the final pass over a function body, recording every
// event involving an expression that carries the tracked value at that
// point. It maintains the enclosing-node stack so each Flow can reason
// about branches, and a defer depth so flows inside defer statements are
// marked as executing at function exit.
type flowWalker struct {
	t          *tracker
	stack      []ast.Node
	deferDepth int
	flows      []Flow
	writes     []Flow // the FlowWrite events, in source order
}

func (w *flowWalker) site(n ast.Node) Site {
	return Site{Pos: n.Pos(), Stack: copyStack(w.stack)}
}

func (w *flowWalker) emit(f Flow) {
	f.Deferred = w.deferDepth > 0
	w.flows = append(w.flows, f)
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
			popped := w.stack[len(w.stack)-1]
			w.stack = w.stack[:len(w.stack)-1]
			if _, ok := popped.(*ast.DeferStmt); ok {
				w.deferDepth--
			}
			return true
		}
		w.stack = append(w.stack, n)
		switch n := n.(type) {
		case *ast.DeferStmt:
			w.deferDepth++
		case *ast.GoStmt:
			w.goStmt(n)
			// The goroutine body runs concurrently; the capture itself is
			// the event. Pop manually since we stop the descent.
			w.stack = w.stack[:len(w.stack)-1]
			return false
		case *ast.AssignStmt:
			w.assign(n)
		case *ast.IncDecStmt:
			w.write(n, n.X)
		case *ast.SendStmt:
			if w.carries(n.Value) {
				w.emit(Flow{Site: w.site(n), Kind: FlowChanSend})
			}
			if w.carries(n.Chan) {
				w.emit(Flow{Site: w.site(n), Kind: FlowUse})
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if w.carries(r) {
					w.emit(Flow{Site: w.site(n), Kind: FlowReturn})
				}
			}
		case *ast.CallExpr:
			w.call(n)
		case *ast.Ident:
			w.identUse(n)
		}
		return true
	})
}

// assign records store flows for non-ident destinations and Use flows for
// tracked values read on the right-hand side of a redefinition (the defs
// themselves were collected earlier).
func (w *flowWalker) assign(n *ast.AssignStmt) {
	info := w.t.fn.pkg.Info
	for i, lhs := range n.Lhs {
		w.write(n, lhs)
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && w.carries(ix.Index) {
			if _, isMap := info.TypeOf(ix.X).Underlying().(*types.Map); isMap {
				// A map keeps the key it is first given.
				w.emit(Flow{Site: w.site(n), Kind: FlowIndexStore})
			}
		}
		var rhs ast.Expr
		if len(n.Rhs) == len(n.Lhs) {
			rhs = n.Rhs[i]
		} else if len(n.Rhs) == 1 {
			rhs = n.Rhs[0]
		}
		if rhs == nil || !w.carries(rhs) {
			continue
		}
		switch dst := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if obj := info.ObjectOf(dst); obj != nil {
				if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
					w.emit(Flow{Site: w.site(n), Kind: FlowGlobalStore})
				}
			}
		case *ast.SelectorExpr:
			if id, ok := dst.X.(*ast.Ident); ok {
				if _, isPkg := info.ObjectOf(id).(*types.PkgName); isPkg {
					w.emit(Flow{Site: w.site(n), Kind: FlowGlobalStore})
					continue
				}
			}
			w.emit(Flow{Site: w.site(n), Kind: FlowFieldStore})
		case *ast.IndexExpr:
			w.emit(Flow{Site: w.site(n), Kind: FlowIndexStore})
		case *ast.StarExpr:
			// Store through a pointer: the pointee may outlive the frame.
			w.emit(Flow{Site: w.site(n), Kind: FlowFieldStore})
		}
	}
}

// write records a FlowWrite event when dst, the destination of the assignment
// n, is storage reached through the tracked value.
func (w *flowWalker) write(n ast.Node, dst ast.Expr) {
	root, indirect := lvalueRoot(dst, w.t.fn.pkg.Info)
	if indirect && w.carries(root) {
		w.writes = append(w.writes, Flow{Site: w.site(n), Kind: FlowWrite, Deferred: w.deferDepth > 0})
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

// goStmt records capture flows: tracked call arguments, a tracked method
// receiver, and tracked free variables of a `go func(){...}` closure.
func (w *flowWalker) goStmt(n *ast.GoStmt) {
	call := n.Call
	for i, a := range call.Args {
		if w.carries(a) {
			w.emit(Flow{Site: w.site(n), Kind: FlowGoCapture, Call: call, ArgIndex: i, CalleeName: CalleeName(call)})
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && w.carries(sel.X) {
		w.emit(Flow{Site: w.site(n), Kind: FlowGoCapture, Call: call, ArgIndex: -1, CalleeName: CalleeName(call)})
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		for range w.freeTaintedIdents(lit) {
			w.emit(Flow{Site: w.site(n), Kind: FlowGoCapture, Call: call, ArgIndex: -1})
		}
	}
}

// freeTaintedIdents returns one representative ident per tracked object
// referenced inside lit but declared outside it.
func (w *flowWalker) freeTaintedIdents(lit *ast.FuncLit) []*ast.Ident {
	info := w.t.fn.pkg.Info
	seen := map[types.Object]bool{}
	var out []*ast.Ident
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.ObjectOf(id)
		if obj == nil || seen[obj] {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true // declared inside the closure
		}
		if w.t.identTaintedAt(obj, lit.Pos()) {
			seen[obj] = true
			out = append(out, id)
		}
		return true
	})
	return out
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
			w.emit(Flow{Site: w.site(n), Kind: FlowCallArg, Call: n, ArgIndex: i, CalleeName: name})
		}
	}
	if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && w.carries(sel.X) {
		w.emit(Flow{Site: w.site(n), Kind: FlowCallArg, Call: n, ArgIndex: -1, CalleeName: name})
	}
}

// identUse records a bare Use flow for a tracked ident in read position.
// Writes are skipped: assignment left-hand sides were handled in assign.
func (w *flowWalker) identUse(id *ast.Ident) {
	obj := w.t.fn.pkg.Info.ObjectOf(id)
	if obj == nil {
		return
	}
	if _, ok := obj.(*types.Var); !ok {
		return
	}
	if !w.t.identTaintedAt(obj, id.Pos()) {
		return
	}
	// Skip idents that are assignment destinations.
	for i := len(w.stack) - 2; i >= 0; i-- {
		switch p := w.stack[i].(type) {
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if ast.Unparen(lhs) == ast.Node(id) {
					return
				}
			}
		case *ast.KeyValueExpr:
			if p.Key == ast.Node(id) {
				return
			}
		case *ast.SelectorExpr:
			if p.Sel == ast.Node(id) {
				return
			}
		}
		if _, ok := w.stack[i].(ast.Stmt); ok {
			break
		}
	}
	w.emit(Flow{Site: w.site(id), Kind: FlowUse})
}
