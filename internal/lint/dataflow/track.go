package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A defRecord is one assignment to a named local, in source order. The set
// of records is fixed by the AST; only the tainted flags change during the
// fixpoint rounds.
type defRecord struct {
	obj types.Object
	// pos is where the definition takes effect — the END of the assigning
	// statement, so that a use of the old value on the right-hand side
	// (x = f(x)) is ordered before the new definition.
	pos token.Pos

	kind      defKind
	rhs       ast.Expr // exprRHS: the assigned expression; tupleDef: the call
	container ast.Expr // rangeDef/copyDef: the ranged-over / copied-from expr
	resultIdx int      // tupleDef: which result this lhs binds

	tainted bool
}

type defKind int

const (
	exprRHS  defKind = iota // x = <expr>
	tupleDef                // x, y := f() / v, ok := x.(T) / v, ok := <-ch
	rangeDef                // for _, v := range X — value or key binding
	copyDef                 // copy(x, src)
	zeroDef                 // var x T — explicit untainted definition
)

type tracker struct {
	fn     *Func
	origin Origin
	// useSummaries enables one-level interprocedural propagation; it is off
	// while computing summaries themselves to keep the analysis finite.
	useSummaries bool

	defs map[types.Object][]*defRecord
	// order holds every record in collection order for the fixpoint.
	order []*defRecord
}

func (fn *Func) track(origin Origin, useSummaries bool) *Value {
	t := &tracker{
		fn:           fn,
		origin:       origin,
		useSummaries: useSummaries,
		defs:         map[types.Object][]*defRecord{},
	}
	t.collectDefs()
	// Fixpoint: recompute taint flags until stable. The record list is
	// fixed, so each round is a linear rescan; functions are small.
	for round := 0; round < 32; round++ {
		changed := false
		for _, d := range t.order {
			nt := t.defTainted(d)
			if nt != d.tainted {
				d.tainted = nt
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	fw := &flowWalker{t: t}
	fw.walk(fn.Body)
	v := &Value{Flows: fw.flows, Writes: fw.writes}
	sort.SliceStable(v.Flows, func(i, j int) bool { return v.Flows[i].Pos < v.Flows[j].Pos })
	return v
}

// collectDefs records every named-local definition site in the body,
// including bodies of function literals (closures share the taint space of
// their enclosing function).
func (t *tracker) collectDefs() {
	ast.Inspect(t.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			t.collectAssign(n)
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					t.collectValueSpec(vs)
				}
			}
		case *ast.RangeStmt:
			t.collectRange(n)
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && builtinName(call, t.fn.pkg.Info) == "copy" && len(call.Args) == 2 {
				if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
					if obj := t.fn.pkg.Info.ObjectOf(id); obj != nil {
						t.addDef(&defRecord{obj: obj, pos: n.End(), kind: copyDef, container: call.Args[1]})
					}
				}
			}
		}
		return true
	})
}

func (t *tracker) collectAssign(n *ast.AssignStmt) {
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		// x, y := f() — or a two-value type assert, map read, channel recv.
		for i, lhs := range n.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := t.fn.pkg.Info.ObjectOf(id)
			if obj == nil {
				continue
			}
			t.addDef(&defRecord{obj: obj, pos: n.End(), kind: tupleDef, rhs: n.Rhs[0], resultIdx: i})
		}
		return
	}
	for i, lhs := range n.Lhs {
		if i >= len(n.Rhs) {
			break
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := t.fn.pkg.Info.ObjectOf(id)
		if obj == nil {
			continue
		}
		// += etc. keep the old value live; only plain = and := redefine.
		if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
			continue
		}
		t.addDef(&defRecord{obj: obj, pos: n.End(), kind: exprRHS, rhs: n.Rhs[i]})
	}
}

func (t *tracker) collectValueSpec(vs *ast.ValueSpec) {
	for i, name := range vs.Names {
		if name.Name == "_" {
			continue
		}
		obj := t.fn.pkg.Info.ObjectOf(name)
		if obj == nil {
			continue
		}
		switch {
		case len(vs.Values) == 0:
			t.addDef(&defRecord{obj: obj, pos: vs.End(), kind: zeroDef})
		case len(vs.Values) == 1 && len(vs.Names) > 1:
			t.addDef(&defRecord{obj: obj, pos: vs.End(), kind: tupleDef, rhs: vs.Values[0], resultIdx: i})
		case i < len(vs.Values):
			t.addDef(&defRecord{obj: obj, pos: vs.End(), kind: exprRHS, rhs: vs.Values[i]})
		}
	}
}

func (t *tracker) collectRange(n *ast.RangeStmt) {
	bind := func(e ast.Expr) {
		if e == nil {
			return
		}
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := t.fn.pkg.Info.ObjectOf(id)
		if obj == nil {
			return
		}
		t.addDef(&defRecord{obj: obj, pos: n.X.End(), kind: rangeDef, container: n.X})
	}
	bind(n.Key)
	bind(n.Value)
}

// addDef records d.
func (t *tracker) addDef(d *defRecord) {
	t.defs[d.obj] = append(t.defs[d.obj], d)
	t.order = append(t.order, d)
}

func copyStack(stack []ast.Node) []ast.Node {
	out := make([]ast.Node, len(stack))
	copy(out, stack)
	return out
}

// defTainted recomputes one record's taint flag from the current state.
func (t *tracker) defTainted(d *defRecord) bool {
	switch d.kind {
	case zeroDef:
		return false
	case exprRHS:
		return t.carriesAt(d.rhs, d.rhs.End())
	case tupleDef:
		if d.rhs == t.origin.Expr {
			return d.resultIdx == t.origin.Result || t.origin.Result < 0
		}
		// v, ok := x.(T): only v aliases; v, ok := <-ch: neither (channels
		// hand off ownership). Otherwise fall back to the call/index rules.
		switch rhs := ast.Unparen(d.rhs).(type) {
		case *ast.TypeAssertExpr:
			return d.resultIdx == 0 && t.carriesAt(rhs.X, rhs.End())
		case *ast.UnaryExpr:
			return false // <-ch
		case *ast.IndexExpr:
			return d.resultIdx == 0 && t.carriesAt(rhs, rhs.End())
		default:
			// Multi-result call: taint every binding if any result aliases.
			return t.carriesAt(d.rhs, d.rhs.End())
		}
	case rangeDef:
		if !t.carriesAt(d.container, d.container.End()) {
			return false
		}
		return !ShallowSafe(d.obj.Type())
	case copyDef:
		if !t.carriesAt(d.container, d.container.End()) {
			return false
		}
		if sl, ok := d.obj.Type().Underlying().(*types.Slice); ok {
			return !ShallowSafe(sl.Elem())
		}
		return false
	}
	return false
}

// identTaintedAt answers the flow-sensitive query: is obj carrying the
// tracked value at pos? Nearest preceding definition wins; a Param origin
// is tainted from its From position (function entry when unset) until its
// first later redefinition.
func (t *tracker) identTaintedAt(obj types.Object, pos token.Pos) bool {
	var nearest *defRecord
	for _, d := range t.defs[obj] {
		if d.pos <= pos && (nearest == nil || d.pos > nearest.pos) {
			nearest = d
		}
	}
	if t.origin.Param != nil && obj == t.origin.Param {
		if pos < t.origin.From {
			return false
		}
		// Definitions before the taint point don't clean anything; a
		// redefinition after it does (or re-taints, per its own flag).
		if nearest == nil || nearest.pos <= t.origin.From {
			return true
		}
		return nearest.tainted
	}
	if nearest != nil {
		return nearest.tainted
	}
	return false
}

// carriesAt reports whether evaluating e at pos yields (something aliasing)
// the tracked value.
func (t *tracker) carriesAt(e ast.Expr, pos token.Pos) bool {
	if e == nil {
		return false
	}
	if e == t.origin.Expr {
		return true
	}
	info := t.fn.pkg.Info
	switch e := e.(type) {
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil {
			return false
		}
		return t.identTaintedAt(obj, pos)
	case *ast.ParenExpr:
		return t.carriesAt(e.X, pos)
	case *ast.StarExpr:
		return t.carriesAt(e.X, pos)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return t.carriesAt(e.X, pos)
		}
		return false
	case *ast.SelectorExpr:
		// pkg-qualified idents resolve through the Sel, not through X.
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := info.ObjectOf(id).(*types.PkgName); isPkg {
				return false
			}
		}
		if !t.carriesAt(e.X, pos) {
			return false
		}
		if tv, ok := info.Types[e]; ok && tv.IsValue() {
			return !ShallowSafe(tv.Type)
		}
		return true
	case *ast.IndexExpr:
		// Could be a generic instantiation; only value indexing carries.
		if tv, ok := info.Types[e]; !ok || !tv.IsValue() {
			return false
		} else if ShallowSafe(tv.Type) {
			return false
		}
		return t.carriesAt(e.X, pos)
	case *ast.SliceExpr:
		return t.carriesAt(e.X, pos)
	case *ast.TypeAssertExpr:
		return e.Type != nil && t.carriesAt(e.X, pos)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if t.carriesAt(el, pos) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		return t.callCarries(e, pos)
	}
	return false
}

// callCarries decides whether a call expression's result aliases the
// tracked value: conversions (except the copying string<->[]byte pair),
// append/copy semantics, analyzer-declared aliasing results, and one level
// of in-package callee summaries.
func (t *tracker) callCarries(call *ast.CallExpr, pos token.Pos) bool {
	info := t.fn.pkg.Info
	// Conversion T(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if !convCarries(info, call.Args[0], tv.Type) {
			return false
		}
		return t.carriesAt(call.Args[0], pos)
	}
	switch builtinName(call, info) {
	case "append":
		if len(call.Args) == 0 {
			return false
		}
		if t.carriesAt(call.Args[0], pos) {
			return true
		}
		for _, a := range call.Args[1:] {
			if !t.carriesAt(a, pos) {
				continue
			}
			if call.Ellipsis.IsValid() {
				// append(dst, src...) copies the elements; the copy only
				// severs aliasing when the elements are shallow-safe.
				if sl, ok := info.TypeOf(a).Underlying().(*types.Slice); ok && ShallowSafe(sl.Elem()) {
					continue
				}
			}
			return true
		}
		return false
	case "":
	default:
		return false // len, cap, min, max, ... produce scalars
	}
	if t.fn.pkg.cfg.AliasResult != nil && t.fn.pkg.cfg.AliasResult(call, info) {
		if t.anyOperandCarries(call, pos) {
			return true
		}
	}
	if t.useSummaries {
		if callee := CalleeFunc(call, info); callee != nil {
			if sum := t.fn.pkg.Summary(callee); sum != nil {
				for i, aliases := range sum.ReturnsAlias {
					if aliases && i < len(call.Args) && t.carriesAt(call.Args[i], pos) {
						return true
					}
				}
			}
		}
	}
	return false
}

// anyOperandCarries reports whether the receiver or any argument of call
// carries the tracked value.
func (t *tracker) anyOperandCarries(call *ast.CallExpr, pos token.Pos) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if t.carriesAt(sel.X, pos) {
			return true
		}
	}
	for _, a := range call.Args {
		if t.carriesAt(a, pos) {
			return true
		}
	}
	return false
}

// convCarries reports whether the conversion to target preserves aliasing
// of arg. string([]byte) and []byte(string) copy; everything else that can
// carry an alias (slice renames, struct renames, pointer conversions) does.
func convCarries(info *types.Info, arg ast.Expr, target types.Type) bool {
	from := info.TypeOf(arg)
	if from == nil {
		return true
	}
	fromStr := isString(from)
	toStr := isString(target)
	fromBytes := isByteSlice(from)
	toBytes := isByteSlice(target)
	if (fromStr && toBytes) || (fromBytes && toStr) {
		return false
	}
	return !ShallowSafe(target)
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// builtinName returns the name of the builtin being called, or "".
func builtinName(call *ast.CallExpr, info *types.Info) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.ObjectOf(id).(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}
