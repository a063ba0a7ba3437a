// Package dataflow is the flow-sensitive layer under dgsfvet's frozenwrite
// analyzer, plus the branch predicates lockorder orders locks with. It
// builds per-function def-use chains directly on the AST plus types.Info —
// no SSA, no golang.org/x/tools — and tracks how a value produced at an
// origin (a call's result, a parameter) flows to returns, call arguments and
// the assignments that write through it.
//
// The model is deliberately modest and documented here so analyzer authors
// know what to trust:
//
//   - Propagation is per-function. One level of interprocedural context is
//     available through Summaries: every function body in the package gets a
//     summary of what it does with each parameter (returns an alias of it,
//     writes through it), and Track consults callee summaries at call sites.
//     Deeper chains are invisible by design.
//   - Statement order is approximated lexically. Within straight-line code
//     that is exact; across loops it is not (a use textually before a def
//     can run after it). Sequential and MutuallyExclusive know if/else and
//     switch arms and early-terminating blocks.
//   - Taint is killed by reassignment from a non-carrying expression
//     (x = strings.Clone(x) cleans x), queried with a nearest-preceding-def
//     rule at each use site.
//
// Aliasing through memory (stores to fields read back later) is not modeled.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FlowKind classifies one event in a tracked value's life.
type FlowKind int

const (
	// FlowReturn returns the value (or something aliasing it).
	FlowReturn FlowKind = iota
	// FlowCallArg passes the value to a call, as an argument or receiver.
	FlowCallArg
	// FlowWrite assigns to a location reached through the value: a field of
	// what it points to, an element, the pointee itself. These events are
	// kept apart from the others, in Value.Writes.
	FlowWrite
)

// A Site is a position plus its chain of enclosing AST nodes
// (outermost-first), enough for branch-exclusivity reasoning.
type Site struct {
	Pos   token.Pos
	Stack []ast.Node
}

// A Flow is one event in a tracked value's life, in source order.
type Flow struct {
	Site
	Kind FlowKind
	// Call and ArgIndex identify the call of a FlowCallArg event; ArgIndex
	// is -1 for the method receiver.
	Call     *ast.CallExpr
	ArgIndex int
	// CalleeName is the bare name of the called function, when resolvable.
	CalleeName string
}

// An Origin identifies the value to track: either the Result-th result of a
// producing expression, or a variable carrying it. Param is usually a
// function parameter (tainted from entry); with From set it can be any local
// that becomes tainted at a position — e.g. the argument of a store write
// from the end of the call on.
type Origin struct {
	Expr   ast.Expr
	Result int // result index for multi-result calls; 0 for single
	Param  *types.Var
	// From, when set with Param, is the position the variable becomes
	// tainted; reads before it (and redefinitions after it) are clean.
	From token.Pos
}

// A Value is one tracked origin plus every flow event it reaches.
type Value struct {
	// Flows are the events, ordered by position.
	Flows []Flow
	// Writes are the FlowWrite events, ordered by position: the assignments
	// (and ++/--) whose destination is reached from the value through a
	// pointer, slice or map — x.f = v, *x = v, x[i] = v, x.M().f = v when M's
	// result aliases x — so that they change what every other holder of the
	// value sees. An assignment to a field of a local struct copy is not one.
	Writes []Flow
}

// A Summary describes what one function body does with its parameters;
// Track consults callee summaries for one level of interprocedural flow.
type Summary struct {
	// ReturnsAlias[i]: some result of the function may alias parameter i.
	ReturnsAlias []bool
	// Writes[i]: the function assigns through parameter i (Value.Writes).
	Writes []bool
}

// Config parameterizes the engine with analyzer-specific knowledge.
type Config struct {
	// AliasResult reports whether the call's result aliases memory reachable
	// from its receiver or arguments, so taint flows through (e.g.
	// (*wire.Encoder).Bytes). Conversions, append and copy are built in.
	AliasResult func(call *ast.CallExpr, info *types.Info) bool
}

// A Func is one analyzable function body.
type Func struct {
	// Decl is the *ast.FuncDecl or *ast.FuncLit.
	Decl ast.Node
	Body *ast.BlockStmt
	// Params are the declared parameters (receiver excluded).
	Params []*types.Var

	pkg *Package
}

// A Package is the dataflow view of one type-checked package.
type Package struct {
	Info  *types.Info
	Funcs []*Func

	cfg       Config
	summaries map[ast.Node]*Summary // keyed by Func.Decl
	inSummary map[ast.Node]bool     // recursion guard
	declOf    map[*types.Func]*Func
}

// Analyze builds the dataflow view of every function declaration in files.
// Function literals are analyzed as part of their enclosing function, so
// closure captures are visible to it.
func Analyze(files []*ast.File, info *types.Info, cfg Config) *Package {
	p := &Package{
		Info:      info,
		cfg:       cfg,
		summaries: map[ast.Node]*Summary{},
		inSummary: map[ast.Node]bool{},
		declOf:    map[*types.Func]*Func{},
	}
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := &Func{Decl: fd, Body: fd.Body, pkg: p}
			if obj, ok := info.Defs[fd.Name].(*types.Func); ok {
				fn.Params = paramVars(obj)
				p.declOf[obj] = fn
			}
			p.Funcs = append(p.Funcs, fn)
		}
	}
	return p
}

func paramVars(obj *types.Func) []*types.Var {
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	out := make([]*types.Var, 0, sig.Params().Len())
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// Summary returns the parameter summary of a function declared in this
// package, or nil for external/unknown callees.
func (p *Package) Summary(callee *types.Func) *Summary {
	fn := p.declOf[callee]
	if fn == nil {
		return nil
	}
	return p.summaryOf(fn)
}

// summaryOf computes (and caches) fn's parameter summary. Summaries are
// depth-0: they do not consult other summaries while being computed.
func (p *Package) summaryOf(fn *Func) *Summary {
	if s, ok := p.summaries[fn.Decl]; ok {
		return s
	}
	if p.inSummary[fn.Decl] {
		return nil // recursive cycle: stay conservative
	}
	p.inSummary[fn.Decl] = true
	defer delete(p.inSummary, fn.Decl)

	s := &Summary{
		ReturnsAlias: make([]bool, len(fn.Params)),
		Writes:       make([]bool, len(fn.Params)),
	}
	for i, pv := range fn.Params {
		if pv == nil || ShallowSafe(pv.Type()) {
			continue // a scalar parameter cannot carry an aliasing contract
		}
		v := fn.track(Origin{Param: pv}, false)
		s.Writes[i] = len(v.Writes) > 0
		for _, fl := range v.Flows {
			if fl.Kind == FlowReturn {
				s.ReturnsAlias[i] = true
			}
		}
	}
	p.summaries[fn.Decl] = s
	return s
}

// Track traces origin through fn's body and returns its flow events in
// source order. Callee summaries (one level) propagate taint through
// alias-returning calls declared in the package.
func (fn *Func) Track(origin Origin) *Value { return fn.track(origin, true) }

// CalleeFunc resolves the called function object, or nil (indirect calls,
// builtins, conversions).
func CalleeFunc(call *ast.CallExpr, info *types.Info) *types.Func {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	obj, _ := info.Uses[id].(*types.Func)
	return obj
}

// CalleeName returns the bare name of the called function or method.
func CalleeName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// ShallowSafe reports whether copying a value of type t severs all aliasing:
// t contains no strings, pointers, slices, maps, channels, funcs or
// interfaces. Copying a []cuda.DevPtr's elements is safe; copying a
// []string's elements still aliases every string's bytes.
func ShallowSafe(t types.Type) bool {
	return shallowSafe(t, 0)
}

func shallowSafe(t types.Type, depth int) bool {
	if t == nil || depth > 10 {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString == 0 && u.Kind() != types.UnsafePointer
	case *types.Array:
		return shallowSafe(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !shallowSafe(u.Field(i).Type(), depth+1) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
