// Package dataflow is the flow-sensitive layer under dgsfvet's ownership
// analyzers (bufown, sharedretain, frozenwrite, lockorder). It builds per-function
// def-use chains directly on the AST plus types.Info — no SSA, no
// golang.org/x/tools — and tracks how a value produced at an origin
// (a pool acquire, a shared decode, a borrowed parameter) flows through
// assignments to the places it could outlive its contract: struct fields,
// globals, channels, goroutine captures, returns, call arguments.
//
// The model is deliberately modest and documented here so analyzer authors
// know what to trust:
//
//   - Propagation is per-function. One level of interprocedural context is
//     available through Summaries: every function body in the package gets a
//     summary of what it does with each parameter (escapes it, releases it,
//     returns an alias of it), and Track consults callee summaries at call
//     sites. Deeper chains are invisible by design.
//   - Statement order is approximated lexically. Within straight-line code
//     that is exact; across loops it is not (a use textually before a def
//     can run after it). The Sequential helper is branch-aware — it knows
//     mutually exclusive if/else arms and early-terminating blocks — so
//     analyzers can avoid flagging put-then-return-else-put patterns.
//   - Taint is killed by reassignment from a non-carrying expression
//     (x = strings.Clone(x) cleans x), queried with a nearest-preceding-def
//     rule at each use site.
//
// Aliasing through memory (stores to fields read back later) is not modeled;
// a store to a field is a terminal flow event, which is exactly the contract
// violation the ownership analyzers exist to report.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FlowKind classifies one event in a tracked value's life.
type FlowKind int

// Flow kinds, ordered roughly by severity of what they imply.
const (
	// FlowUse is a plain read of the tracked value (operand, receiver,
	// argument of a builtin). Used for use-after-release checks.
	FlowUse FlowKind = iota
	// FlowFieldStore stores the value into a struct field.
	FlowFieldStore
	// FlowGlobalStore stores the value into a package-level variable.
	FlowGlobalStore
	// FlowIndexStore stores the value into a map or slice element.
	FlowIndexStore
	// FlowChanSend sends the value (or a composite carrying it) on a channel.
	FlowChanSend
	// FlowGoCapture passes the value to a goroutine: as an argument of a
	// `go f(v)` call or as a free variable of a `go func(){...}` closure.
	FlowGoCapture
	// FlowDeferCapture passes the value to a deferred call or closure. The
	// deferred body runs at function exit, after any non-deferred release.
	FlowDeferCapture
	// FlowReturn returns the value (or something aliasing it).
	FlowReturn
	// FlowCallArg passes the value to a call. Analyzers classify the callee
	// (release function, known borrower, unknown).
	FlowCallArg
	// FlowWrite assigns to a location reached through the value: a field of
	// what it points to, an element, the pointee itself. These events are
	// kept apart from the others, in Value.Writes.
	FlowWrite
)

func (k FlowKind) String() string {
	switch k {
	case FlowUse:
		return "use"
	case FlowFieldStore:
		return "store to field"
	case FlowGlobalStore:
		return "store to package-level variable"
	case FlowIndexStore:
		return "store into map/slice element"
	case FlowChanSend:
		return "channel send"
	case FlowGoCapture:
		return "goroutine capture"
	case FlowDeferCapture:
		return "defer capture"
	case FlowReturn:
		return "return"
	case FlowCallArg:
		return "call argument"
	case FlowWrite:
		return "write through"
	}
	return "?"
}

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
	// Call and ArgIndex identify the call for FlowCallArg / FlowGoCapture /
	// FlowDeferCapture events; ArgIndex is -1 for the method receiver.
	Call     *ast.CallExpr
	ArgIndex int
	// CalleeName is the bare name of the called function, when resolvable.
	CalleeName string
	// Deferred marks flows inside a defer statement: they execute at
	// function exit in LIFO registration order, not at their lexical
	// position. A deferred release runs after every non-deferred use.
	Deferred bool
}

// An Origin identifies the value to track: either the Result-th result of a
// producing expression, or a variable carrying a borrowed value. Param is
// usually a function parameter (tainted from entry); with From set it can
// be any local that becomes tainted at a position — e.g. a request struct
// after an in-place DecodeShared populated it with aliasing fields.
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
	// OriginSite locates the origin for loop reasoning and diagnostics.
	OriginSite Site
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
	// Escapes[i]: parameter i may be stored beyond the call (field, global,
	// channel, goroutine, map/slice element).
	Escapes []bool
	// Releases[i]: parameter i is passed to a release function (directly or
	// through one more level).
	Releases []bool
	// ReturnsAlias[i]: some result of the function may alias parameter i.
	ReturnsAlias []bool
	// Writes[i]: the function assigns through parameter i (Value.Writes).
	Writes []bool
}

// Config parameterizes the engine with analyzer-specific knowledge.
type Config struct {
	// Release reports the indices of arguments a direct call releases
	// (returning them to a pool / ending their lifetime), or nil. Used both
	// for summaries and exposed via Package.ReleaseArgs.
	Release func(call *ast.CallExpr, info *types.Info) []int
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

// FuncFor returns the Func whose body defines obj, or nil.
func (p *Package) FuncFor(obj *types.Func) *Func { return p.declOf[obj] }

// ReleaseArgs reports the argument indices call releases: directly per the
// config, or through one level of call summary (a wrapper that forwards a
// parameter to a release function).
func (p *Package) ReleaseArgs(call *ast.CallExpr) []int {
	if p.cfg.Release != nil {
		if idx := p.cfg.Release(call, p.Info); idx != nil {
			return idx
		}
	}
	callee := CalleeFunc(call, p.Info)
	if callee == nil {
		return nil
	}
	fn := p.declOf[callee]
	if fn == nil {
		return nil
	}
	sum := p.summaryOf(fn)
	if sum == nil {
		return nil
	}
	var out []int
	for i, rel := range sum.Releases {
		if rel {
			out = append(out, i)
		}
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
// depth-0: they do not consult other summaries while being computed, except
// for release forwarding which the recursion guard keeps finite.
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
		Escapes:      make([]bool, len(fn.Params)),
		Releases:     make([]bool, len(fn.Params)),
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
			switch fl.Kind {
			case FlowFieldStore, FlowGlobalStore, FlowIndexStore, FlowChanSend, FlowGoCapture:
				s.Escapes[i] = true
			case FlowReturn:
				s.ReturnsAlias[i] = true
			case FlowCallArg:
				if fl.Call != nil {
					for _, ri := range p.ReleaseArgs(fl.Call) {
						if ri == fl.ArgIndex {
							s.Releases[i] = true
						}
					}
				}
			}
		}
	}
	p.summaries[fn.Decl] = s
	return s
}

// Track traces origin through fn's body and returns its flow events in
// source order. Callee summaries (one level) classify call arguments and
// propagate taint through alias-returning calls declared in the package.
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
