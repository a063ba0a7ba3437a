package dataflow

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"testing"
)

// testCfg marks Enc.Bytes (and obj.Bytes) as alias-returning methods.
var testCfg = Config{
	AliasResult: func(call *ast.CallExpr, info *types.Info) bool {
		return CalleeName(call) == "Bytes"
	},
}

var kindName = map[FlowKind]string{FlowReturn: "return", FlowCallArg: "call argument", FlowWrite: "write through"}

func analyzeSrc(t *testing.T, src string) (*Package, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: importer.Default(), Error: func(error) {}}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return Analyze([]*ast.File{f}, info, testCfg), fset
}

func findFunc(t *testing.T, pkg *Package, name string) *Func {
	t.Helper()
	for _, fn := range pkg.Funcs {
		if fn.Decl.(*ast.FuncDecl).Name.Name == name {
			return fn
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

// originCall locates the first call to callee inside fn's body.
func originCall(t *testing.T, pkg *Package, fn *Func, callee string) *ast.CallExpr {
	t.Helper()
	var out *ast.CallExpr
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if out != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && CalleeName(call) == callee {
			out = call
			return false
		}
		return true
	})
	if out == nil {
		t.Fatalf("no call to %s in %s", callee, fn.Decl.(*ast.FuncDecl).Name.Name)
	}
	return out
}

// flowSummary renders flows as "kind@line" strings, deduplicated, sorted.
func flowSummary(fset *token.FileSet, flows []Flow, kinds ...FlowKind) []string {
	want := map[FlowKind]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	seen := map[string]bool{}
	var out []string
	for _, f := range flows {
		if len(kinds) > 0 && !want[f.Kind] {
			continue
		}
		s := fmt.Sprintf("%s@%d", kindName[f.Kind], fset.Position(f.Pos).Line)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

const poolSrc = `package p

type Enc struct{ buf []byte }

func Get() *Enc        { return &Enc{} }
func Put(e *Enc)       {}
func (e *Enc) Bytes() []byte { return e.buf }

func aliasBytes() []byte {
	e := Get()
	b := e.Bytes()
	Put(e)
	return b
}

func killed() *Enc {
	e := Get()
	e = nil
	return e
}

func viaSummary() *Enc {
	e := returnsParam(Get())
	return e
}

func returnsParam(e *Enc) *Enc { return e }

func passesParam(h, e *Enc) { Put(e) }
`

func TestTrackPoolValue(t *testing.T) {
	pkg, fset := analyzeSrc(t, poolSrc)

	cases := []struct {
		fn   string
		want []string
	}{
		// e is Bytes' receiver and Put's argument; e.Bytes() aliases the
		// buffer, so returning it is a flow.
		{"aliasBytes", []string{"call argument@11", "call argument@12", "return@13"}},
		// e = nil kills the taint before the return.
		{"killed", nil},
		// returnsParam's summary carries the taint through the call.
		{"viaSummary", []string{"call argument@23", "return@24"}},
	}
	for _, tc := range cases {
		fn := findFunc(t, pkg, tc.fn)
		v := fn.Track(Origin{Expr: originCall(t, pkg, fn, "Get")})
		if got := flowSummary(fset, v.Flows); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: got %v, want %v", tc.fn, got, tc.want)
		}
	}
}

func TestSummaries(t *testing.T) {
	pkg, _ := analyzeSrc(t, poolSrc)
	fn := findFunc(t, pkg, "returnsParam")
	obj := pkg.Info.Defs[fn.Decl.(*ast.FuncDecl).Name].(*types.Func)
	if s := pkg.Summary(obj); s == nil || !s.ReturnsAlias[0] {
		t.Errorf("returnsParam: want ReturnsAlias[0], got %+v", s)
	}
}

func TestParamOrigin(t *testing.T) {
	pkg, fset := analyzeSrc(t, poolSrc)
	fn := findFunc(t, pkg, "passesParam")
	v := fn.Track(Origin{Param: fn.Params[1]})
	if got := flowSummary(fset, v.Flows); fmt.Sprint(got) != "[call argument@29]" {
		t.Errorf("passesParam param origin: want one call argument, got %v", got)
	}
}

const seqSrc = `package p

type Enc struct{ buf []byte }

func Get() *Enc  { return &Enc{} }
func Put(e *Enc) {}

func earlyReturn(fail bool) {
	e := Get()
	if fail {
		Put(e)
		return
	}
	Put(e)
}

func doublePut(fail bool) {
	e := Get()
	if fail {
		Put(e)
	}
	Put(e)
}

func exclusiveArms(fail bool) {
	e := Get()
	if fail {
		Put(e)
	} else {
		Put(e)
	}
}
`

// putFlows returns the flows that hand the value to Put.
func putFlows(v *Value) []Flow {
	var out []Flow
	for _, f := range v.Flows {
		if f.Kind == FlowCallArg && f.CalleeName == "Put" {
			out = append(out, f)
		}
	}
	return out
}

func TestSequential(t *testing.T) {
	pkg, _ := analyzeSrc(t, seqSrc)

	rels := func(name string) (*Value, []Flow) {
		fn := findFunc(t, pkg, name)
		v := fn.Track(Origin{Expr: originCall(t, pkg, fn, "Get")})
		return v, putFlows(v)
	}

	// Put-then-return / else-Put: the two releases never both execute.
	if _, r := rels("earlyReturn"); len(r) != 2 || Sequential(r[0].Site, r[1].Site) {
		t.Errorf("earlyReturn: releases should not be sequential (got %d flows)", len(r))
	}
	// No return between them: both execute on the fail path.
	if _, r := rels("doublePut"); len(r) != 2 || !Sequential(r[0].Site, r[1].Site) {
		t.Errorf("doublePut: releases should be sequential (got %d flows)", len(r))
	}
	// if/else arms are mutually exclusive.
	if _, r := rels("exclusiveArms"); len(r) != 2 || !MutuallyExclusive(r[0].Site, r[1].Site) {
		t.Errorf("exclusiveArms: releases should be mutually exclusive (got %d flows)", len(r))
	}
}

const sanitizeSrc = `package p

type Dec struct{ scratch []string }

func (d *Dec) StrsShared() []string { return d.scratch }

type DevPtr uintptr

type launch struct {
	Mutates []DevPtr
	Names   []string
}

func retainShared(d *Dec) []string {
	names := d.StrsShared()
	return names
}

func cloneElements(d *Dec) []string {
	names := d.StrsShared()
	return append([]string(nil), names...)
}

func scalarCopy(l launch) []DevPtr { return append([]DevPtr(nil), l.Mutates...) }

func stringConv(b []byte) string { return string(b) }

func byteKeep(b []byte) []byte { return b }
`

func TestSanitizers(t *testing.T) {
	pkg, fset := analyzeSrc(t, sanitizeSrc)

	returns := func(name string, origin Origin) []string {
		fn := findFunc(t, pkg, name)
		return flowSummary(fset, fn.Track(origin).Flows, FlowReturn)
	}
	sharedOrigin := func(name string) Origin {
		fn := findFunc(t, pkg, name)
		return Origin{Expr: originCall(t, pkg, fn, "StrsShared")}
	}

	if got := returns("retainShared", sharedOrigin("retainShared")); len(got) != 1 {
		t.Errorf("retainShared: want 1 return, got %v", got)
	}
	// append([]string(nil), names...) copies the headers but the strings
	// still alias the decoder scratch — NOT a sanitizer.
	if got := returns("cloneElements", sharedOrigin("cloneElements")); len(got) != 1 {
		t.Errorf("cloneElements: want 1 return (string copy is shallow), got %v", got)
	}

	paramOrigin := func(name string, i int) Origin {
		fn := findFunc(t, pkg, name)
		return Origin{Param: fn.Params[i]}
	}
	// append([]DevPtr(nil), ...) fully severs scalar elements.
	if got := returns("scalarCopy", paramOrigin("scalarCopy", 0)); len(got) != 0 {
		t.Errorf("scalarCopy: scalar append should sanitize, got %v", got)
	}
	// string(b) copies the bytes.
	if got := returns("stringConv", paramOrigin("stringConv", 0)); len(got) != 0 {
		t.Errorf("stringConv: conversion should sanitize, got %v", got)
	}
	if got := returns("byteKeep", paramOrigin("byteKeep", 0)); len(got) != 1 {
		t.Errorf("byteKeep: want 1 return, got %v", got)
	}
}

func TestShallowSafe(t *testing.T) {
	pkg, _ := analyzeSrc(t, sanitizeSrc)
	lookup := func(name string) types.Type {
		for id, obj := range pkg.Info.Defs {
			if obj != nil && id.Name == name {
				if tn, ok := obj.(*types.TypeName); ok {
					return tn.Type()
				}
			}
		}
		t.Fatalf("type %s not found", name)
		return nil
	}
	if !ShallowSafe(lookup("DevPtr")) {
		t.Error("DevPtr should be shallow-safe")
	}
	if ShallowSafe(lookup("launch")) {
		t.Error("launch contains slices; not shallow-safe")
	}
	if ShallowSafe(types.Typ[types.String]) {
		t.Error("string is not shallow-safe")
	}
}

const writeSrc = `package p

type meta struct{ name string }

type obj struct {
	meta
	status struct{ n int }
	tags   [2]string
}

func (o *obj) Bytes() *meta { return &o.meta } // testCfg: result aliases the receiver

func get() *obj { return &obj{} }

func through() {
	o := get()
	o.status.n = 1
	o.status.n++
	o.tags[0] += "x"
	*o = obj{}
	o.Bytes().name = "m"
	m := o.Bytes()
	m.name = "n"
}

func notThrough() {
	o := get()
	st := o.status
	st.n = 2
	tags := o.tags
	tags[1] = "y"
	o = nil
	var other obj
	other.status.n = 3
}

func writesParam(o *obj, n int) { o.status.n = n }

func readsParam(o *obj) int { return o.status.n }

func copiesParam(o *obj) int {
	c := *o
	c.status.n++
	return c.status.n
}
`

func TestWritesThroughValue(t *testing.T) {
	pkg, fset := analyzeSrc(t, writeSrc)

	fn := findFunc(t, pkg, "through")
	v := fn.Track(Origin{Expr: originCall(t, pkg, fn, "get")})
	want := []string{"write through@17", "write through@18", "write through@19", "write through@20", "write through@21", "write through@23"}
	if got := flowSummary(fset, v.Writes); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("through: writes %v, want %v", got, want)
	}
	if got := flowSummary(fset, v.Flows, FlowWrite); len(got) != 0 {
		t.Errorf("through: FlowWrite events among Flows: %v", got)
	}

	fn = findFunc(t, pkg, "notThrough")
	v = fn.Track(Origin{Expr: originCall(t, pkg, fn, "get")})
	if got := flowSummary(fset, v.Writes); len(got) != 0 {
		t.Errorf("notThrough: writes to local copies reported: %v", got)
	}

	for name, want := range map[string]bool{"writesParam": true, "readsParam": false, "copiesParam": false} {
		fn := findFunc(t, pkg, name)
		obj := pkg.Info.Defs[fn.Decl.(*ast.FuncDecl).Name].(*types.Func)
		if s := pkg.Summary(obj); s == nil || s.Writes[0] != want || (len(s.Writes) > 1 && s.Writes[1]) {
			t.Errorf("%s: Writes = %+v, want [0] = %v", name, s, want)
		}
	}
}
