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

// testCfg marks Get as the acquire, Put as the release, and Enc.Bytes as an
// alias-returning method, mirroring the wire pool shape the analyzers use.
var testCfg = Config{
	Release: func(call *ast.CallExpr, info *types.Info) []int {
		if CalleeName(call) == "Put" {
			return []int{0}
		}
		return nil
	},
	AliasResult: func(call *ast.CallExpr, info *types.Info) bool {
		return CalleeName(call) == "Bytes"
	},
}

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
		s := fmt.Sprintf("%s@%d", f.Kind, fset.Position(f.Pos).Line)
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

type holder struct{ e *Enc }

var global *Enc

func escapeField(h *holder) {
	e := Get()
	h.e = e
	Put(e)
}

func escapeGlobal() {
	e := Get()
	global = e
}

func escapeChan(ch chan *Enc) {
	e := Get()
	ch <- e
}

func escapeGo() {
	e := Get()
	go func() { _ = e }()
}

func aliasBytes(h *holder) []byte {
	e := Get()
	b := e.Bytes()
	Put(e)
	return b
}

func killed(h *holder) {
	e := Get()
	Put(e)
	e = nil
	h.e = e
}

func releaseWrapper(e *Enc) { Put(e) }

func viaWrapper() {
	e := Get()
	releaseWrapper(e)
}

func storesParam(h *holder, e *Enc) { h.e = e }

func returnsParam(e *Enc) *Enc { return e }
`

func TestTrackPoolValue(t *testing.T) {
	pkg, fset := analyzeSrc(t, poolSrc)

	track := func(fnName string) (*Value, *Func) {
		fn := findFunc(t, pkg, fnName)
		call := originCall(t, pkg, fn, "Get")
		return fn.Track(Origin{Expr: call}), fn
	}

	cases := []struct {
		fn    string
		kinds []FlowKind
		want  []string
	}{
		{"escapeField", []FlowKind{FlowFieldStore}, []string{"store to field@15"}},
		{"escapeGlobal", []FlowKind{FlowGlobalStore}, []string{"store to package-level variable@21"}},
		{"escapeChan", []FlowKind{FlowChanSend}, []string{"channel send@26"}},
		{"escapeGo", []FlowKind{FlowGoCapture}, []string{"goroutine capture@31"}},
		// e.Bytes() aliases the pooled buffer; returning it is a flow.
		{"aliasBytes", []FlowKind{FlowReturn}, []string{"return@38"}},
		// e = nil kills the taint before the field store.
		{"killed", []FlowKind{FlowFieldStore}, nil},
	}
	for _, tc := range cases {
		v, _ := track(tc.fn)
		got := flowSummary(fset, v.Flows, tc.kinds...)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: got %v, want %v", tc.fn, got, tc.want)
		}
	}
}

func TestReleaseDetection(t *testing.T) {
	pkg, _ := analyzeSrc(t, poolSrc)

	fn := findFunc(t, pkg, "escapeField")
	v := fn.Track(Origin{Expr: originCall(t, pkg, fn, "Get")})
	var releases int
	for _, f := range v.Flows {
		if f.Kind == FlowCallArg && f.Call != nil {
			for _, i := range pkg.ReleaseArgs(f.Call) {
				if i == f.ArgIndex {
					releases++
				}
			}
		}
	}
	if releases != 1 {
		t.Errorf("escapeField: want 1 direct release, got %d", releases)
	}

	// releaseWrapper forwards its parameter to Put; the one-level summary
	// makes viaWrapper's call count as a release too.
	fn = findFunc(t, pkg, "viaWrapper")
	v = fn.Track(Origin{Expr: originCall(t, pkg, fn, "Get")})
	releases = 0
	for _, f := range v.Flows {
		if f.Kind == FlowCallArg && f.Call != nil {
			for _, i := range pkg.ReleaseArgs(f.Call) {
				if i == f.ArgIndex {
					releases++
				}
			}
		}
	}
	if releases != 1 {
		t.Errorf("viaWrapper: want 1 summary release, got %d", releases)
	}
}

func TestSummaries(t *testing.T) {
	pkg, _ := analyzeSrc(t, poolSrc)

	sumOf := func(name string) *Summary {
		fn := findFunc(t, pkg, name)
		obj := pkg.Info.Defs[fn.Decl.(*ast.FuncDecl).Name].(*types.Func)
		return pkg.Summary(obj)
	}

	if s := sumOf("storesParam"); s == nil || !s.Escapes[1] {
		t.Errorf("storesParam: want Escapes[1], got %+v", s)
	}
	if s := sumOf("returnsParam"); s == nil || !s.ReturnsAlias[0] {
		t.Errorf("returnsParam: want ReturnsAlias[0], got %+v", s)
	}
	if s := sumOf("releaseWrapper"); s == nil || !s.Releases[0] {
		t.Errorf("releaseWrapper: want Releases[0], got %+v", s)
	}
}

func TestParamOrigin(t *testing.T) {
	pkg, fset := analyzeSrc(t, poolSrc)
	fn := findFunc(t, pkg, "storesParam")
	v := fn.Track(Origin{Param: fn.Params[1]})
	got := flowSummary(fset, v.Flows, FlowFieldStore)
	if len(got) != 1 {
		t.Errorf("storesParam param origin: want 1 field store, got %v", got)
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

func putInLoop(n int) {
	e := Get()
	for i := 0; i < n; i++ {
		Put(e)
	}
}

func acquireInLoop(n int) {
	for i := 0; i < n; i++ {
		e := Get()
		Put(e)
	}
}
`

// releaseFlows returns the CallArg flows that hit the release table.
func releaseFlows(pkg *Package, v *Value) []Flow {
	var out []Flow
	for _, f := range v.Flows {
		if f.Kind != FlowCallArg || f.Call == nil {
			continue
		}
		for _, i := range pkg.ReleaseArgs(f.Call) {
			if i == f.ArgIndex {
				out = append(out, f)
			}
		}
	}
	return out
}

func TestSequential(t *testing.T) {
	pkg, _ := analyzeSrc(t, seqSrc)

	rels := func(name string) (*Value, []Flow) {
		fn := findFunc(t, pkg, name)
		v := fn.Track(Origin{Expr: originCall(t, pkg, fn, "Get")})
		return v, releaseFlows(pkg, v)
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

func TestLoopBetween(t *testing.T) {
	pkg, _ := analyzeSrc(t, seqSrc)

	fn := findFunc(t, pkg, "putInLoop")
	v := fn.Track(Origin{Expr: originCall(t, pkg, fn, "Get")})
	r := releaseFlows(pkg, v)
	if len(r) != 1 || !LoopBetween(v.OriginSite, r[0].Site) {
		t.Errorf("putInLoop: release should be in a loop past the origin")
	}

	fn = findFunc(t, pkg, "acquireInLoop")
	v = fn.Track(Origin{Expr: originCall(t, pkg, fn, "Get")})
	r = releaseFlows(pkg, v)
	if len(r) != 1 || LoopBetween(v.OriginSite, r[0].Site) {
		t.Errorf("acquireInLoop: acquire and release share the loop")
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

type sink struct {
	names []string
	ptrs  []DevPtr
	raw   []byte
	s     string
}

func retainShared(d *Dec, s *sink) {
	names := d.StrsShared()
	s.names = names
}

func cloneElements(d *Dec, s *sink) {
	names := d.StrsShared()
	s.names = append([]string(nil), names...)
}

func scalarCopy(l launch, s *sink) {
	s.ptrs = append([]DevPtr(nil), l.Mutates...)
}

func stringConv(b []byte, s *sink) {
	s.s = string(b)
}

func byteKeep(b []byte, s *sink) {
	s.raw = b
}
`

func TestSanitizers(t *testing.T) {
	pkg, fset := analyzeSrc(t, sanitizeSrc)

	stores := func(name string, origin Origin) []string {
		fn := findFunc(t, pkg, name)
		return flowSummary(fset, fn.Track(origin).Flows, FlowFieldStore)
	}
	sharedOrigin := func(name string) Origin {
		fn := findFunc(t, pkg, name)
		return Origin{Expr: originCall(t, pkg, fn, "StrsShared")}
	}

	if got := stores("retainShared", sharedOrigin("retainShared")); len(got) != 1 {
		t.Errorf("retainShared: want 1 field store, got %v", got)
	}
	// append([]string(nil), names...) copies the headers but the strings
	// still alias the decoder scratch — NOT a sanitizer.
	if got := stores("cloneElements", sharedOrigin("cloneElements")); len(got) != 1 {
		t.Errorf("cloneElements: want 1 field store (string copy is shallow), got %v", got)
	}

	paramOrigin := func(name string, i int) Origin {
		fn := findFunc(t, pkg, name)
		return Origin{Param: fn.Params[i]}
	}
	// append([]DevPtr(nil), ...) fully severs scalar elements.
	if got := stores("scalarCopy", paramOrigin("scalarCopy", 0)); len(got) != 0 {
		t.Errorf("scalarCopy: scalar append should sanitize, got %v", got)
	}
	// string(b) copies the bytes.
	if got := stores("stringConv", paramOrigin("stringConv", 0)); len(got) != 0 {
		t.Errorf("stringConv: conversion should sanitize, got %v", got)
	}
	if got := stores("byteKeep", paramOrigin("byteKeep", 0)); len(got) != 1 {
		t.Errorf("byteKeep: want 1 field store, got %v", got)
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

func TestDeferredFlows(t *testing.T) {
	src := `package p

type Enc struct{ buf []byte }

func Get() *Enc  { return &Enc{} }
func Put(e *Enc) {}

func deferredPut() {
	e := Get()
	defer Put(e)
	_ = e.buf
}
`
	pkg, _ := analyzeSrc(t, src)
	fn := findFunc(t, pkg, "deferredPut")
	v := fn.Track(Origin{Expr: originCall(t, pkg, fn, "Get")})
	r := releaseFlows(pkg, v)
	if len(r) != 1 || !r[0].Deferred {
		t.Fatalf("want one deferred release, got %+v", r)
	}
	var plainUse bool
	for _, f := range v.Flows {
		if f.Kind == FlowUse && !f.Deferred {
			plainUse = true
		}
	}
	if !plainUse {
		t.Error("want a non-deferred use of e")
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
