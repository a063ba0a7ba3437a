package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// writeOnlyAllow lists the fields TestNoWriteOnlyState may report, each
// with the read that keeps it. A key is "pkg.Type.Field", or "pkg.Type" for
// every field of the type.
var writeOnlyAllow = map[string]string{
	"dgsf.Aggregate":  "result type of the library facade: its callers, outside the module, read it",
	"dgsf.CacheStats": "result type of the library facade: its callers, outside the module, read it",
	"dgsf.Result":     "result type of the library facade: its callers, outside the module, read it",
	"dgsf/internal/apiserver.Config.CUDACosts": "goes with ROADMAP item 1a: bench/ still sets it " +
		"(stack.go, tcp_remote.go, fleet_flood.go); the costs reach the server through its cuda.Runtime",
	"dgsf/internal/gpuserver.PlacementRecord": "goes with ROADMAP item 1a: bench/ reads len(gs.Placements())",
}

// plantedPkg holds the checker's own fixture; its findings are compared with
// plantedWant instead of the allowlist.
const plantedPkg = "dgsf/internal/lint/internal/writeonlytest"

var plantedWant = []string{
	plantedPkg + ".planted.appended",
	plantedPkg + ".planted.filled",
	plantedPkg + ".planted.testRead",
	plantedPkg + ".planted.written",
}

// TestNoWriteOnlyState reports every struct field declared in the module
// that non-test code writes and never reads. Reads cross packages, so the
// check runs over the whole program at once rather than as a vet pass.
func TestNoWriteOnlyState(t *testing.T) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	var module, planted []writeOnlyField
	for _, f := range writeOnlyFields(pkgs) {
		if f.pkg == plantedPkg {
			planted = append(planted, f)
		} else {
			module = append(module, f)
		}
	}
	if got := fieldNames(planted); strings.Join(got, "\n") != strings.Join(plantedWant, "\n") {
		t.Errorf("planted fixture reports\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(plantedWant, "\n\t"))
	}
	left, stale := applyAllow(module, writeOnlyAllow)
	for _, f := range left {
		t.Errorf("%s: %s is written but never read outside tests", f.pos, f.name)
	}
	for _, k := range stale {
		t.Errorf("allowlist entry %s matches no write-only field", k)
	}
}

// TestWriteOnlyStaleAllowReported checks that an allowlist entry naming a
// field that is gone, or that something now reads, is reported.
func TestWriteOnlyStaleAllowReported(t *testing.T) {
	pkgs, err := Load("", plantedPkg)
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{
		plantedPkg + ".planted.written": "kept",
		plantedPkg + ".planted.read":    "read by package code",
		plantedPkg + ".planted.gone":    "no such field",
		plantedPkg + ".gone":            "no such type",
	}
	left, stale := applyAllow(writeOnlyFields(pkgs), allow)
	if got := strings.Join(fieldNames(left), ","); got != plantedPkg+".planted.appended,"+plantedPkg+".planted.filled,"+plantedPkg+".planted.testRead" {
		t.Errorf("unallowed = %s", got)
	}
	want := []string{plantedPkg + ".gone", plantedPkg + ".planted.gone", plantedPkg + ".planted.read"}
	if strings.Join(stale, ",") != strings.Join(want, ",") {
		t.Errorf("stale = %v, want %v", stale, want)
	}
}

// A writeOnlyField is one reported field.
type writeOnlyField struct {
	pkg  string // declaring package path
	typ  string // "pkg.Type"
	name string // "pkg.Type.Field"
	pos  token.Position
}

func fieldNames(fs []writeOnlyField) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.name)
	}
	return out
}

// applyAllow drops the allowed fields and returns the rest, plus the
// entries that matched nothing.
func applyAllow(found []writeOnlyField, allow map[string]string) (left []writeOnlyField, stale []string) {
	used := map[string]bool{}
	for _, f := range found {
		switch {
		case allow[f.name] != "":
			used[f.name] = true
		case allow[f.typ] != "":
			used[f.typ] = true
		default:
			left = append(left, f)
		}
	}
	for k := range allow {
		if !used[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	return left, stale
}

// fieldKey names a field across packages. Each package is type-checked
// against export data, so the same field is a different *types.Var in each
// package that imports it; its package, file, line and name are not.
type fieldKey struct {
	pkg, file string
	line      int
	name      string
}

func keyOf(fset *token.FileSet, v *types.Var) fieldKey {
	v = v.Origin()
	p := fset.Position(v.Pos())
	return fieldKey{v.Pkg().Path(), filepath.Base(p.Filename), p.Line, v.Name()}
}

func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

func isGenerated(f *ast.File) bool {
	for _, c := range f.Comments {
		if c.Pos() > f.Package {
			break
		}
		if strings.HasPrefix(c.Text(), "Code generated") {
			return true
		}
	}
	return false
}

// writeOnlyFields returns the fields declared in pkgs' non-test,
// non-generated files that non-test code writes and never reads, sorted by
// name. A write is the whole left side of an assignment or ++/-- (the x.f
// of an x.f[k] there too), a composite-literal element, the x.f in
// x.f = append(x.f, ...), or the first argument of delete or clear; every
// other selection of the field is a read. Embedded fields, json-tagged
// fields and the fields of struct types that non-test code compares, uses
// as a map key or passes by value to an interface parameter (where fmt or
// reflect may read every field) are exempt.
func writeOnlyFields(pkgs []*Package) []writeOnlyField {
	declared := map[fieldKey]writeOnlyField{}
	exempt := map[fieldKey]bool{}
	written := map[fieldKey]bool{}
	read := map[fieldKey]bool{}

	var exemptStruct func(fset *token.FileSet, t types.Type, seen map[types.Type]bool)
	exemptStruct = func(fset *token.FileSet, t types.Type, seen map[types.Type]bool) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				f := u.Field(i)
				exempt[keyOf(fset, f)] = true
				exemptStruct(fset, f.Type(), seen)
			}
		case *types.Array:
			exemptStruct(fset, u.Elem(), seen)
		}
	}

	for _, p := range pkgs {
		for _, f := range p.Files {
			if isTestFile(p.Fset, f) {
				continue
			}
			if !isGenerated(f) {
				declareFields(p, f, declared)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						exemptStruct(p.Fset, p.Info.TypeOf(n.X), map[types.Type]bool{})
						exemptStruct(p.Fset, p.Info.TypeOf(n.Y), map[types.Type]bool{})
					}
				case *ast.CallExpr:
					sig, _ := p.Info.TypeOf(n.Fun).(*types.Signature)
					for i, a := range n.Args {
						if pt := paramType(sig, i, n.Ellipsis.IsValid()); pt != nil && types.IsInterface(pt) {
							exemptStruct(p.Fset, p.Info.TypeOf(a), map[types.Type]bool{})
						}
					}
				}
				return true
			})
			accesses(p, f, written, read)
		}
		for e, tv := range p.Info.Types {
			if m, ok := tv.Type.(*types.Map); ok && !strings.HasSuffix(p.Fset.File(e.Pos()).Name(), "_test.go") {
				exemptStruct(p.Fset, m.Key(), map[types.Type]bool{})
			}
		}
	}

	var out []writeOnlyField
	for k, f := range declared {
		if written[k] && !read[k] && !exempt[k] {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// paramType returns the type of the parameter that receives a call's i-th
// argument, or nil.
func paramType(sig *types.Signature, i int, spread bool) types.Type {
	if sig == nil {
		return nil
	}
	n := sig.Params().Len()
	if sig.Variadic() && i >= n-1 {
		t := sig.Params().At(n - 1).Type()
		if spread {
			return t
		}
		return t.(*types.Slice).Elem()
	}
	if i < n {
		return sig.Params().At(i).Type()
	}
	return nil
}

// declareFields records the non-embedded, untagged-for-JSON fields of every
// struct type in f, named after the declaration that holds them.
func declareFields(p *Package, f *ast.File, declared map[fieldKey]writeOnlyField) {
	owner := map[*ast.StructType]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			nameStructs(n.Type, n.Name.Name, owner)
		case *ast.ValueSpec:
			if n.Type != nil && len(n.Names) > 0 {
				nameStructs(n.Type, n.Names[0].Name, owner)
			}
		case *ast.StructType:
			name, ok := owner[n]
			if !ok {
				name = "struct@" + filepath.Base(p.Fset.Position(n.Pos()).Filename)
			}
			for _, fld := range n.Fields.List {
				if fld.Tag != nil && strings.Contains(fld.Tag.Value, `json:"`) {
					continue
				}
				for _, id := range fld.Names {
					nameStructs(fld.Type, name+"."+id.Name, owner)
					v, _ := p.Info.Defs[id].(*types.Var)
					if v == nil {
						continue
					}
					typ := p.Pkg.Path() + "." + name
					declared[keyOf(p.Fset, v)] = writeOnlyField{
						pkg:  p.Pkg.Path(),
						typ:  typ,
						name: typ + "." + id.Name,
						pos:  p.Fset.Position(id.Pos()),
					}
				}
			}
		}
		return true
	})
}

// nameStructs names the struct types spelled inside a type expression.
func nameStructs(e ast.Expr, name string, owner map[*ast.StructType]string) {
	ast.Inspect(e, func(n ast.Node) bool {
		if st, ok := n.(*ast.StructType); ok {
			if _, done := owner[st]; !done {
				owner[st] = name
			}
			return false
		}
		return true
	})
}

// accesses records the field writes and reads of one non-test file.
func accesses(p *Package, f *ast.File, written, read map[fieldKey]bool) {
	field := func(e ast.Expr) (*ast.SelectorExpr, *types.Var) {
		se, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil, nil
		}
		sel := p.Info.Selections[se]
		if sel == nil || sel.Kind() != types.FieldVal {
			return nil, nil
		}
		return se, sel.Obj().(*types.Var)
	}
	writes := map[*ast.SelectorExpr]bool{}
	mark := func(e ast.Expr) {
		for {
			ix, ok := ast.Unparen(e).(*ast.IndexExpr)
			if !ok {
				break
			}
			e = ix.X // filling x.f[k] writes x.f
		}
		if se, v := field(e); v != nil {
			writes[se] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				mark(lhs)
				se, v := field(lhs)
				if v == nil || len(n.Rhs) != len(n.Lhs) {
					continue
				}
				call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					continue
				}
				if b, ok := p.Info.Uses[identOf(call.Fun)].(*types.Builtin); ok && b.Name() == "append" {
					if ase, av := field(call.Args[0]); av != nil && av == v && types.ExprString(ase.X) == types.ExprString(se.X) {
						writes[ase] = true
					}
				}
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.CallExpr:
			if b, ok := p.Info.Uses[identOf(n.Fun)].(*types.Builtin); ok && len(n.Args) > 0 && (b.Name() == "delete" || b.Name() == "clear") {
				mark(n.Args[0])
			}
		case *ast.CompositeLit:
			st, ok := p.Info.TypeOf(n).Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if v, ok := p.Info.Uses[identOf(kv.Key)].(*types.Var); ok && v.IsField() {
						written[keyOf(p.Fset, v)] = true
					}
				} else if i < st.NumFields() {
					written[keyOf(p.Fset, st.Field(i))] = true
				}
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		if se, ok := n.(*ast.SelectorExpr); ok {
			if _, v := field(se); v != nil {
				if writes[se] {
					written[keyOf(p.Fset, v)] = true
				} else {
					read[keyOf(p.Fset, v)] = true
				}
			}
		}
		return true
	})
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}
