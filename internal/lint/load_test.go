package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadFromListVariantSelection feeds the loader a synthetic `go list
// -test -deps` stream and checks target selection: test variants replace
// their plain package, external test packages ride along, and standard,
// dep-only, and .test-binary entries are excluded.
func TestLoadFromListVariantSelection(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	aGo := write("a.go", "package a\n\nfunc A() {}\n")
	bGo := write("b.go", "package b\n\nfunc B() {}\n")
	bTestGo := write("b_internal_test.go", "package b\n\nfunc helperForTest() {}\n")
	bxGo := write("bx_test.go", "package b_test\n\nfunc X() {}\n")
	depGo := write("dep.go", "package dep\n\nfunc D() {}\n")

	entries := []map[string]any{
		{"ImportPath": "fmt", "Name": "fmt", "Standard": true, "DepOnly": true},
		{"ImportPath": "m/dep", "Name": "dep", "Dir": dir, "DepOnly": true, "GoFiles": []string{depGo}},
		{"ImportPath": "m/a", "Name": "a", "Dir": dir, "GoFiles": []string{aGo}},
		{"ImportPath": "m/b", "Name": "b", "Dir": dir, "GoFiles": []string{bGo}},
		{"ImportPath": "m/b [m/b.test]", "Name": "b", "Dir": dir, "ForTest": "m/b", "GoFiles": []string{bGo, bTestGo}},
		{"ImportPath": "m/b_test [m/b.test]", "Name": "b_test", "Dir": dir, "ForTest": "m/b", "GoFiles": []string{bxGo}},
		{"ImportPath": "m/b.test", "Name": "main", "Dir": dir},
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}

	pkgs, err := loadFromList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// A target is named by its package path and the files it was checked
	// from: the variant's path drops the "[...]" marker, and its file list
	// includes the merged _test.go file.
	var got []string
	for i, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Errorf("target %d: type errors: %v", i, p.TypeErrors)
		}
		if p.Pkg == nil {
			t.Fatalf("target %d: no type info", i)
		}
		var files []string
		for _, f := range p.Files {
			files = append(files, filepath.Base(p.Fset.Position(f.Pos()).Filename))
		}
		got = append(got, p.Pkg.Path()+" "+strings.Join(files, ","))
	}
	want := []string{"m/a a.go", "m/b b.go,b_internal_test.go", "m/b_test bx_test.go"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("targets = %v, want %v", got, want)
	}
}

// TestLoadFromListNoVariant checks that a package without test files is
// analyzed as its plain (non-variant) entry.
func TestLoadFromListNoVariant(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.go")
	if err := os.WriteFile(path, []byte("package a\n\nfunc A() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(map[string]any{
		"ImportPath": "m/a", "Name": "a", "Dir": dir, "GoFiles": []string{path},
	}); err != nil {
		t.Fatal(err)
	}
	pkgs, err := loadFromList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Pkg.Path() != "m/a" {
		t.Fatalf("targets = %+v, want the single plain package", pkgs)
	}
}
