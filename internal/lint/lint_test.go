package lint

import (
	"go/ast"
	"strings"
	"testing"
)

// TestLoadTypechecks exercises the go-list loader end to end on a real
// module package, including the test-variant preference.
func TestLoadTypechecks(t *testing.T) {
	pkgs, err := Load("", "dgsf/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	var found bool
	for _, p := range pkgs {
		if p.Pkg == nil || len(p.Files) == 0 {
			t.Fatal("a loaded package has no type info or files")
		}
		path := p.Pkg.Path()
		if !strings.HasPrefix(path, "dgsf/internal/sim") {
			t.Errorf("unexpected package %s", path)
		}
		if len(p.TypeErrors) > 0 {
			t.Fatalf("%s: type errors: %v", path, p.TypeErrors)
		}
		// The test variant (merged _test.go files) should be selected when
		// the package has internal tests.
		if path == "dgsf/internal/sim" {
			for _, f := range p.Files {
				if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
					found = true
				}
			}
		}
		if len(p.Info.Uses) == 0 {
			t.Errorf("%s: no use information recorded", path)
		}
	}
	if !found {
		t.Error("expected a test-variant package for dgsf/internal/sim")
	}
}

// TestAllowSuppression checks the //lint:allow escape hatch filters
// diagnostics on its own line and the line below, and nothing else.
func TestAllowSuppression(t *testing.T) {
	a := &Analyzer{
		Name: "demo",
		Doc:  "flags every function declaration",
		Run: func(p *Pass) error {
			for _, f := range p.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						p.Reportf(fd.Pos(), "func %s", fd.Name.Name)
					}
				}
			}
			return nil
		},
	}
	pkgs, err := Load("", "dgsf/internal/lint/internal/allowtest")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	diags, err := RunAnalyzers(p.Fset, p.Files, p.Pkg, p.Info, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range diags {
		names = append(names, d.Message)
	}
	got := strings.Join(names, ",")
	if got != "func flagged,func wrongname" {
		t.Fatalf("diagnostics = %q, want flagged and wrongname only (suppressed filtered, wrong-name directive ignored)", got)
	}
}
