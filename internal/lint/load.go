package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// TypeErrors collects type-checker errors. Analysis still runs on a
	// partially-checked package, but dgsfvet reports these and fails.
	TypeErrors []error
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath   string
	ForTest      string
	Name         string
	Dir          string
	Standard     bool
	Export       string
	GoFiles      []string
	XTestGoFiles []string
	DepOnly      bool
}

// Load loads the packages matching patterns (plus their test variants) in
// dir, type-checks them against compiler export data, and returns them
// ready for analysis.
//
// It shells out to `go list -test -deps -export -json`: -export makes the
// go tool produce (or reuse) export data for every dependency, which the
// type-checker then imports, so no source re-typechecking of dependencies
// is needed. Test variants ("p [p.test]") are preferred over the plain
// package because their file list includes _test.go files.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-test", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %w\n%s", err, errb.String())
	}
	return loadFromList(&out)
}

func loadFromList(r io.Reader) ([]*Package, error) {
	dec := json.NewDecoder(r)
	byPath := map[string]*listPkg{}
	var order []*listPkg
	for {
		lp := new(listPkg)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("parse go list output: %w", err)
		}
		byPath[lp.ImportPath] = lp
		order = append(order, lp)
	}

	// exports maps an import path (including "[...]" variant markers) to its
	// export data file.
	exports := map[string]string{}
	for _, lp := range byPath {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}

	baseOf := func(path string) string {
		if i := strings.Index(path, " ["); i >= 0 {
			return path[:i]
		}
		return path
	}

	// Select analysis targets: non-standard, non-harness packages that were
	// named by the patterns (not pulled in as dependencies). When a package
	// has an internal-test variant ("p [p.test]"), analyze the variant
	// instead of the plain package; external test packages ("p_test
	// [p.test]") are analyzed as well.
	named := map[string]bool{} // base import paths named by the patterns
	for _, lp := range order {
		if !lp.DepOnly && !lp.Standard && !strings.HasSuffix(baseOf(lp.ImportPath), ".test") {
			named[baseOf(lp.ImportPath)] = true
		}
	}
	hasVariant := map[string]bool{} // base paths with an internal-test variant
	for _, lp := range order {
		if lp.ForTest != "" && baseOf(lp.ImportPath) == lp.ForTest {
			hasVariant[lp.ImportPath[:strings.Index(lp.ImportPath, " [")]] = true
		}
	}

	var targets []*listPkg
	for _, lp := range order {
		base := baseOf(lp.ImportPath)
		if lp.Standard || strings.HasSuffix(base, ".test") {
			continue
		}
		switch {
		case lp.ForTest != "" && base == lp.ForTest:
			// Internal-test variant of a named package.
			if named[lp.ForTest] {
				targets = append(targets, lp)
			}
		case lp.ForTest != "":
			// External test package (p_test).
			if named[lp.ForTest] {
				targets = append(targets, lp)
			}
		default:
			if !lp.DepOnly && named[base] && !hasVariant[base] {
				targets = append(targets, lp)
			}
		}
	}

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, lp := range targets {
		p, err := typecheckListed(fset, lp, exports)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", lp.ImportPath, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// typecheckListed parses and type-checks one go-list entry against export
// data. For a test variant "p [p.test]", imports resolve preferentially to
// sibling "[p.test]" variants so that an external test package sees the
// test-augmented API of the package under test.
func typecheckListed(fset *token.FileSet, lp *listPkg, exports map[string]string) (*Package, error) {
	variant := ""
	if i := strings.Index(lp.ImportPath, " ["); i >= 0 {
		variant = strings.TrimSuffix(lp.ImportPath[i+2:], "]")
	}

	var files []*ast.File
	for _, name := range lp.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(lp.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	lookup := func(path string) (io.ReadCloser, error) {
		if variant != "" {
			if f, ok := exports[path+" ["+variant+"]"]; ok {
				return os.Open(f)
			}
		}
		if f, ok := exports[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	}

	out := &Package{Fset: fset, Files: files}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error:    func(err error) { out.TypeErrors = append(out.TypeErrors, err) },
	}
	info := NewInfo()
	pkgPath := lp.ImportPath
	if i := strings.Index(pkgPath, " ["); i >= 0 {
		pkgPath = pkgPath[:i]
	}
	pkg, _ := conf.Check(pkgPath, fset, files, info) // errors collected via conf.Error
	out.Pkg = pkg
	out.Info = info
	return out, nil
}
