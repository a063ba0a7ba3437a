// Package asyncsafe guards the guest's deferred lanes. A result-free call
// reaches the batch and the one-way async lane as an op record that the
// guest's encodeOp turns into wire bytes; the lane is chosen from the op's
// call ID (gen.CallClass, gen.CallIsDeferrable) and the reply — if the lane
// has one at all — is read as a bare status. So every call encodeOp can emit
// must be result-free in apigen's spec, and must be the call its case names:
// a refactor that gives a result-bearing call a deferred form, or encodes
// one call under another's ID, would silently discard a result or ride a
// lane the tables never allowed it.
package asyncsafe

import (
	"go/ast"
	"regexp"

	"dgsf/internal/lint"
	"dgsf/internal/lint/dataflow"
	"dgsf/internal/remoting/gen"
)

// Analyzer is the asyncsafe pass.
var Analyzer = &lint.Analyzer{
	Name: "asyncsafe",
	Doc: "every Append*Call the guest's lane encoder (encodeOp) emits must be " +
		"result-free per the generated call tables (deferrable or batchable) " +
		"and must match the Call* constant of the case it sits in",
	Run: run,
}

// ResultFree names the calls that may take the deferred lanes; it is derived
// from the generated tables and is overridable in tests.
var ResultFree = resultFree()

func resultFree() map[string]bool {
	t := map[string]bool{}
	for id := uint16(1); id <= gen.NumCalls; id++ {
		if gen.CallIsDeferrable(id) || gen.CallClass(id) == gen.ClassBatchable {
			t[gen.CallName(id)] = true
		}
	}
	return t
}

// laneEncoders are the guest functions whose output is sent down whichever
// lane the op's ID selects.
var laneEncoders = map[string]bool{"encodeOp": true}

var (
	appendCallRe = regexp.MustCompile(`^Append([A-Z]\w*)Call$`)
	callConstRe  = regexp.MustCompile(`^Call([A-Z]\w*)$`)
)

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !laneEncoders[fd.Name.Name] {
				continue
			}
			checkEncoder(pass, fd.Body, nil)
		}
	}
	return nil
}

// checkEncoder walks an encoder body. named is the set of calls the
// innermost enclosing case clause lists (nil outside any such clause).
func checkEncoder(pass *lint.Pass, n ast.Node, named map[string]bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CaseClause:
			inner := named
			if calls := caseCalls(m); len(calls) > 0 {
				inner = calls
			}
			for _, s := range m.Body {
				checkEncoder(pass, s, inner)
			}
			return false
		case *ast.CallExpr:
			sub := appendCallRe.FindStringSubmatch(dataflow.CalleeName(m))
			if sub == nil {
				return true
			}
			if !ResultFree[sub[1]] {
				pass.Reportf(m.Pos(), "%s encoded for the deferred lanes but %s is not result-free in the generated call tables (neither deferrable nor batchable); its result would be silently lost — use the synchronous path", sub[0], sub[1])
			} else if named != nil && !named[sub[1]] {
				pass.Reportf(m.Pos(), "%s encoded under a case that does not name Call%s: the lane would be chosen for a different call than the one sent", sub[0], sub[1])
			}
		}
		return true
	})
}

// caseCalls returns the API calls a case clause names through Call*
// constants.
func caseCalls(cc *ast.CaseClause) map[string]bool {
	calls := map[string]bool{}
	for _, e := range cc.List {
		name := ""
		switch e := e.(type) {
		case *ast.Ident:
			name = e.Name
		case *ast.SelectorExpr:
			name = e.Sel.Name
		}
		if sub := callConstRe.FindStringSubmatch(name); sub != nil {
			calls[sub[1]] = true
		}
	}
	return calls
}
