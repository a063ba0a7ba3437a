// Package journalcover ties the guest library to the crash-recovery replay
// journal: every guest method implementing a state-establishing call (per
// apigen's StateEstablishingCalls table) must reach a journal registration
// (journalPut), or a recovered session would come back without that piece of
// server-side state. The registration may sit in the method, in a helper it
// calls (virtualize, attach, create), or — for a call handed to the lane
// helper as an op record, which is journaled only once the server confirms
// it — in that call's case of the guest's confirmed switch.
package journalcover

import (
	"go/ast"

	"dgsf/internal/lint"
	"dgsf/internal/lint/dataflow"
	"dgsf/internal/remoting/gen"
)

// Analyzer is the journalcover pass.
var Analyzer = &lint.Analyzer{
	Name: "journalcover",
	Doc: "every guest method implementing a call in gen.StateEstablishingCalls " +
		"must reach journalPut — itself, through the helpers it calls, or in " +
		"its case of the confirmed switch — so crash recovery can re-establish " +
		"the state it creates",
	Run: run,
}

// Required is the table of state-establishing call names; it defaults to
// the generated single source of truth and is overridable in tests.
var Required = gen.StateEstablishingCalls

// journalFuncs register a replay entry.
var journalFuncs = map[string]bool{"journalPut": true}

// confirmFunc is the guest function that journals deferred calls, one case
// per call ID.
const confirmFunc = "confirmed"

func run(pass *lint.Pass) error {
	if !lint.PkgPathHasSuffix(pass.Pkg.Path(), "internal/guest") {
		return nil // the replay journal lives in the guest library
	}
	// Bodies by bare name: the package's functions and methods, as far as a
	// by-name walk of calls can follow them.
	c := &cover{bodies: map[string][]ast.Node{}}
	var methods []*ast.FuncDecl
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.bodies[fd.Name.Name] = append(c.bodies[fd.Name.Name], fd.Body)
			if fd.Recv != nil && Required[fd.Name.Name] {
				methods = append(methods, fd)
			}
		}
	}
	for _, fd := range methods {
		var where ast.Node = fd.Body
		if id := opCall(fd.Body); id != "" {
			// Deferred: the journal entry is the confirmation's to make.
			where = c.confirmCase(id)
		}
		if where == nil || !c.reaches(where, map[string]bool{}) {
			pass.Reportf(fd.Pos(), "%s establishes server-side state (gen.StateEstablishingCalls) but never registers a replay-journal entry (journalPut); a recovered session would lose this state", fd.Name.Name)
		}
	}
	return nil
}

type cover struct {
	bodies map[string][]ast.Node
}

// reaches reports whether n, or any same-package function it calls by name,
// calls a journal registration.
func (c *cover) reaches(n ast.Node, seen map[string]bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if found || !ok {
			return !found
		}
		name := dataflow.CalleeName(call)
		switch {
		case journalFuncs[name]:
			found = true
		case name != confirmFunc && !seen[name]:
			// confirmed is followed case by case (confirmCase), never as a
			// whole: that one of its cases journals says nothing of the rest.
			seen[name] = true
			for _, body := range c.bodies[name] {
				found = found || c.reaches(body, seen)
			}
		}
		return !found
	})
	return found
}

// opCall returns the Call* constant of the op record a method hands to the
// lane helper (op{id: gen.CallX, ...}), or "".
func opCall(body ast.Node) string {
	id := ""
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || exprName(lit.Type) != "op" {
			return id == ""
		}
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok && exprName(kv.Key) == "id" {
				id = exprName(kv.Value)
			}
		}
		return id == ""
	})
	return id
}

// confirmCase returns the clause of the confirmed switch that names the
// given Call* constant, or nil.
func (c *cover) confirmCase(id string) ast.Node {
	var clause ast.Node
	for _, body := range c.bodies[confirmFunc] {
		ast.Inspect(body, func(n ast.Node) bool {
			cc, ok := n.(*ast.CaseClause)
			if !ok {
				return clause == nil
			}
			for _, e := range cc.List {
				if exprName(e) == id {
					clause = &ast.BlockStmt{List: cc.Body}
				}
			}
			return clause == nil
		})
	}
	return clause
}

// exprName is the bare name of an identifier or a selector's selection.
func exprName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}
