package dataflow

import (
	"go/ast"
	"go/token"
)

// Sequential reports whether execution that performs a can fall through to
// b in the same pass over the function: a.Pos < b.Pos, the two sites are
// not in mutually exclusive branch arms, and no block enclosing a (but not
// b) terminates — returns or panics — between a and the block's end.
//
// It is deliberately conservative in the "false" direction: when control
// flow is too clever to prove fall-through (early returns, exclusive arms),
// analyzers should not report a both-execute violation.
func Sequential(a, b Site) bool {
	if a.Pos >= b.Pos {
		return false
	}
	if MutuallyExclusive(a, b) {
		return false
	}
	// Walk a's enclosing blocks from the inside out. For every block that
	// does not also enclose b, control must fall off the end of the block
	// to reach b; a return/panic after a inside that block prevents it.
	bNodes := map[ast.Node]bool{}
	for _, n := range b.Stack {
		bNodes[n] = true
	}
	for i := len(a.Stack) - 1; i >= 0; i-- {
		n := a.Stack[i]
		if bNodes[n] {
			break
		}
		var stmts []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			stmts = n.List
		case *ast.CaseClause:
			stmts = n.Body
		case *ast.CommClause:
			stmts = n.Body
		default:
			continue
		}
		for _, s := range stmts {
			if s.Pos() <= a.Pos || s.Pos() >= b.Pos {
				continue
			}
			if terminates(s) {
				return false
			}
		}
	}
	return true
}

// MutuallyExclusive reports whether a and b sit in different arms of the
// same if/else, switch, type switch, or select — so at most one of them
// executes in a given pass.
func MutuallyExclusive(a, b Site) bool {
	common := len(a.Stack)
	if len(b.Stack) < common {
		common = len(b.Stack)
	}
	div := 0
	for div < common && a.Stack[div] == b.Stack[div] {
		div++
	}
	if div == 0 || div >= len(a.Stack) || div >= len(b.Stack) {
		return false
	}
	parent := a.Stack[div-1]
	ca, cb := a.Stack[div], b.Stack[div]
	switch p := parent.(type) {
	case *ast.IfStmt:
		inBody := func(n ast.Node) bool { return n == ast.Node(p.Body) }
		inElse := func(n ast.Node) bool { return p.Else != nil && n == p.Else }
		return (inBody(ca) && inElse(cb)) || (inElse(ca) && inBody(cb))
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		_, aCase := ca.(*ast.CaseClause)
		_, bCase := cb.(*ast.CaseClause)
		return aCase && bCase
	case *ast.SelectStmt:
		_, aComm := ca.(*ast.CommClause)
		_, bComm := cb.(*ast.CommClause)
		return aComm && bComm
	}
	return false
}

// terminates reports whether s unconditionally leaves the surrounding
// block's fall-through path: a return, a goto, or a panic/Fatal call.
// break/continue do not count — they still reach code after the loop.
func terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.GOTO
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch CalleeName(call) {
		case "panic", "Fatal", "Fatalf", "Exit", "Goexit":
			return true
		}
	}
	return false
}
