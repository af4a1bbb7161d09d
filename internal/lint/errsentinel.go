package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// stringsMatchFuncs are the strings-package helpers that turn
// err.Error() output into control flow.
var stringsMatchFuncs = map[string]bool{
	"Contains":  true,
	"HasPrefix": true,
	"HasSuffix": true,
	"EqualFold": true,
	"Index":     true,
}

// checkErrSentinels checks the engine's typed-error discipline (the
// core sentinels ErrNeedsIndex, ErrNilRelation, ErrCanceled and
// ErrSweepOverflow, the wire.ErrCorrupt family, client.Err* with
// APIError.Is): errors must be tested with errors.Is /
// errors.As against exported sentinels, never by identity comparison,
// string matching, or direct type assertion. Identity and string checks
// break as soon as an error is wrapped with %w anywhere on the path —
// which the router and client layers do.
//
// Flagged forms:
//
//   - err == sentinel / err != sentinel (and switch err { case ... })
//   - err.Error() compared against strings or fed to strings.Contains
//     and friends
//   - err.(*SomeError) type assertions (use errors.As)
//
// Is/As methods themselves — the errors.Is/errors.As protocol hooks,
// which must compare identities — are exempt.
func checkErrSentinels(c *checker, files []*ast.File) {
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// The errors.Is/errors.As protocol methods are where
			// identity comparison is the specified behavior.
			if fd.Recv != nil && (fd.Name.Name == "Is" || fd.Name.Name == "As") {
				continue
			}
			checkErrSentinelBody(c, fd.Body)
		}
	}
}

func checkErrSentinelBody(c *checker, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.BinaryExpr:
			checkErrComparison(c, e)
		case *ast.SwitchStmt:
			checkErrSwitch(c, e)
		case *ast.CallExpr:
			checkErrorStringMatch(c, e)
		case *ast.TypeAssertExpr:
			checkErrTypeAssert(c, e)
		}
		return true
	})
}

// checkErrComparison flags ==/!= between two error values (nil
// comparisons are the one legitimate identity test).
func checkErrComparison(c *checker, e *ast.BinaryExpr) {
	if e.Op != token.EQL && e.Op != token.NEQ {
		return
	}
	if isNilExpr(c, e.X) || isNilExpr(c, e.Y) {
		return
	}
	if !isErrorExpr(c, e.X) || !isErrorExpr(c, e.Y) {
		return
	}
	// Comparing two err.Error() strings is reported by the string-match
	// check with a better message; here both operands are error-typed.
	c.reportf(e.OpPos, "error compared with %s; use errors.Is so wrapped errors (%%w) still match the sentinel", e.Op)
}

// checkErrSwitch flags `switch err { case sentinel: }`.
func checkErrSwitch(c *checker, s *ast.SwitchStmt) {
	if s.Tag == nil || !isErrorExpr(c, s.Tag) {
		return
	}
	for _, clause := range s.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, expr := range cc.List {
			if isNilExpr(c, expr) {
				continue
			}
			c.reportf(expr.Pos(), "switch on an error value compares by identity; use if/else chains with errors.Is so wrapped errors still match")
		}
	}
}

// checkErrorStringMatch flags err.Error() results used in string
// comparisons or strings.Contains-style matching.
func checkErrorStringMatch(c *checker, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, _ := c.info.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "strings" || !stringsMatchFuncs[fn.Name()] {
		return
	}
	for _, arg := range call.Args {
		if pos, ok := containsErrorCall(c, arg); ok {
			c.reportf(pos, "matching on err.Error() text couples control flow to a message string; compare with errors.Is against an exported sentinel")
			return
		}
	}
}

// checkErrTypeAssert flags err.(*T) on error-typed operands outside
// type switches (whose TypeAssertExpr has a nil Type).
func checkErrTypeAssert(c *checker, e *ast.TypeAssertExpr) {
	if e.Type == nil {
		return
	}
	if !isErrorExpr(c, e.X) {
		return
	}
	c.reportf(e.Pos(), "type assertion on an error misses wrapped errors; use errors.As")
}

// isErrorExpr reports whether expr's static type implements error.
// Comparisons of err.Error() strings are also caught here so that
// `a.Error() == b.Error()` gets flagged by checkErrComparison's
// caller via the string-match path.
func isErrorExpr(c *checker, expr ast.Expr) bool {
	t := c.info.TypeOf(expr)
	return t != nil && isErrorType(t)
}

func isNilExpr(c *checker, expr ast.Expr) bool {
	tv, ok := c.info.Types[expr]
	return ok && tv.IsNil()
}

// containsErrorCall finds an err.Error() call (zero-arg method named
// Error on an error-typed receiver) inside expr.
func containsErrorCall(c *checker, expr ast.Expr) (token.Pos, bool) {
	var pos token.Pos
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Error" {
			return true
		}
		if isErrorExpr(c, sel.X) {
			pos, found = call.Pos(), true
			return false
		}
		return true
	})
	return pos, found
}
