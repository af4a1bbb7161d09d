// Package lint is the engine's own static-analysis suite: the one
// invariant that neither the compiler, go vet, the code's own
// structure nor a run-time check holds — typed error sentinels
// (errsentinel). Invariants that a type, a package boundary or a test
// can hold live there instead: a relation is read only through
// unijoin.Relation.Pin, a frame header is parsed only inside
// internal/wire, internal/obs bounds its own series, and every pooled
// buffer comes back (internal/leakcheck, run by the TestMain of each
// package that borrows one).
//
// The framework mirrors golang.org/x/tools/go/analysis — Analyzer,
// Pass, Diagnostic — but is built entirely on the standard library
// (go/ast, go/types, go list), keeping the root module
// dependency-free and the tool runnable in hermetic build
// environments. Each analyzer looks at one package at a time; there
// are no cross-package facts and no suppression annotations.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding: a position and a message, tagged with
// the analyzer that produced it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Analyzer is one invariant checker. Doc's first line names the
// invariant; the rest states which PR introduced it.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// SortDiagnostics orders findings by file, line, column, analyzer —
// the stable order both the text and NDJSON outputs use.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorInterface) ||
		types.Implements(types.NewPointer(t), errorInterface)
}

var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
