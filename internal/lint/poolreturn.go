package lint

import (
	"go/ast"
	"go/types"
)

// PoolReturn checks the pooled-buffer discipline behind the EmitBatch
// fast path (PR 2), the wire frame encoder (PR 8), the parallel
// engine's record fragments (PR 13) and the response streams (both
// httpapi.Stream implementations hold pooled buffers): every
// pairbuf.Get() / pairbuf.GetRecords() / pairbuf.NewBatcher() /
// wire.NewEncoder() / httpapi.NewStream() acquisition must reach its
// release (pairbuf.Put, pairbuf.PutRecords, Batcher.Release,
// Encoder.Close, Stream.Close) on some path in the acquiring
// function, or hand the value off — return it, store it into a field,
// slot, or pointer, or send it on a channel — to an owner that will. A buffer that is neither released
// nor handed off leaks from the pool and silently regresses the
// steady-state zero-allocation property the long-lived server relies
// on. The analyzer also flags straight-line use of a buffer after its
// Put/Release/Close — the pooled slice belongs to the next borrower
// from that point on.
//
// The pool-owning packages themselves (pairbuf, wire) are exempt.
var PoolReturn = &Analyzer{
	Name: "poolreturn",
	Doc: "pooled buffers must reach Put/Release/Close or escape to an owner (pooled emit path, PR 2/8)\n" +
		"pairbuf.Get/GetRecords/NewBatcher, wire.NewEncoder and httpapi.NewStream acquisitions leak from the pool when no path\n" +
		"releases them; using a buffer after returning it races with the next borrower.",
	Run: runPoolReturn,
}

// poolKind tells acquisitions and their release spellings apart.
type poolKind int

const (
	kindPairBuf poolKind = iota // pairbuf.Get -> pairbuf.Put(v)
	kindRecBuf                  // pairbuf.GetRecords -> pairbuf.PutRecords(v)
	kindBatcher                 // pairbuf.NewBatcher -> v.Release()
	kindEncoder                 // wire.NewEncoder -> v.Close()
	kindStream                  // httpapi.NewStream -> v.Close()
)

func (k poolKind) what() string {
	switch k {
	case kindPairBuf:
		return "pairbuf.Get buffer"
	case kindRecBuf:
		return "pairbuf.GetRecords buffer"
	case kindBatcher:
		return "pairbuf.Batcher"
	case kindEncoder:
		return "wire.Encoder"
	default:
		return "httpapi.Stream"
	}
}

// release is how the kind's release is spelled; a release call
// resolves every acquisition of its receiver that shares the spelling.
func (k poolKind) release() string {
	switch k {
	case kindPairBuf:
		return "pairbuf.Put"
	case kindRecBuf:
		return "pairbuf.PutRecords"
	case kindBatcher:
		return "Release"
	default:
		return "Close"
	}
}

// poolAcq is one tracked acquisition bound to a local variable.
type poolAcq struct {
	kind     poolKind
	obj      types.Object
	call     *ast.CallExpr
	resolved bool // released or escaped somewhere in the body
}

func runPoolReturn(pass *Pass) error {
	switch pass.Pkg.Name() {
	case "pairbuf", "wire":
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkPoolFlow(pass, fd.Body)
			}
		}
	}
	return nil
}

// acquisitionKind matches a call that borrows from a pool.
func acquisitionKind(pass *Pass, call *ast.CallExpr) (poolKind, bool) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return 0, false
	}
	switch {
	case fn.Pkg().Name() == "pairbuf" && fn.Name() == "Get":
		return kindPairBuf, true
	case fn.Pkg().Name() == "pairbuf" && fn.Name() == "GetRecords":
		return kindRecBuf, true
	case fn.Pkg().Name() == "pairbuf" && fn.Name() == "NewBatcher":
		return kindBatcher, true
	case fn.Pkg().Name() == "wire" && fn.Name() == "NewEncoder":
		return kindEncoder, true
	case fn.Pkg().Name() == "httpapi" && fn.Name() == "NewStream":
		return kindStream, true
	}
	return 0, false
}

// calleeFunc resolves a call's target *types.Func (nil for indirect
// calls and conversions).
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// checkPoolFlow analyzes one function body, nested closures included
// — they share the locals and routinely carry the release.
func checkPoolFlow(pass *Pass, body *ast.BlockStmt) {
	var acquisitions []*poolAcq
	byObj := map[types.Object][]*poolAcq{}

	// Pass 1: find acquisitions bound to locals; flag ones whose
	// result is discarded outright.
	ast.Inspect(body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			if call, ok := stmt.X.(*ast.CallExpr); ok {
				if kind, ok := acquisitionKind(pass, call); ok {
					pass.Reportf(call.Pos(), "result of the %s acquisition is discarded; the borrowed %s can never be returned to the pool",
						kind.what(), kind.what())
				}
			}
		case *ast.AssignStmt:
			if len(stmt.Lhs) != len(stmt.Rhs) {
				return true
			}
			for i, rhs := range stmt.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				kind, ok := acquisitionKind(pass, call)
				if !ok {
					continue
				}
				lhs, ok := stmt.Lhs[i].(*ast.Ident)
				if !ok {
					// Acquired straight into a field/slot: that is the
					// handoff form; the owner releases it.
					continue
				}
				if lhs.Name == "_" {
					pass.Reportf(call.Pos(), "%s acquisition assigned to _; the borrowed %s can never be returned to the pool",
						kind.what(), kind.what())
					continue
				}
				obj := pass.Info.Defs[lhs]
				if obj == nil {
					obj = pass.Info.Uses[lhs]
				}
				if obj == nil {
					continue
				}
				t := &poolAcq{kind: kind, obj: obj, call: call}
				acquisitions = append(acquisitions, t)
				byObj[obj] = append(byObj[obj], t)
			}
		}
		return true
	})
	if len(acquisitions) == 0 {
		return
	}

	markMentioned := func(expr ast.Expr) {
		ast.Inspect(expr, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				for _, t := range byObj[pass.Info.Uses[id]] {
					t.resolved = true
				}
			}
			return true
		})
	}

	// Pass 2: find releases and escapes.
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			if obj, release, ok := releaseCall(pass, e); ok {
				for _, t := range byObj[obj] {
					if t.kind.release() == release {
						t.resolved = true
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range e.Results {
				markMentioned(res)
			}
		case *ast.SendStmt:
			markMentioned(e.Value)
		case *ast.AssignStmt:
			// An assignment whose target is not a plain identifier
			// (field, slot, pointer deref, map entry) hands the value
			// to that owner.
			escapes := false
			for _, lhs := range e.Lhs {
				if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
					escapes = true
				}
			}
			if escapes {
				for _, rhs := range e.Rhs {
					markMentioned(rhs)
				}
			}
		case *ast.CompositeLit:
			for _, elt := range e.Elts {
				markMentioned(elt)
			}
		}
		return true
	})

	for _, t := range acquisitions {
		if !t.resolved {
			pass.Reportf(t.call.Pos(), "%s acquired here but no path releases it with %s or hands it off (return/field/slot/channel); the pool leaks one buffer per call",
				t.kind.what(), t.kind.release())
		}
	}

	checkUseAfterRelease(pass, body, byObj)
}

// releaseCall matches `pairbuf.Put(v)` / `pairbuf.PutRecords(v)` /
// `v.Release()` / `v.Close()` and returns the released object and the
// release's spelling (poolKind.release).
func releaseCall(pass *Pass, call *ast.CallExpr) (types.Object, string, bool) {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return nil, "", false
	}
	if fn.Pkg() != nil && fn.Pkg().Name() == "pairbuf" && len(call.Args) == 1 {
		if obj := usedObject(pass, call.Args[0]); obj != nil {
			switch fn.Name() {
			case "Put", "PutRecords":
				return obj, "pairbuf." + fn.Name(), true
			}
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj := usedObject(pass, sel.X); obj != nil {
			switch fn.Name() {
			case "Release", "Close":
				return obj, fn.Name(), true
			}
		}
	}
	return nil, "", false
}

// usedObject resolves an expression to the local object it denotes
// (ident, or &ident), or nil.
func usedObject(pass *Pass, expr ast.Expr) types.Object {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if obj := pass.Info.Uses[e]; obj != nil {
			return obj
		}
		return pass.Info.Defs[e]
	case *ast.UnaryExpr:
		return usedObject(pass, e.X)
	}
	return nil
}

// checkUseAfterRelease flags straight-line statements that read a
// tracked buffer after the statement that released it, within one
// block, until the variable is rebound.
func checkUseAfterRelease(pass *Pass, body *ast.BlockStmt, byObj map[types.Object][]*poolAcq) {
	var walkBlock func(b *ast.BlockStmt)
	walkBlock = func(b *ast.BlockStmt) {
		released := map[types.Object]poolKind{}
		for _, stmt := range b.List {
			// Nested blocks are their own straight-line sequences.
			ast.Inspect(stmt, func(n ast.Node) bool {
				if nb, ok := n.(*ast.BlockStmt); ok {
					walkBlock(nb)
					return false
				}
				return true
			})
			if len(released) > 0 {
				rebound := reboundObjects(pass, stmt)
				ast.Inspect(stmt, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := pass.Info.Uses[id]
					if obj == nil {
						return true
					}
					if kind, wasReleased := released[obj]; wasReleased && !rebound[obj] {
						pass.Reportf(id.Pos(), "%q is used after its %s; the pooled %s may already belong to the next borrower",
							id.Name, kind.release(), kind.what())
					}
					return true
				})
				for obj := range rebound {
					delete(released, obj)
				}
			}
			// Only whole-statement releases poison the fall-through;
			// conditional releases inside the statement do not.
			if es, ok := stmt.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if obj, release, ok := releaseCall(pass, call); ok {
						for _, t := range byObj[obj] {
							if t.kind.release() == release {
								released[obj] = t.kind
							}
						}
					}
				}
			}
		}
	}
	walkBlock(body)
}

// reboundObjects returns objects newly assigned by stmt (a rebound
// buffer variable is live again).
func reboundObjects(pass *Pass, stmt ast.Stmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	if as, ok := stmt.(*ast.AssignStmt); ok {
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil {
					out[obj] = true
				} else if obj := pass.Info.Defs[id]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	return out
}
