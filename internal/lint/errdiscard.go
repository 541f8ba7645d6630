package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// mediaOps are the chip/device/driver operations whose errors became real
// with fault injection (PR 1): erases hit worn-out and grown-bad blocks,
// programs fail transiently, reads report uncorrectable corruption.
// Dropping one of these errors hides a retired block or lost write. Level is
// the leveler's entry to the same operations: its error is a forced recycle
// that failed.
var mediaOps = map[string]bool{
	"EraseBlock":    true,
	"EraseBlockSet": true,
	"ProgramPage":   true,
	"Program":       true,
	"WritePage":     true,
	"ReadPage":      true,
	"Level":         true,
}

// levelExemptPkg is the one package where a dropped Level error is not yet
// reported: bench/ carries two copies of swlserve's old tick (`_ =
// lv.Level()`), and the benchmark contract freezes its files. Delete this
// with the next change allowed to edit bench/.
const levelExemptPkg = "flashswl/bench"

// ErrDiscard flags media-operation calls whose error result is discarded —
// either a bare call statement or an assignment of the error to the blank
// identifier. Fault injection makes these errors load-bearing; handle them
// or annotate the discard with an explicit reason.
var ErrDiscard = &Analyzer{
	Name: ruleErrDiscard,
	Doc:  "errors from EraseBlock/Program/chip operations must be handled, not discarded",
	Applies: func(pkgPath string) bool {
		return pathIn(pkgPath, "flashswl")
	},
	Run: runErrDiscard,
}

func runErrDiscard(p *Pass) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, name := mediaOpCall(p, n.X); call != nil && callReturnsError(p, call) {
					out = append(out, Finding{
						Pos:     p.Fset.Position(call.Pos()),
						Rule:    ruleErrDiscard,
						Message: fmt.Sprintf("error from %s is unchecked; media operations fail under fault injection", name),
					})
				}
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				call, name := mediaOpCall(p, n.Rhs[0])
				if call == nil {
					return true
				}
				if idx := errResultIndex(p, call, len(n.Lhs)); idx >= 0 && idx < len(n.Lhs) && isBlank(n.Lhs[idx]) {
					out = append(out, Finding{
						Pos:     p.Fset.Position(call.Pos()),
						Rule:    ruleErrDiscard,
						Message: fmt.Sprintf("error from %s discarded to _; media operations fail under fault injection", name),
					})
				}
			}
			return true
		})
	}
	return out
}

// mediaOpCall returns the call expression and operation name if e is a call
// to one of the media operations.
func mediaOpCall(p *Pass, e ast.Expr) (*ast.CallExpr, string) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !mediaOps[sel.Sel.Name] || (sel.Sel.Name == "Level" && p.PkgPath == levelExemptPkg) {
		return nil, ""
	}
	return call, sel.Sel.Name
}

// callReturnsError reports whether the call's results include an error.
// Without type information it assumes yes — every listed media op returns
// one.
func callReturnsError(p *Pass, call *ast.CallExpr) bool {
	if p.Info == nil {
		return true
	}
	tv, ok := p.Info.Types[call]
	if !ok || tv.Type == nil {
		return true
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

// errResultIndex locates the error result's position among the call's
// results. Without type information it assumes the last position, which is
// the universal Go convention and holds for every media op in this module.
func errResultIndex(p *Pass, call *ast.CallExpr, nlhs int) int {
	if p.Info != nil {
		if tv, ok := p.Info.Types[call]; ok && tv.Type != nil {
			switch t := tv.Type.(type) {
			case *types.Tuple:
				for i := t.Len() - 1; i >= 0; i-- {
					if isErrorType(t.At(i).Type()) {
						return i
					}
				}
				return -1
			default:
				if isErrorType(t) {
					return 0
				}
				return -1
			}
		}
	}
	return nlhs - 1
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
