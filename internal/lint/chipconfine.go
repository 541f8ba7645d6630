package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// confinedTypes are the single-owner media-management types: the documented
// contract (internal/nand/chip.go) is that a chip and the driver stack
// above it are owned by one goroutine at a time, as real firmware
// serializes access to the flash bus, and change hands only over a
// happens-before edge (internal/serve's mutex is the one place that
// happens). Using one from two goroutines at once tears multi-word
// statistics and races per-block counters.
var confinedTypes = map[string]bool{
	"flashswl/internal/nand.Chip":   true,
	"flashswl/internal/mtd.Driver":  true,
	"flashswl/internal/mtd.Device":  true,
	"flashswl/internal/array.Array": true,
	"flashswl/internal/ftl.Driver":  true,
	"flashswl/internal/nftl.Driver": true,
	"flashswl/internal/dftl.Driver": true,
}

// ChipConfine flags `go` statements whose spawned work references a value
// of a confined type declared outside the goroutine — i.e. a chip or driver
// shared across goroutines. A goroutine constructing and using its own chip
// is fine (the experiments worker pool does exactly that); only capture or
// hand-off of an existing instance to a new goroutine violates the
// contract — a mutex-ordered hand-over between existing goroutines, which
// internal/serve does, involves no go statement and is not this rule's
// business (the race detector's). The check needs type information;
// packages that fail to type-check produce no findings.
var ChipConfine = &Analyzer{
	Name: ruleChipConfine,
	Doc:  "no go statement may capture or receive a *nand.Chip, *mtd.Device, or FTL driver (one owner at a time; ownership moves only through internal/serve's mutex)",
	Applies: func(pkgPath string) bool {
		return pathIn(pkgPath, "flashswl")
	},
	Run: runChipConfine,
}

func runChipConfine(p *Pass) []Finding {
	if p.Info == nil {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			out = append(out, checkGoStmt(p, g)...)
			return true
		})
	}
	return out
}

// checkGoStmt inspects everything the go statement evaluates or captures —
// the callee (usually a func literal), its arguments, and every selector
// reached inside — for confined types defined outside the statement.
func checkGoStmt(p *Pass, g *ast.GoStmt) []Finding {
	inside := map[types.Object]bool{}
	ast.Inspect(g, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.Info.Defs[id]; obj != nil {
				inside[obj] = true
			}
		}
		return true
	})
	var out []Finding
	flagged := map[string]bool{} // one finding per offending name per go stmt
	flag := func(pos ast.Node, what, typ string) {
		key := what + "|" + typ
		if flagged[key] {
			return
		}
		flagged[key] = true
		out = append(out, Finding{
			Pos:  p.Fset.Position(pos.Pos()),
			Rule: ruleChipConfine,
			Message: fmt.Sprintf("goroutine shares %s of confined type %s; chips and drivers are single-goroutine (see nand.Chip doc)",
				what, typ),
		})
	}
	ast.Inspect(g, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj := p.Info.Uses[n]
			if obj == nil || inside[obj] {
				return true
			}
			v, ok := obj.(*types.Var)
			if !ok || v.IsField() {
				// Struct fields referenced as composite-literal keys are
				// not value uses; field access is handled as a selector.
				return true
			}
			if name, bad := confinedTypeName(v.Type()); bad {
				flag(n, fmt.Sprintf("%q", n.Name), name)
			}
		case *ast.SelectorExpr:
			// Reaching a confined value through a captured struct
			// (r.chip, s.dev) or calling a method on one. Selectors rooted
			// in a value the goroutine declared itself are its own business;
			// a method call directly on an outside ident (c.EraseBlock) is
			// already reported by the ident case above.
			if rootDeclaredInside(p, inside, n) {
				return true
			}
			if sel := p.Info.Selections[n]; sel != nil {
				if name, bad := confinedTypeName(sel.Type()); bad {
					flag(n, fmt.Sprintf("%q", n.Sel.Name), name)
				} else if name, bad := confinedTypeName(sel.Recv()); bad && sel.Kind() == types.MethodVal && !isOutsideConfinedIdent(p, inside, n.X) {
					flag(n, fmt.Sprintf("receiver of %q", n.Sel.Name), name)
				}
			}
		}
		return true
	})
	return out
}

// rootDeclaredInside unwraps a selector chain (including calls, indexing,
// and dereferences) to its base identifier and reports whether that
// identifier was declared inside the goroutine — in which case everything
// reached through it belongs to the goroutine.
func rootDeclaredInside(p *Pass, inside map[types.Object]bool, e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.Ident:
			if obj := p.Info.Uses[x]; obj != nil {
				return inside[obj]
			}
			return false
		default:
			return false
		}
	}
}

// isOutsideConfinedIdent reports whether e is a bare identifier declared
// outside the goroutine whose type is confined — i.e. a use the ident case
// of checkGoStmt already flags.
func isOutsideConfinedIdent(p *Pass, inside map[types.Object]bool, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	obj := p.Info.Uses[id]
	if obj == nil || inside[obj] {
		return false
	}
	_, bad := confinedTypeName(obj.Type())
	return bad
}

// confinedTypeName unwraps composites (pointers, slices, arrays, maps,
// channels) and reports whether the underlying named type is confined.
func confinedTypeName(t types.Type) (string, bool) {
	for i := 0; i < 16 && t != nil; i++ {
		t = types.Unalias(t)
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Chan:
			t = u.Elem()
		case *types.Named:
			obj := u.Obj()
			if obj.Pkg() == nil {
				return "", false
			}
			name := obj.Pkg().Path() + "." + obj.Name()
			return name, confinedTypes[name]
		default:
			return "", false
		}
	}
	return "", false
}
