package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// ObsPair enforces the observability contract introduced with the obs
// layer: inside the FTL/NFTL/DFTL driver packages and the cleaner skeleton
// they share (internal/gc), any function that erases media (a
// `.EraseBlock(...)` call) or accounts a page copy (an update of the
// LiveCopies counter) must also report through the obs layer in the same
// function — a call to the shared cleaner's Emit helper or directly to an
// EventSink's Observe. Without the pairing, new cleaner code silently goes
// dark to event tracing, wear time-series, and the invariant checker.
//
// The check is syntactic on purpose: it looks at function bodies, so a
// function whose erase is reported by a helper it calls must either route
// the erase through that helper (gc.Cleaner.Erase) or carry a suppression
// with the reason.
var ObsPair = &Analyzer{
	Name: ruleObsPair,
	Doc:  "erase/page-copy sites in ftl, nftl, dftl, gc must emit an obs event in the same function",
	Applies: func(pkgPath string) bool {
		return pathIn(pkgPath,
			"flashswl/internal/ftl",
			"flashswl/internal/nftl",
			"flashswl/internal/dftl",
			"flashswl/internal/gc",
		)
	},
	Run: runObsPair,
}

func runObsPair(p *Pass) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			out = append(out, checkObsPair(p, fn)...)
		}
	}
	return out
}

// checkObsPair scans one function body for media-event sites and obs
// emissions, and reports each site of a function that has sites but no
// emission.
func checkObsPair(p *Pass, fn *ast.FuncDecl) []Finding {
	type site struct {
		pos  token.Pos
		what string
	}
	var sites []site
	emits := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch callee := n.Fun.(type) {
			case *ast.SelectorExpr:
				switch callee.Sel.Name {
				case "EraseBlock":
					sites = append(sites, site{n.Pos(), "EraseBlock call"})
				case "emit", "Emit", "Observe", "BeginEpisode", "EndEpisode":
					// The episode-span API (obs.BeginEpisode/EndEpisode)
					// counts as an emission: the builder turns the pair plus
					// the events between them into one episode record.
					emits = true
				}
			case *ast.Ident:
				switch callee.Name {
				case "emit", "BeginEpisode", "EndEpisode":
					emits = true
				}
			}
		case *ast.IncDecStmt:
			if isLiveCopies(n.X) {
				sites = append(sites, site{n.Pos(), "page-copy accounting (LiveCopies)"})
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if isLiveCopies(lhs) {
					sites = append(sites, site{n.Pos(), "page-copy accounting (LiveCopies)"})
				}
			}
		}
		return true
	})
	if emits || len(sites) == 0 {
		return nil
	}
	var out []Finding
	for _, s := range sites {
		out = append(out, Finding{
			Pos:  p.Fset.Position(s.pos),
			Rule: ruleObsPair,
			Message: fmt.Sprintf("%s in %s has no obs emission (Emit/Observe) in the same function",
				s.what, fn.Name.Name),
		})
	}
	return out
}

// isLiveCopies matches a selector ending in .LiveCopies (the drivers'
// page-copy counter).
func isLiveCopies(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "LiveCopies"
}
