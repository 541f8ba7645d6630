package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// StateCodec checks wire-field symmetry of the checkpoint codecs: for every
// receiver type declaring an (ExportState, ImportState) or (SaveState,
// RestoreState) method pair, the sequence of wire ops the writer side emits
// must match, op for op, the sequence the reader side consumes — same op
// names in the same traversal order, with loop nesting agreeing. An export
// that writes a U32 the import never reads desynchronizes every later field
// of the FSWLCKP1 stream; this rule catches that before a checkpoint
// round-trip test ever runs.
//
// The extraction understands the tree's codec idioms: module helpers that
// take a *wire.Writer/*wire.Reader parameter (exportStats/importStats,
// exportHeader/importHeader) are inlined; nested codecs passed through Blob are opaque
// payloads matched by the Blob op itself; ops under for/range agree by
// their loop context rather than a (statically unknowable) count; branch
// conditions are not compared, so version gates and presence flags
// (w.Bool(x != nil) paired with if r.Bool()) line up naturally. A pair
// whose bodies cannot be fully resolved is skipped, never guessed at.
var StateCodec = &Analyzer{
	Name:      ruleStateCodec,
	Doc:       "ExportState/ImportState and SaveState/RestoreState must read and write the same wire fields in the same order",
	Applies:   func(pkgPath string) bool { return pathIn(pkgPath, "flashswl") },
	RunModule: runStateCodec,
}

// wireOps are the symmetric data-op method names shared by wire.Writer and
// wire.Reader. Close/Err/Remaining/Bytes move no fields and are ignored.
var wireOps = map[string]bool{
	"U8": true, "Bool": true, "U16": true, "U32": true, "U64": true,
	"I32": true, "I64": true, "F64": true,
	"I32s": true, "U16s": true, "U64s": true, "Blob": true,
}

// codecPairs names the writer-side method and its reader-side partner.
var codecPairs = [][2]string{
	{"ExportState", "ImportState"},
	{"SaveState", "RestoreState"},
}

type codecOp struct {
	name string
	loop bool
	pos  token.Pos
}

func runStateCodec(m *Module, p *Pass) []Finding {
	if p.Info == nil {
		return nil
	}
	// Group the codec methods of this package by receiver type.
	type pair struct{ w, r *FuncInfo }
	byRecv := map[*types.TypeName]map[int]*pair{}
	m.Funcs(func(fi *FuncInfo) {
		if fi.Pass != p || fi.Decl.Recv == nil {
			return
		}
		recv := fi.Obj.Type().(*types.Signature).Recv()
		if recv == nil {
			return
		}
		tn := namedType(recv.Type())
		if tn == nil {
			return
		}
		for i, names := range codecPairs {
			if fi.Obj.Name() != names[0] && fi.Obj.Name() != names[1] {
				continue
			}
			if byRecv[tn] == nil {
				byRecv[tn] = map[int]*pair{}
			}
			if byRecv[tn][i] == nil {
				byRecv[tn][i] = &pair{}
			}
			if fi.Obj.Name() == names[0] {
				byRecv[tn][i].w = fi
			} else {
				byRecv[tn][i].r = fi
			}
		}
	})
	var out []Finding
	for tn, pairs := range byRecv {
		for i, pr := range pairs {
			if pr.w == nil || pr.r == nil {
				continue
			}
			wOps, wOK := collectCodecOps(m, pr.w, "Writer", 0, false)
			rOps, rOK := collectCodecOps(m, pr.r, "Reader", 0, false)
			if !wOK || !rOK || (len(wOps) == 0 && len(rOps) == 0) {
				continue
			}
			if f, mismatch := compareCodecOps(p, tn.Name(), codecPairs[i], pr.r, wOps, rOps); mismatch {
				out = append(out, f)
			}
		}
	}
	return out
}

// collectCodecOps extracts the in-traversal-order wire ops of one codec
// function, inlining module helpers that take a writer/reader parameter.
// kind is "Writer" or "Reader". ok is false when a helper body is out of
// reach (the pair is then skipped rather than mis-compared).
func collectCodecOps(m *Module, fi *FuncInfo, kind string, depth int, inLoop bool) (ops []codecOp, ok bool) {
	if depth > 6 {
		return nil, false
	}
	p := fi.Pass
	loops := loopRanges(fi.Decl)
	ok = true
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if !ok {
			return false
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		loop := inLoop || loops.covers(call)
		// A data op on the right codec half?
		if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
			if fn, isFn := p.Info.Uses[sel.Sel].(*types.Func); isFn && wireOps[fn.Name()] {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil &&
					isNamed(recv.Type(), "flashswl/internal/wire", kind) {
					ops = append(ops, codecOp{name: fn.Name(), loop: loop, pos: call.Pos()})
					return true
				}
			}
		}
		// A module helper carrying the codec stream as a parameter?
		fn := p.Callee(call)
		if fn == nil || !hasWireParam(fn, kind) {
			return true
		}
		callee := m.FuncOf(fn)
		if callee == nil {
			ok = false // helper body out of reach: give up on the pair
			return false
		}
		sub, subOK := collectCodecOps(m, callee, kind, depth+1, loop)
		if !subOK {
			ok = false
			return false
		}
		ops = append(ops, sub...)
		return true
	})
	return ops, ok
}

// hasWireParam reports whether fn takes a *wire.<kind> parameter.
func hasWireParam(fn *types.Func, kind string) bool {
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if isNamed(params.At(i).Type(), "flashswl/internal/wire", kind) {
			return true
		}
	}
	return false
}

// loopRanges collects the body extents of for/range statements in fn.
func loopRanges(fn ast.Node) ranges {
	var out ranges
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			out = append(out, posRange{n.Body.Pos(), n.Body.End()})
			if n.Cond != nil {
				out = append(out, posRange{n.Cond.Pos(), n.Cond.End()})
			}
		case *ast.RangeStmt:
			out = append(out, posRange{n.Body.Pos(), n.Body.End()})
		}
		return true
	})
	return out
}

// compareCodecOps diffs the two op streams and renders the first divergence
// as a finding anchored on the reader side (where a fix lands in practice).
func compareCodecOps(p *Pass, recvName string, names [2]string, reader *FuncInfo, wOps, rOps []codecOp) (Finding, bool) {
	label := func(op codecOp) string {
		if op.loop {
			return op.name + " (in loop)"
		}
		return op.name
	}
	n := len(wOps)
	if len(rOps) < n {
		n = len(rOps)
	}
	for i := 0; i < n; i++ {
		if wOps[i].name != rOps[i].name || wOps[i].loop != rOps[i].loop {
			return Finding{
				Pos:  p.Fset.Position(rOps[i].pos),
				Rule: ruleStateCodec,
				Message: fmt.Sprintf("%s.%s reads %s where %s writes %s (wire op %d); the stream desynchronizes here",
					recvName, names[1], label(rOps[i]), names[0], label(wOps[i]), i+1),
			}, true
		}
	}
	switch {
	case len(wOps) > len(rOps):
		return Finding{
			Pos:  p.Fset.Position(reader.Decl.Pos()),
			Rule: ruleStateCodec,
			Message: fmt.Sprintf("%s.%s writes %d wire ops but %s reads only %d; unread trailing field %s",
				recvName, names[0], len(wOps), names[1], len(rOps), label(wOps[len(rOps)])),
		}, true
	case len(rOps) > len(wOps):
		return Finding{
			Pos:  p.Fset.Position(rOps[len(wOps)].pos),
			Rule: ruleStateCodec,
			Message: fmt.Sprintf("%s.%s reads %d wire ops but %s writes only %d; extra read %s has no matching write",
				recvName, names[1], len(rOps), names[0], len(wOps), label(rOps[len(wOps)])),
		}, true
	}
	return Finding{}, false
}
