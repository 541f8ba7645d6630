package lint

// module.go is the interprocedural engine behind the v2 analyzers. It builds
// a module-wide static call graph over the passes the Loader produced (one
// shared object world — see loader.go), computes a conservative per-function
// Summary (reaches wall clock, reaches the global RNG, may allocate, touches
// atomic.Pointer Store/Load), and propagates the taint bits through call
// edges to a fixed point. Analyzers consume the result through Module:
// maporder and statecodec use its function index, hotalloc and the
// transitive half of determinism use the propagated summaries, snapshot uses
// reachability over the call edges.
//
// The graph is deliberately static: only calls whose callee resolves to a
// concrete *types.Func with a body in the module create edges. Interface
// dispatch and func-value calls are excluded — soundness there is the job of
// the runtime guards (AllocsPerRun probes, differential determinism tests)
// that these analyzers complement, and the exclusion is what keeps the
// false-positive rate at zero on this tree.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotpathDirective marks a function as a zero-allocation hot path for the
// hotalloc analyzer. Place it in the function's doc comment.
const hotpathDirective = "//lint:hotpath"

// Summary is the propagated taint state of one function: what it can reach
// through any chain of static calls. Each set bit carries a witness string
// ("why") naming the call chain down to the primitive source, so findings
// can explain themselves.
type Summary struct {
	WallClock    bool // reaches time.Now/Since/... (wall-clock reads)
	WallClockWhy string
	GlobalRNG    bool // reaches the process-global math/rand source
	GlobalRNGWhy string
	Allocates    bool // may allocate on a non-error path
	AllocWhy     string
}

// FuncInfo is one module function (or method) in the call graph.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pass *Pass
	Hot  bool // carries the //lint:hotpath directive

	// Callees are the statically resolved module functions this one calls
	// (deduplicated; interface dispatch and func values excluded).
	Callees []*FuncInfo

	// AtomicPtrStores and AtomicPtrLoads are the positions of .Store/.Load
	// calls on sync/atomic.Pointer receivers in this function's body.
	AtomicPtrStores []token.Pos
	AtomicPtrLoads  []token.Pos

	Summary Summary
}

// Module is the analyzed unit: every loaded pass plus the call graph and
// fixed-point summaries over them. Build it once (serially) and share it
// across concurrent analyzer runs; it is read-only after NewModule returns.
type Module struct {
	Passes []*Pass
	funcs  map[*types.Func]*FuncInfo
}

// NewModule builds the call graph and function summaries over the given
// passes. Passes without type information contribute no functions (their
// syntactic analyzers still run; the interprocedural ones degrade to
// silence, never to noise).
func NewModule(passes []*Pass) *Module {
	m := &Module{funcs: map[*types.Func]*FuncInfo{}}
	for _, p := range passes {
		if p == nil {
			continue
		}
		m.Passes = append(m.Passes, p)
		if p.Info == nil {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				m.funcs[obj] = &FuncInfo{
					Obj:  obj,
					Decl: fd,
					Pass: p,
					Hot:  hasDirective(fd.Doc, hotpathDirective),
				}
			}
		}
	}
	for _, fi := range m.funcs {
		m.scanFunc(fi)
	}
	m.propagate()
	return m
}

// FuncOf returns the FuncInfo for obj, or nil if obj is not a module
// function with a body. Generic instantiations resolve to their origin.
func (m *Module) FuncOf(obj *types.Func) *FuncInfo {
	if obj == nil {
		return nil
	}
	if fi, ok := m.funcs[obj]; ok {
		return fi
	}
	return m.funcs[obj.Origin()]
}

// Funcs calls fn for every module function, in no particular order.
func (m *Module) Funcs(fn func(*FuncInfo)) {
	for _, fi := range m.funcs {
		fn(fi)
	}
}

// hasDirective reports whether the comment group contains a line whose text
// is the directive (optionally followed by a reason).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// Callee resolves a call expression to the concrete function it invokes, or
// nil when the callee is dynamic: interface dispatch, a func value, a
// builtin, or a type conversion. Methods of generic instantiations resolve
// to their origin object so they match declaration-side Defs.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	if p.Info == nil {
		return nil
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := p.Info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return nil // dynamic dispatch: no static edge
	}
	return fn.Origin()
}

// namedType unwraps t to its defining TypeName, looking through one pointer
// and generic instantiation, or returns nil for unnamed types.
func namedType(t types.Type) *types.TypeName {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// isNamed reports whether t (possibly behind a pointer) is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	tn := namedType(t)
	return tn != nil && tn.Pkg() != nil && tn.Pkg().Path() == pkgPath && tn.Name() == name
}

// atomicPtrMethod reports whether call is a Store or Load method call on a
// sync/atomic.Pointer receiver, returning the method name ("Store"/"Load")
// when it is.
func (p *Pass) atomicPtrMethod(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || p.Info == nil {
		return "", false
	}
	name := sel.Sel.Name
	if name != "Store" && name != "Load" {
		return "", false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !isNamed(recv.Type(), "sync/atomic", "Pointer") {
		return "", false
	}
	return name, true
}

// wallClockFuncs are the package time functions that read (or schedule
// against) the wall clock. The syntactic determinism rule bans time.Now
// directly; the transitive upgrade follows any of these through calls.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true, "Sleep": true,
}

// scanFunc computes fi's direct summary bits and call edges in one walk of
// the body.
func (m *Module) scanFunc(fi *FuncInfo) {
	p := fi.Pass
	exempt := errorPathRanges(p, fi.Decl)
	inline := nonEscapingLits(fi.Decl)
	seen := map[*FuncInfo]bool{}
	pos := func(n ast.Node) string { return p.Fset.Position(n.Pos()).String() }

	ast.Inspect(fi.Decl, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			if !fi.Summary.Allocates {
				fi.Summary.Allocates = true
				fi.Summary.AllocWhy = "spawns a goroutine at " + pos(n)
			}
		case *ast.FuncLit:
			if !inline[n] && !fi.Summary.Allocates && !exempt.covers(n) {
				fi.Summary.Allocates = true
				fi.Summary.AllocWhy = "escaping func literal at " + pos(n)
			}
		case *ast.CallExpr:
			m.scanCall(fi, n, seen, exempt, pos)
		default:
			if !fi.Summary.Allocates && !exempt.covers(n) {
				if why, ok := allocSite(p, n); ok {
					fi.Summary.Allocates = true
					fi.Summary.AllocWhy = why + " at " + pos(n)
				}
			}
		}
		return true
	})
}

// nonEscapingLits collects the func literals of fn that reliably stay on the
// stack: literals invoked immediately and literals called directly by a
// defer in the same frame (the classic `defer func(){ ... }()` unwind hook,
// which the runtime allocation probes confirm is stack-allocated).
func nonEscapingLits(fn ast.Node) map[*ast.FuncLit]bool {
	out := map[*ast.FuncLit]bool{}
	ast.Inspect(fn, func(n ast.Node) bool {
		var call *ast.CallExpr
		switch n := n.(type) {
		case *ast.DeferStmt:
			call = n.Call
		case *ast.CallExpr:
			call = n
		default:
			return true
		}
		if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
			out[lit] = true
		}
		return true
	})
	return out
}

// scanCall classifies one call expression for scanFunc: module edge, stdlib
// taint source, atomic.Pointer touch, or allocation.
func (m *Module) scanCall(fi *FuncInfo, call *ast.CallExpr, seen map[*FuncInfo]bool, exempt ranges, pos func(ast.Node) string) {
	p := fi.Pass
	if name, ok := p.atomicPtrMethod(call); ok {
		if name == "Store" {
			fi.AtomicPtrStores = append(fi.AtomicPtrStores, call.Pos())
		} else {
			fi.AtomicPtrLoads = append(fi.AtomicPtrLoads, call.Pos())
		}
		return
	}
	fn := p.Callee(call)
	if fn == nil {
		// Dynamic call, builtin, or conversion: allocation classification
		// for the builtins/conversions happens in allocSite; dynamic calls
		// create no edge (documented engine limitation).
		if !fi.Summary.Allocates && !exempt.covers(call) {
			if why, ok := allocSite(p, call); ok {
				fi.Summary.Allocates = true
				fi.Summary.AllocWhy = why + " at " + pos(call)
			}
		}
		return
	}
	if callee := m.FuncOf(fn); callee != nil {
		if !seen[callee] {
			seen[callee] = true
			fi.Callees = append(fi.Callees, callee)
		}
		return
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return
	}
	if inModulePath(pkg.Path()) {
		// A module function outside the loaded scope (partial -rules or
		// single-directory run): unknown, not assumed-anything. The
		// whole-tree CI run resolves it for real.
		return
	}
	// Standard-library call: classify as a taint source.
	switch {
	case pkg.Path() == "time" && wallClockFuncs[fn.Name()]:
		if !fi.Summary.WallClock {
			fi.Summary.WallClock = true
			fi.Summary.WallClockWhy = fmt.Sprintf("calls time.%s at %s", fn.Name(), pos(call))
		}
	case (pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2") &&
		fn.Type().(*types.Signature).Recv() == nil && globalRandFuncs[fn.Name()]:
		if !fi.Summary.GlobalRNG {
			fi.Summary.GlobalRNG = true
			fi.Summary.GlobalRNGWhy = fmt.Sprintf("calls global-source rand.%s at %s", fn.Name(), pos(call))
		}
	}
	if !fi.Summary.Allocates && !exempt.covers(call) && !nonAllocStdlib(fn) {
		fi.Summary.Allocates = true
		fi.Summary.AllocWhy = fmt.Sprintf("calls %s (standard library, assumed allocating) at %s", stdFuncName(fn), pos(call))
	}
}

// inModulePath reports whether pkgPath belongs to this repository's module.
// The analyzers hard-code the module path throughout (they are
// repo-specific rules, not generic ones), so the engine does too.
func inModulePath(pkgPath string) bool {
	return pkgPath == "flashswl" || strings.HasPrefix(pkgPath, "flashswl/")
}

// stdFuncName renders a stdlib function for witness strings: pkg.Func or
// pkg.Type.Method.
func stdFuncName(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if tn := namedType(recv.Type()); tn != nil && tn.Pkg() != nil {
			return tn.Pkg().Name() + "." + tn.Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// nonAllocStdlib is the allowlist of standard-library calls known not to
// allocate. Everything else out-of-module is conservatively assumed
// allocating: on a //lint:hotpath that is exactly the discipline we want
// (hot paths call math, bits, and atomics — not fmt).
func nonAllocStdlib(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "math", "math/bits", "sync/atomic":
		return true
	case "sync":
		// A mutex parks on a runtime semaphore; the rest of sync (Pool,
		// Once, Cond, Map) stays assumed allocating.
		recv := fn.Type().(*types.Signature).Recv()
		return recv != nil && isNamed(recv.Type(), "sync", "Mutex") &&
			(fn.Name() == "Lock" || fn.Name() == "TryLock" || fn.Name() == "Unlock")
	case "hash/crc32":
		return fn.Name() == "ChecksumIEEE" || fn.Name() == "Checksum" || fn.Name() == "Update"
	case "encoding/binary":
		// The fixed-width ByteOrder accessors (Uint32, PutUint32, …).
		return strings.HasPrefix(fn.Name(), "Uint") || strings.HasPrefix(fn.Name(), "PutUint")
	case "errors":
		return fn.Name() == "Is" || fn.Name() == "As" || fn.Name() == "Unwrap"
	case "sort":
		return strings.HasPrefix(fn.Name(), "Search") || fn.Name() == "IntsAreSorted" ||
			fn.Name() == "Float64sAreSorted" || fn.Name() == "StringsAreSorted" || fn.Name() == "IsSorted"
	}
	return false
}

// allocBuiltins are the builtins that allocate.
var allocBuiltins = map[string]bool{"make": true, "new": true, "append": true}

// allocSite classifies one AST node as a direct allocation, returning a
// human-readable reason. It is deliberately a little lenient where Go's
// escape analysis is reliably good: value composite literals, non-escaping
// func literals (deferred or immediately invoked), and numeric conversions
// are free.
func allocSite(p *Pass, n ast.Node) (string, bool) {
	switch n := n.(type) {
	case *ast.CallExpr:
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && allocBuiltins[id.Name] {
			if obj := p.Info.Uses[id]; obj == nil || obj.Parent() == types.Universe {
				return "builtin " + id.Name, true
			}
			return "", false
		}
		// Conversions: string <-> []byte/[]rune copy; everything else free.
		if tv, ok := p.Info.Types[n.Fun]; ok && tv.IsType() && len(n.Args) == 1 {
			to := tv.Type.Underlying()
			from := p.Info.Types[n.Args[0]].Type
			if from == nil {
				return "", false
			}
			fromU := from.Underlying()
			if isString(to) && isByteOrRuneSlice(fromU) {
				return "slice-to-string conversion", true
			}
			if isByteOrRuneSlice(to) && isString(fromU) {
				return "string-to-slice conversion", true
			}
			return "", false
		}
		return "", false
	case *ast.CompositeLit:
		tv, ok := p.Info.Types[n]
		if !ok {
			return "", false
		}
		switch tv.Type.Underlying().(type) {
		case *types.Slice:
			return "slice literal", true
		case *types.Map:
			return "map literal", true
		}
		return "", false // value struct/array literal: stack
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				return "escaping composite literal (&T{...})", true
			}
		}
		return "", false
	case *ast.BinaryExpr:
		if n.Op == token.ADD {
			if tv, ok := p.Info.Types[n]; ok && isString(tv.Type.Underlying()) {
				return "string concatenation", true
			}
		}
		return "", false
	case *ast.FuncLit:
		return "", false // escape handled by the parent-aware hotalloc walk
	}
	return "", false
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// ranges is a set of source intervals; covers reports containment.
type ranges []posRange

type posRange struct{ lo, hi token.Pos }

func (rs ranges) covers(n ast.Node) bool {
	for _, r := range rs {
		if n.Pos() >= r.lo && n.End() <= r.hi {
			return true
		}
	}
	return false
}

// errorPathRanges collects the error-handling regions of fn that the
// allocation rules exempt: bodies of `if err != nil`-style guards, return
// statements that return a non-nil error, and panic arguments. The
// zero-allocation contract is about the steady-state path; building an
// *fmt.Errorf* once on the way out of a failing run is fine (and the
// runtime AllocsPerRun guards agree: they only drive healthy paths).
func errorPathRanges(p *Pass, fn *ast.FuncDecl) ranges {
	var out ranges
	if p.Info == nil {
		return out
	}
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if condTestsError(p, n.Cond) {
				out = append(out, posRange{n.Body.Pos(), n.Body.End()})
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if isErrorExpr(p, res) {
					out = append(out, posRange{n.Pos(), n.End()})
					break
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if obj := p.Info.Uses[id]; obj == nil || obj.Parent() == types.Universe {
					out = append(out, posRange{n.Pos(), n.End()})
				}
			}
		}
		return true
	})
	return out
}

// condTestsError reports whether cond contains a comparison of an
// error-typed operand against nil.
func condTestsError(p *Pass, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
			return true
		}
		if (isErrorExpr(p, be.X) && isNilExpr(be.Y)) || (isErrorExpr(p, be.Y) && isNilExpr(be.X)) {
			found = true
			return false
		}
		return true
	})
	return found
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorExpr(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	if isNilExpr(e) {
		return false
	}
	return types.AssignableTo(tv.Type, errorType) && types.IsInterface(tv.Type)
}

func isNilExpr(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// propagate runs the worklist fixed point: a caller inherits every taint bit
// any callee carries, with a witness chaining through the call.
func (m *Module) propagate() {
	callers := map[*FuncInfo][]*FuncInfo{}
	work := make([]*FuncInfo, 0, len(m.funcs))
	for _, fi := range m.funcs {
		for _, c := range fi.Callees {
			callers[c] = append(callers[c], fi)
		}
		work = append(work, fi)
	}
	queued := map[*FuncInfo]bool{}
	for _, fi := range work {
		queued[fi] = true
	}
	for len(work) > 0 {
		fi := work[len(work)-1]
		work = work[:len(work)-1]
		queued[fi] = false
		for _, caller := range callers[fi] {
			changed := false
			if fi.Summary.WallClock && !caller.Summary.WallClock {
				caller.Summary.WallClock, caller.Summary.WallClockWhy = true, chain(fi, fi.Summary.WallClockWhy)
				changed = true
			}
			if fi.Summary.GlobalRNG && !caller.Summary.GlobalRNG {
				caller.Summary.GlobalRNG, caller.Summary.GlobalRNGWhy = true, chain(fi, fi.Summary.GlobalRNGWhy)
				changed = true
			}
			if fi.Summary.Allocates && !caller.Summary.Allocates {
				caller.Summary.Allocates, caller.Summary.AllocWhy = true, chain(fi, fi.Summary.AllocWhy)
				changed = true
			}
			if changed && !queued[caller] {
				queued[caller] = true
				work = append(work, caller)
			}
		}
	}
}

// chain builds a witness string for a bit inherited through a call,
// truncating deep chains so messages stay readable.
func chain(callee *FuncInfo, calleeWhy string) string {
	const maxWhy = 160
	why := fmt.Sprintf("calls %s, which %s", funcDisplayName(callee), calleeWhy)
	if len(why) > maxWhy {
		why = why[:maxWhy-3] + "..."
	}
	return why
}

// funcDisplayName renders a module function for findings: Type.Method or
// Func, qualified with the package name when helpful.
func funcDisplayName(fi *FuncInfo) string {
	fn := fi.Obj
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if tn := namedType(recv.Type()); tn != nil {
			return tn.Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
