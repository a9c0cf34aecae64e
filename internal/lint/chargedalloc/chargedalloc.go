// Package chargedalloc enforces the PR 9 memory-governance contract in
// the engine: data-sized allocations are charged against the query's
// byte budget *before* they happen, on the coordinating goroutine, so a
// query that would blow its budget aborts with ErrBudgetExceeded instead
// of allocating first and accounting later (or never). The runtime leak
// checks prove the reservations balance; this analyzer proves new
// operator code cannot introduce an unaccounted sizing site.
//
// The mechanical rule: inside irdb/internal/engine, a `make` of a slice
// or map with a non-constant length, or a call to the pre-sized
// constructors (vector.NewSized*, relation/Relation NewSizedLike), must
// appear lexically after a budget charge (ctx.charge, ctx.chargeRel, or
// memory.Charge) within the same top-level function — or the function
// must be *caller-covered*: every call site in the package either sits
// after a charge in its own function or is itself caller-covered. The
// second clause is a fixpoint over the package call graph and is what
// lets buildBuckets charge 48 bytes/row once and have newOpenTable's
// internal allocations ride under that umbrella without annotations.
//
// Plan-time files (bind.go, optimize.go, rewrite.go, deps.go, explain.go)
// are exempt wholesale: their allocations are O(plan) — proportional to
// the query text, not the data — and the budget governs data, not parse
// trees. Remaining legitimate exceptions (O(parallelism) scratch,
// allocations sized by an earlier charge in a different function the
// call graph cannot see) carry //lint:allow chargedalloc <reason>.
package chargedalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"irdb/internal/lint/analysis"
)

// Analyzer flags uncharged data-sized allocations in engine code.
var Analyzer = &analysis.Analyzer{
	Name: "chargedalloc",
	Doc: `report engine allocations that bypass the memory budget

In irdb/internal/engine, make() with a non-constant length and the
pre-sized vector/relation constructors must be preceded by a budget
charge — in the same function, or in every caller (transitively, to a
fixpoint over the package call graph). Plan-time files are exempt;
anything else carries //lint:allow chargedalloc <reason>.`,
	Run: run,
}

// chargeMethods are the budget-charging entry points: the engine's own
// helpers by name on any receiver, and the memory package's functions.
var chargeMethods = map[string]bool{"charge": true, "chargeRel": true}
var chargePkgFuncs = map[string]bool{"Charge": true, "Grow": true, "WithReservation": true}

// planTimeFiles hold allocations proportional to the query plan, not the
// data; the memory budget does not govern them.
var planTimeFiles = map[string]bool{
	"bind.go": true, "optimize.go": true, "rewrite.go": true,
	"deps.go": true, "explain.go": true,
}

// funcInfo is the per-function summary the fixpoint runs over.
type funcInfo struct {
	decl        *ast.FuncDecl
	firstCharge token.Pos // end-of-func sentinel when the function never charges
	allocs      []allocSite
	planTime    bool
}

type allocSite struct {
	pos  token.Pos
	what string
}

// callSite records one in-package call: which function it occurs in and
// where, so coverage can ask "was the caller charged by this point?".
type callSite struct {
	caller *types.Func
	pos    token.Pos
}

func run(pass *analysis.Pass) error {
	path := pass.PkgPath()
	if !analysis.FixtureScoped(path, "chargedalloc") && path != "irdb/internal/engine" {
		return nil
	}
	infos := map[*types.Func]*funcInfo{}
	callers := map[*types.Func][]callSite{}
	for _, file := range pass.Files {
		planTime := planTimeFiles[filepath.Base(pass.Fset.Position(file.Pos()).Filename)]
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
				continue
			}
			// The charge helpers themselves allocate nothing data-sized;
			// skipping them keeps the rule from demanding self-charges.
			if chargeMethods[fd.Name.Name] {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			infos[obj] = summarize(pass, fd, obj, planTime, callers)
		}
	}
	// Caller coverage, to fixpoint: a function is covered when it has at
	// least one in-package call site and every such site is either past a
	// charge in its caller, in plan-time code, or in a covered caller.
	// Cycles and exported entry points never converge to covered, which
	// is the conservative answer.
	covered := map[*types.Func]bool{}
	for changed := true; changed; {
		changed = false
		for obj := range infos {
			if covered[obj] {
				continue
			}
			if callerCovered(obj, infos, callers, covered) {
				covered[obj] = true
				changed = true
			}
		}
	}
	for obj, info := range infos {
		if info.planTime || covered[obj] {
			continue
		}
		for _, a := range info.allocs {
			if a.pos > info.firstCharge {
				continue
			}
			pass.Reportf(a.pos, "%s is not covered by a budget charge (none precede it here, and not every call site of %s is charged); charge the footprint first (ctx.charge/ctx.chargeRel) or annotate why it is exempt", a.what, obj.Name())
		}
	}
	return nil
}

// summarize does the single lexical sweep over one function body,
// recording its first charge, its alloc sites, and the in-package calls
// it makes (keyed by callee, attributed to this function).
func summarize(pass *analysis.Pass, fd *ast.FuncDecl, obj *types.Func, planTime bool, callers map[*types.Func][]callSite) *funcInfo {
	info := &funcInfo{decl: fd, firstCharge: fd.End() + 1, planTime: planTime}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch {
		case isCharge(pass, call):
			if call.Pos() < info.firstCharge {
				info.firstCharge = call.Pos()
			}
		case isUnchargedMake(pass, call):
			info.allocs = append(info.allocs, allocSite{call.Pos(), "make with non-constant length"})
		case isSizedCtor(pass, call):
			info.allocs = append(info.allocs, allocSite{call.Pos(), "pre-sized constructor"})
		}
		if callee := calleeFunc(pass, call); callee != nil {
			callers[callee] = append(callers[callee], callSite{obj, call.Pos()})
		}
		return true
	})
	return info
}

// calleeFunc resolves a call to a same-package function or method
// declared at the top level, or nil.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() != pass.Pkg {
		return nil
	}
	return fn
}

// callerCovered evaluates the coverage condition for one function given
// the current fixpoint state.
func callerCovered(obj *types.Func, infos map[*types.Func]*funcInfo, callers map[*types.Func][]callSite, covered map[*types.Func]bool) bool {
	sites := callers[obj]
	if len(sites) == 0 {
		return false
	}
	for _, s := range sites {
		ci, ok := infos[s.caller]
		if !ok {
			return false // caller we did not summarize (e.g. skipped): unknown, assume uncharged
		}
		if ci.planTime || s.pos > ci.firstCharge || covered[s.caller] {
			continue
		}
		return false
	}
	return true
}

// isCharge reports whether call is one of the budget-charging helpers.
func isCharge(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if chargeMethods[sel.Sel.Name] {
		return true
	}
	if !chargePkgFuncs[sel.Sel.Name] {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pkgBase(pn.Imported().Path()) == "memory"
}

// isUnchargedMake reports whether call is make() of a slice or map whose
// allocation size — the capacity when given, else the length — is not a
// compile-time constant. make([]T, 0, n) allocates n slots just as
// make([]T, n) does, so both forms are under the rule.
func isUnchargedMake(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	if len(call.Args) < 2 {
		return false
	}
	switch pass.TypesInfo.TypeOf(call.Args[0]).Underlying().(type) {
	case *types.Slice, *types.Map:
	default:
		return false // channel capacities are O(1) headers, not data
	}
	size := call.Args[len(call.Args)-1]
	tv, ok := pass.TypesInfo.Types[size]
	return !ok || tv.Value == nil
}

// isSizedCtor reports whether call is one of the pre-sized constructors
// that allocate a full column or relation footprint up front.
func isSizedCtor(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	if name == "NewSizedLike" {
		return true // relation.NewSizedLike or (*Relation).NewSizedLike
	}
	if !strings.HasPrefix(name, "NewSized") {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pkgBase(pn.Imported().Path()) == "vector"
}

func pkgBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
