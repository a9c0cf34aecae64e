package irdb

import (
	"encoding/json"
	"go/ast"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"irdb/internal/lint/load"
)

// TestClaimsLedgerNamesExist keeps CLAIMS.md from going stale silently.
// Every Test or Benchmark function it cites must exist, every -run or
// -bench pattern in its commands must select at least one function, and
// every workload and metric name it quotes must be in BENCHMARK.json.
func TestClaimsLedgerNamesExist(t *testing.T) {
	ledger, err := os.ReadFile("CLAIMS.md")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name string }
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err = json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	workloads, metrics := map[string]bool{}, map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		metrics[m.Name] = true
	}
	funcs := testFuncs(t)

	var (
		span     = regexp.MustCompile("`([^`]+)`")
		funcName = regexp.MustCompile(`^(Test|Benchmark)\w+$`)
		metric   = regexp.MustCompile(`^[a-z][a-z0-9_.]*_[a-z0-9_.]*( [a-z][a-z0-9_.]*)?$`)
		pattern  = regexp.MustCompile(`-(run|bench) '([^']*)'`)
		workload = regexp.MustCompile(`-workload (\w+)`)
	)
	checked := 0
	for _, m := range span.FindAllStringSubmatch(string(ledger), -1) {
		s := strings.ReplaceAll(m[1], `\|`, "|") // pipes escaped inside table cells
		switch {
		case strings.HasPrefix(s, "go test"):
			for _, p := range pattern.FindAllStringSubmatch(s, -1) {
				if p[2] == "^$" {
					continue
				}
				prefix := map[string]string{"run": "Test", "bench": "Benchmark"}[p[1]]
				if !selects(p[2], prefix, funcs) {
					t.Errorf("CLAIMS.md: -%s '%s' selects no %s function", p[1], p[2], prefix)
				}
				checked++
			}
		case strings.HasPrefix(s, "go run ./benchmark"):
			if w := workload.FindStringSubmatch(s); w != nil {
				if !workloads[w[1]] {
					t.Errorf("CLAIMS.md: %q names no BENCHMARK.json workload", s)
				}
				checked++
			}
		case funcName.MatchString(s):
			if !funcs[s] {
				t.Errorf("CLAIMS.md cites %s, which no _test.go file declares", s)
			}
			checked++
		case metric.MatchString(s):
			for _, name := range strings.Fields(s) {
				if !workloads[name] && !metrics[name] {
					t.Errorf("CLAIMS.md cites %q, which is neither a workload nor a metric of BENCHMARK.json", name)
				}
				checked++
			}
		}
	}
	// A floor on what was checked, so that a ledger the patterns above no
	// longer recognize fails instead of passing empty.
	if checked < 20 {
		t.Errorf("checked only %d names in CLAIMS.md", checked)
	}
}

// selects reports whether a go test -run/-bench pattern matches a
// function whose name starts with prefix.
func selects(pattern, prefix string, funcs map[string]bool) bool {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return false
	}
	for f := range funcs {
		if strings.HasPrefix(f, prefix) && re.MatchString(f) {
			return true
		}
	}
	return false
}

// testFuncs returns the Test and Benchmark functions declared in the
// module's _test.go files.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)\w+)\(`)
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, walkErr error) error {
		if walkErr != nil {
			return walkErr
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// testOnlyAllowed names the exported internal functions that no non-test
// file calls and that stay anyway, keyed "pkg.Func" or "pkg.Type.Method"
// (pkg is the directory under internal/), each with its reason.
var testOnlyAllowed = map[string]string{
	"catalog.CorruptError.Unwrap": "errors.Is calls it through the error-unwrap interface",
	"memory.BudgetError.Unwrap":   "errors.Is calls it through the error-unwrap interface",
	"wal.CorruptError.Unwrap":     "errors.Is calls it through the error-unwrap interface",
	"faultpoint.Arm":              "the faultinject build's tests arm fault sites through it",
	"faultpoint.Disarm":           "the faultinject build's tests disarm fault sites through it",
	"faultpoint.Hits":             "the faultinject build's tests count fault-site hits through it",
	"faultpoint.Reset":            "the faultinject build's tests disarm every fault site through it",
	"invidx.Build":                "the inverted-index baseline of BenchmarkE6InvertedIndexHot and TestMatchesRelationalPipeline (CLAIMS.md E6)",
	"invidx.Index.Search":         "the inverted-index baseline of BenchmarkE6InvertedIndexHot and TestMatchesRelationalPipeline (CLAIMS.md E6)",
	"ir.Searcher.BuildIndex":      "BenchmarkE1IndexBuild and BenchmarkE5SharedRebuild measure it (CLAIMS.md E1, E5)",
	"lint/analysistest.Run":       "the analyzers' test harness: each analyzer's tests run it over their testdata",
	"relation.EncodeStringCols":   "builds the dict-encoded inputs of the encoded-equals-raw suites in other packages",
}

// TestNoTestOnlyInternalAPI keeps code that only tests call from piling up
// under internal/: every exported function or method declared in a
// non-test file there must be used by some non-test file of the module,
// unless it implements an interface method or testOnlyAllowed lists it.
// Uses are resolved with go/types and keyed by package, receiver and
// name, so two functions of one name cannot hide each other. A call in a
// type-switch clause on the function's own result type is not a use: it
// only runs when a value of that type already exists, so it rebuilds one
// (as engine.rebuild does) and never creates the first. Both builds
// are checked: the default one and the faultinject one. An allowlist
// entry that is no longer test-only fails too, so the list cannot go
// stale.
func TestNoTestOnlyInternalAPI(t *testing.T) {
	declared := map[string]string{} // key -> position
	used := map[string]bool{}
	implements := map[string]bool{}
	for _, tags := range []string{"", "faultinject"} {
		pkgs, err := load.Load([]string{"irdb/..."}, tags)
		if err != nil {
			t.Fatal(err)
		}
		ifaces := namedInterfaces(pkgs)
		for _, pkg := range pkgs {
			for id, obj := range pkg.Info.Defs {
				fn, ok := obj.(*types.Func)
				if !ok || !id.IsExported() || isInterfaceMethod(fn) {
					continue
				}
				key, ok := internalKey(fn)
				if !ok {
					continue
				}
				declared[key] = pkg.Fset.Position(id.Pos()).String()
				if implementsAny(fn, ifaces) {
					implements[key] = true
				}
			}
			rebuilds := selfTypeSwitchCalls(pkg)
			for id, obj := range pkg.Info.Uses {
				if rebuilds[id] {
					continue
				}
				if fn, ok := obj.(*types.Func); ok {
					if key, ok := internalKey(fn); ok {
						used[key] = true
					}
				}
			}
		}
	}
	if len(declared) < 100 {
		t.Fatalf("found only %d exported internal functions; the load is broken", len(declared))
	}
	var unused []string
	for key, pos := range declared {
		_, allowed := testOnlyAllowed[key]
		switch {
		case !used[key] && !implements[key] && !allowed:
			unused = append(unused, pos+": "+key)
		case used[key] && allowed:
			t.Errorf("testOnlyAllowed lists %s, which non-test code now uses; drop the entry", key)
		case implements[key] && allowed:
			t.Errorf("testOnlyAllowed lists %s, which implements an interface method; drop the entry", key)
		}
	}
	for key := range testOnlyAllowed {
		if _, ok := declared[key]; !ok {
			t.Errorf("testOnlyAllowed lists %s, which is not declared under internal/", key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is called only by tests: delete it, or move it into a _test.go file", u)
	}
}

// selfTypeSwitchCalls returns the callee identifiers of the calls in a
// type-switch clause whose function returns, first, one of that clause's
// case types: `case *X: return NewX(…)`.
func selfTypeSwitchCalls(pkg *load.Package) map[*ast.Ident]bool {
	out := map[*ast.Ident]bool{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSwitchStmt)
			if !ok {
				return true
			}
			for _, st := range ts.Body.List {
				cc := st.(*ast.CaseClause)
				var caseTypes []types.Type
				for _, e := range cc.List {
					if tv, ok := pkg.Info.Types[e]; ok && tv.IsType() {
						caseTypes = append(caseTypes, tv.Type)
					}
				}
				for _, body := range cc.Body {
					ast.Inspect(body, func(n ast.Node) bool {
						call, ok := n.(*ast.CallExpr)
						if !ok {
							return true
						}
						var id *ast.Ident
						switch fun := call.Fun.(type) {
						case *ast.Ident:
							id = fun
						case *ast.SelectorExpr:
							id = fun.Sel
						default:
							return true
						}
						fn, ok := pkg.Info.Uses[id].(*types.Func)
						if !ok {
							return true
						}
						res := fn.Type().(*types.Signature).Results()
						for _, ct := range caseTypes {
							if res.Len() > 0 && types.Identical(res.At(0).Type(), ct) {
								out[id] = true
							}
						}
						return true
					})
				}
			}
			return true
		})
	}
	return out
}

// internalKey keys a function declared under internal/ as "pkg.Func" or
// "pkg.Type.Method", pkg being its directory under internal/.
func internalKey(fn *types.Func) (string, bool) {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return "", false
	}
	pkg, ok := strings.CutPrefix(fn.Pkg().Path(), "irdb/internal/")
	if !ok {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return pkg + "." + fn.Name(), true
	}
	named, ok := baseNamed(recv.Type())
	if !ok {
		return "", false
	}
	return pkg + "." + named.Obj().Name() + "." + fn.Name(), true
}

// baseNamed returns the named type of a method receiver, through a
// pointer.
func baseNamed(t types.Type) (*types.Named, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return n, ok
}

// isInterfaceMethod reports whether fn is an interface's (abstract)
// method rather than a concrete function or method.
func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// namedInterfaces returns error and every named interface type declared
// in the loaded packages or in a package they import.
func namedInterfaces(pkgs []*load.Package) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}
	return ifaces
}

// implementsAny reports whether the method fn's receiver type implements
// one of ifaces that has a method of fn's name: a method called through
// an interface, by this module or by the standard library.
func implementsAny(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named, ok := baseNamed(recv.Type())
	if !ok {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() &&
				(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
				return true
			}
		}
	}
	return false
}
