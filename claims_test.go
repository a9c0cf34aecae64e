package irdb

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
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
	"invidx.hitHeap.Less":         "container/heap calls it through heap.Interface",
	"faultpoint.Arm":              "the faultinject build's tests arm fault sites through it",
	"faultpoint.Disarm":           "the faultinject build's tests disarm fault sites through it",
	"ir.Searcher.BuildIndex":      "BenchmarkE1IndexBuild and BenchmarkE5SharedRebuild measure it (CLAIMS.md E1, E5)",
	"relation.EncodeStringCols":   "builds the dict-encoded inputs of the encoded-equals-raw suites in other packages",
	"vector.EncodeStrings":        "builds the dict-encoded inputs of the encoded-equals-raw suites in other packages",
}

// TestNoTestOnlyInternalAPI keeps code that only tests call from piling up
// under internal/: every exported function or method declared in a
// non-test file there must have its name used as an identifier in some
// non-test file of the module, unless testOnlyAllowed lists it. An
// allowlist entry that is no longer test-only fails too, so the list
// cannot go stale.
func TestNoTestOnlyInternalAPI(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	declared := map[string]string{} // key -> position
	names := map[string]string{}    // key -> function name
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg, inInternal := strings.CutPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
		decls := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			decls[fd.Name] = true
			if !inInternal || !fd.Name.IsExported() {
				continue
			}
			key := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				key = pkg + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			declared[key] = fset.Position(fd.Pos()).String()
			names[key] = fd.Name.Name
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decls[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) < 100 {
		t.Fatalf("found only %d exported internal functions; the walk is broken", len(declared))
	}
	var unused []string
	for key, name := range names {
		_, allowed := testOnlyAllowed[key]
		switch {
		case !used[name] && !allowed:
			unused = append(unused, declared[key]+": "+key)
		case used[name] && allowed:
			t.Errorf("testOnlyAllowed lists %s, which non-test code now uses; drop the entry", key)
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

// recvType returns the type name of a method receiver.
func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}
