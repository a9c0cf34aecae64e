package irdb

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
