// Command benchmark measures the hot request as a client sees it: it
// builds cmd/irdb-server, starts it as a real process on a loopback
// port, drives it with the client package over two connections, and
// reports the end-to-end metrics and the per-layer decomposition named
// in BENCHMARK.json. One workload (facade_mix) drives the public irdb
// facade in-process instead. See README.md for the workload table and
// the layer → end-to-end map.
//
// Usage:
//
//	go run ./benchmark                          all workloads, both metric lists
//	go run ./benchmark -workload hot_search     one workload
//	go run ./benchmark -out a.json              also write the results file
//	go run ./benchmark -compare a.json b.json   gate b against a
//
// The driver contract (BENCHMARK.json "command") appends
// --workload <name> --seed <n> --seconds <s> --trace <0|1> and reads the
// last stdout line: one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// metricSpec is one entry of BENCHMARK.json's end_to_end / per_layer
// lists. BENCHMARK.json is the only registry of metric names: output is
// driven from it, so a metric the code stops computing is an error, not
// a silent omission.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metric is one measured value; N is the number of samples behind it
// (0 = the workload does not exercise that layer, value reported as 0).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is one workload's outcome: what the driver's JSON line and the
// -out file are built from.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultsFile is the stable schema -out writes and -compare reads.
type resultsFile struct {
	Seed    int64    `json:"seed"`
	Seconds float64  `json:"seconds"`
	Results []result `json:"results"`
}

// findRoot walks up from the working directory to the repository root
// (the directory holding go.mod and BENCHMARK.json): `go run ./benchmark`
// starts at the root, `go test ./benchmark` inside the package.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fileExists(filepath.Join(dir, "go.mod")) && fileExists(filepath.Join(dir, "BENCHMARK.json")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no go.mod + BENCHMARK.json above the working directory")
		}
		dir = parent
	}
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	out := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		out[i] = w.Name
	}
	return out
}

// selectMetrics projects a result onto one of the spec's metric lists,
// failing on any listed metric the run did not produce.
func selectMetrics(r *result, specs []metricSpec) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, ms := range specs {
		m, ok := r.Metrics[ms.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not produce metric %s", r.Workload, ms.Name)
		}
		if m.Unit != ms.Unit {
			return nil, fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", ms.Name, m.Unit, ms.Unit)
		}
		out[ms.Name] = m
	}
	return out, nil
}

// printRows prints `workload metric value unit n`, one row per metric,
// in BENCHMARK.json order; measuredOnly leaves out the rows with n = 0.
func printRows(r *result, specs []metricSpec, measuredOnly bool) {
	for _, ms := range specs {
		if m, ok := r.Metrics[ms.Name]; ok && (m.N > 0 || !measuredOnly) {
			fmt.Printf("%s %s %.6g %s %d\n", r.Workload, ms.Name, m.Value, m.Unit, m.N)
		}
	}
}

// driverLine is the contract's last stdout line.
func driverLine(r *result, metrics map[string]metric) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(metrics))
	for name, m := range metrics {
		ms[name] = mv{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	return string(line)
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all four)")
		seed         = flag.Int64("seed", defaultSeed, "input seed; the default seed's inputs are pinned by digest")
		seconds      = flag.Float64("seconds", 0, "measured window per workload in seconds (default: BENCHMARK.json run_seconds)")
		trace        = flag.Int("trace", 1, "1 = also make the traced run and the layer probes, 0 = the measured window only")
		outPath      = flag.String("out", "", "write the results file here (input of -compare)")
		compare      = flag.Bool("compare", false, "compare two results files: -compare base.json new.json")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace is 0 or 1")
		os.Exit(2)
	}
	if err := run(*workloadName, *seed, *seconds, *trace == 1, *outPath, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed int64, seconds float64, traced bool, outPath string, compare bool, args []string) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return errors.New("-compare wants two results files: base.json new.json")
		}
		return compareFiles(spec, args[0], args[1])
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	names := spec.workloadNames()
	if workloadName != "" {
		if !slices.Contains(names, workloadName) {
			return fmt.Errorf("unknown workload %q (have %v)", workloadName, names)
		}
		names = []string{workloadName}
	}
	file := resultsFile{Seed: seed, Seconds: seconds}
	for _, name := range names {
		r, err := runWorkload(runConfig{
			root: root, spec: spec, workload: name, seed: seed, seconds: seconds,
			scale: fullScale, traced: traced,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		// Without the traced run, the per-layer rows are the ones the
		// measured window itself yields.
		printRows(r, spec.EndToEnd, false)
		printRows(r, spec.PerLayer, !traced)
		fmt.Printf("%s attempted %d failed %d correct %v\n", name, r.Attempted, r.Failed, r.Correct)
		file.Results = append(file.Results, *r)
	}
	if outPath != "" {
		raw, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	if workloadName != "" {
		// The driver's last line carries exactly one of the two lists.
		specs := spec.EndToEnd
		if traced {
			specs = spec.PerLayer
		}
		r := &file.Results[0]
		ms, err := selectMetrics(r, specs)
		if err != nil {
			return err
		}
		fmt.Println(driverLine(r, ms))
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
