package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// workloadBounds are the regression bounds of the client-seen metrics
// that BENCHMARK.json cannot bound: the driver wants every end_to_end
// metric from every workload, none may read 0, and one bound serves all
// four, so a metric that only some workloads have (a stream on hot_search,
// the first read after an append on ingest_search, the SpinQL entry points
// on facade_mix), or that repeats on only some (the tail), is listed under
// per_layer there. -compare gates them all the same, per workload:
// medians 0.15, tails and throughput 0.20. ingest_search's tail and
// append_ms_p50 are not here: they repeat within no bound (README, Bounds).
var workloadBounds = map[string]float64{
	"hot_search/search_ms_p90":          0.20,
	"hot_search/stream_ms_p50":          0.15,
	"evict_search/search_ms_p90":        0.20,
	"ingest_search/fresh_search_ms_p50": 0.15,
	"facade_mix/search_ms_p90":          0.20,
	"facade_mix/searchdocs_ms_p95":      0.20,
	"facade_mix/prepared_ms_p50":        0.15,
	"facade_mix/adhoc_ms_p50":           0.15,
	"facade_mix/ops_per_s":              0.20,
}

func readResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *resultsFile) workloads() []string {
	names := make([]string, len(f.Results))
	for i, r := range f.Results {
		names[i] = r.Workload
	}
	slices.Sort(names)
	return names
}

// worsening is how much worse b is than a as a share of a, in the
// metric's own direction (negative = better).
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles gates newPath against basePath. The two must be runs of
// the same workloads on the same seed and window. Every end-to-end metric
// of every workload may worsen by at most its BENCHMARK.json bound, the
// workloadBounds metrics by theirs, and no workload's failed share may
// rise. The other per-layer metrics have no bound; their change is
// printed for the reader.
func compareFiles(spec *benchSpec, basePath, newPath string) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	cur, err := readResults(newPath)
	if err != nil {
		return err
	}
	if base.Seed != cur.Seed || base.Seconds != cur.Seconds {
		return fmt.Errorf("not comparable: %s is seed %d, %g s; %s is seed %d, %g s",
			basePath, base.Seed, base.Seconds, newPath, cur.Seed, cur.Seconds)
	}
	if b, n := base.workloads(), cur.workloads(); !slices.Equal(b, n) {
		return fmt.Errorf("not comparable: %s ran %v, %s ran %v", basePath, b, newPath, n)
	}
	baseBy := map[string]result{}
	for _, r := range base.Results {
		baseBy[r.Workload] = r
	}
	breaches := 0
	fmt.Println("workload metric base new change bound verdict")
	for _, r := range cur.Results {
		b := baseBy[r.Workload]
		gate := func(ms metricSpec, bound float64) {
			bm, ok1 := b.Metrics[ms.Name]
			nm, ok2 := r.Metrics[ms.Name]
			if !ok1 || !ok2 || (bm.N > 0) != (nm.N > 0) {
				fmt.Printf("%s %s - - - %.2f MISSING\n", r.Workload, ms.Name, bound)
				breaches++
				return
			}
			w := worsening(ms.Better, bm.Value, nm.Value)
			verdict := "ok"
			if w > bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("%s %s %.6g %.6g %+.1f%% %.2f %s\n", r.Workload, ms.Name, bm.Value, nm.Value, 100*w, bound, verdict)
		}
		for _, ms := range spec.EndToEnd {
			gate(ms, ms.Bound)
		}
		var layers []metricSpec
		for _, ms := range spec.PerLayer {
			bound, gated := workloadBounds[r.Workload+"/"+ms.Name]
			switch {
			case b.Metrics[ms.Name].N == 0 && r.Metrics[ms.Name].N == 0:
				// The workload does not exercise it.
			case gated:
				gate(ms, bound)
			default:
				layers = append(layers, ms)
			}
		}
		baseShare := float64(b.Failed) / float64(max(b.Attempted, 1))
		newShare := float64(r.Failed) / float64(max(r.Attempted, 1))
		verdict := "ok"
		if newShare > baseShare {
			verdict = "BREACH"
			breaches++
		}
		fmt.Printf("%s failed_share %.6g %.6g - - %s\n", r.Workload, baseShare, newShare, verdict)
		for _, ms := range layers {
			bm, nm := b.Metrics[ms.Name], r.Metrics[ms.Name]
			fmt.Printf("%s %s %.6g %.6g %+.1f%% - layer\n", r.Workload, ms.Name, bm.Value, nm.Value, 100*worsening(ms.Better, bm.Value, nm.Value))
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d end-to-end metrics worse than their bound (or a higher failed share)", breaches)
	}
	return nil
}
