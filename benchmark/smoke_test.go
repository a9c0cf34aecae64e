package main

import (
	"strings"
	"testing"
)

// applies says which workloads must measure each per-layer metric (n > 0):
// H hot_search, E evict_search, I ingest_search, F facade_mix. Elsewhere
// the metric is reported as 0 with n = 0. A metric in BENCHMARK.json but
// not here, or the reverse, fails the test: the three lists (the code,
// BENCHMARK.json, this table) cannot drift apart unnoticed.
var applies = map[string]string{
	"search_ms_p90":                        "HEIF",
	"search_ms_p95":                        "HEIF",
	"stream_ms_p50":                        "H",
	"append_ms_p50":                        "I",
	"fresh_search_ms_p50":                  "I",
	"searchdocs_ms_p50":                    "F",
	"searchdocs_ms_p95":                    "F",
	"prepared_ms_p50":                      "F",
	"adhoc_ms_p50":                         "F",
	"ops_per_s":                            "F",
	"client.overhead_ms_p50":               "HEI",
	"client.search_ms_p99":                 "HEIF",
	"client.search_ms_max":                 "HEIF",
	"client.retries":                       "HEI",
	"client.writer_late_ms_p50":            "I",
	"server.reported_ms_p50":               "HEI",
	"server.handler_us_p50":                "HEI",
	"server.self_us_p50":                   "HEI",
	"server.stream_self_us_p50":            "H",
	"server.append_self_us_p50":            "I",
	"server.queued_total":                  "HEIF",
	"server.queue_wait_ms":                 "HEIF",
	"server.shed_total":                    "HEIF",
	"strategy.compile_us_p50":              "HEI",
	"engine.optimize_us_p50":               "HEIF",
	"engine.fingerprint_us_p50":            "HEIF",
	"engine.groups_costed_per_query":       "HEIF",
	"engine.plan_share_pct":                "HEIF",
	"engine.exec_hot_us_p50":               "HEIF",
	"engine.node_execs_per_query":          "HEIF",
	"engine.cache_hits_per_query":          "HEIF",
	"engine.exec_cold_ms_p50":              "HEI",
	"engine.bind_us_p50":                   "F",
	"spinql.parse_us_p50":                  "F",
	"spinql.compile_us_p50":                "F",
	"ir.scoreplan_us_p50":                  "F",
	"ir.search_us_p50":                     "F",
	"ir.index_build_ms":                    "F",
	"irdb.search_us_p50":                   "HEI",
	"catalog.cache_hit_ratio":              "HEIF",
	"catalog.cache_evictions":              "HEIF",
	"catalog.cache_oversize":               "HEIF",
	"catalog.cache_shared":                 "HEIF",
	"catalog.cache_bytes":                  "HEIF",
	"catalog.cache_aux_bytes":              "HEIF",
	"catalog.cache_get_ns_p50":             "HEI",
	"catalog.dep_invalidations_per_append": "I",
	"catalog.stale_drops":                  "HEIF",
	"ingest.apply_ms_p50":                  "I",
	"ingest.durable_ms_p50":                "I",
	"ingest.segments":                      "I",
	"wal.append_always_us_p50":             "I",
	"wal.append_off_us_p50":                "I",
	"wal.fsync_us_p50":                     "I",
	"wal.fsyncs_per_append":                "I",
	"wal.bytes_per_user_byte":              "I",
	"wal.replay_ms":                        "I",
	"triple.load_ms":                       "HEI",
	"memory.charge_overhead_pct":           "HI",
	"memory.cold_query_peak_bytes":         "HEI",
	"process.cpu_ms_per_query":             "HEIF",
	"process.rss_window_peak_mb":           "HEIF",
	"trace.unaccounted_pct":                "HEIF",
}

var workloadLetter = map[string]string{
	"hot_search": "H", "evict_search": "E", "ingest_search": "I", "facade_mix": "F",
}

// TestSmoke runs all four workloads end to end at 1/20 size with a one
// second window: set-up repeats, real server processes, the crash and
// recovery, every correctness check and the traced run. Only the length
// of the window differs from the benchmark.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts irdb-server three times; skipped under -short")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(applies) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the applies table %d", len(spec.PerLayer), len(applies))
	}
	for key := range workloadBounds {
		w, name, _ := strings.Cut(key, "/")
		if !strings.Contains(applies[name], workloadLetter[w]) || workloadLetter[w] == "" {
			t.Errorf("-compare bounds %s, which that workload does not measure", key)
		}
	}
	for _, w := range spec.workloadNames() {
		t.Run(w, func(t *testing.T) { smokeWorkload(t, root, spec, w) })
	}
}

func smokeWorkload(t *testing.T, root string, spec *benchSpec, w string) {
	r, err := runWorkload(runConfig{
		root: root, spec: spec, workload: w, seed: defaultSeed, seconds: 1,
		scale: smokeScale, traced: true,
	})
	if err != nil {
		t.Fatalf("%s: %v", w, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", w, r.Correct, r.Attempted, r.Failed)
	}
	e2e, err := selectMetrics(r, spec.EndToEnd)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range e2e {
		if m.N < 1 || m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v (n=%d); every workload must measure it", w, name, m.Value, m.N)
		}
	}
	layers, err := selectMetrics(r, spec.PerLayer)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(r.Metrics), len(e2e)+len(layers); got != want {
		t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d", w, got, want)
	}
	for name, m := range layers {
		on, known := applies[name]
		if !known {
			t.Errorf("per-layer metric %s is not in the applies table", name)
			continue
		}
		if measured, want := m.N > 0, strings.Contains(on, workloadLetter[w]); measured != want {
			t.Errorf("%s: per-layer metric %s measured=%v (n=%d), want measured=%v", w, name, measured, m.N, want)
		}
	}
}
