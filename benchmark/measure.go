package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// The statistics live here, under BENCHMARK.json's paths, on purpose: a
// change that claims a gain may not edit the benchmark, so nothing that
// turns samples into reported numbers may sit where such a change can
// reach it.

// samples is a set of latency samples in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// quantile returns the q-quantile with linear interpolation between the
// two nearest ranks (0 for an empty set).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func (s samples) max() float64 {
	var m float64
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

// scaled returns the samples multiplied by f (ms → µs, ms → ns).
func (s samples) scaled(f float64) samples {
	out := make(samples, len(s))
	for i, v := range s {
		out[i] = v * f
	}
	return out
}

// runConfig is one workload run.
type runConfig struct {
	root     string
	spec     *benchSpec
	workload string
	seed     int64
	seconds  float64
	// scale divides every dataset size; 1 is the benchmark, smokeScale
	// the tier-1 smoke test.
	scale int
	// traced adds the traced run and the per-layer probes after the
	// measured window.
	traced bool
}

const (
	defaultSeed = 42
	fullScale   = 1
	smokeScale  = 20
	// setupRepeats rounds per run, each a complete set-up and a third of
	// the window: setup_s is a one-shot cost, so a single reading per run
	// would be the noisiest metric by far.
	setupRepeats = 3
	// clients is the closed-loop client count: one connection and one
	// goroutine each (the sandbox has 2 CPUs; the server keeps its
	// default GOMAXPROCS and -parallelism).
	clients = 2
)

// recorder collects one workload's metrics and operation counts. The
// load goroutines report failures through it, so it locks.
type recorder struct {
	mu        sync.Mutex
	metrics   map[string]metric
	attempted int64
	failed    int64
	failures  []string // first few failure messages, for the operator
}

func newRecorder() *recorder { return &recorder{metrics: map[string]metric{}} }

func (r *recorder) set(name string, value float64, unit string, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metric{Value: value, Unit: unit, N: n}
}

// setP50 records a sample set's median; an empty set (the workload has
// no such operation) is left unrecorded.
func (r *recorder) setP50(name string, s samples, unit string) {
	if len(s) > 0 {
		r.set(name, s.quantile(0.5), unit, len(s))
	}
}

// op counts one attempted operation; a non-nil err makes it a failed one.
func (r *recorder) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// check counts one correctness check as an operation.
func (r *recorder) check(ok bool, format string, args ...any) {
	if ok {
		r.op(nil)
		return
	}
	r.op(fmt.Errorf("correctness: "+format, args...))
}

// result closes the run. A per-layer metric the workload never recorded
// belongs to a layer it does not exercise (the WAL under hot_search, the
// HTTP server under facade_mix): it is reported as 0 with n = 0, because
// the driver wants every per-layer metric from every workload.
func (r *recorder) result(workload string, perLayer []metricSpec) *result {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ms := range perLayer {
		if _, ok := r.metrics[ms.Name]; !ok {
			r.metrics[ms.Name] = metric{Unit: ms.Unit}
		}
	}
	for _, f := range r.failures {
		fmt.Printf("%s FAILED %s\n", workload, f)
	}
	return &result{
		Workload: workload, Correct: r.failed == 0,
		Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics,
	}
}

func median(vs []float64) float64 { return samples(vs).quantile(0.5) }

// roundSeries holds every end-to-end metric's value in each round; a run
// reports the median over its rounds. The rounds' samples are not pooled:
// on this shared box a neighbour slows a stretch of seconds at a time by
// 20-30 %, which typically covers one round of a run. Pooled, that
// round's samples fill the upper tail and move p90 by as much; the median
// of three per-round values ignores the round altogether.
type roundSeries struct {
	values map[string][]float64
	n      map[string]int // samples behind the values, summed over rounds
}

func newRoundSeries() *roundSeries {
	return &roundSeries{values: map[string][]float64{}, n: map[string]int{}}
}

func (s *roundSeries) add(name string, value float64, n int) {
	s.values[name] = append(s.values[name], value)
	s.n[name] += n
}

// addLatencies adds one round's latency and throughput readings: the
// headline kind's search_* metrics and the median of every other kind the
// round sent.
func (s *roundSeries) addLatencies(byKind *[numKinds]samples, headline opKind, elapsedSeconds float64) {
	search := byKind[headline]
	s.add("search_ms_p50", search.quantile(0.50), len(search))
	s.add("search_ms_p90", search.quantile(0.90), len(search))
	s.add("search_ms_p95", search.quantile(0.95), len(search))
	s.add("search_qps", float64(len(search))/elapsedSeconds, len(search))
	for kind, name := range kindP50 {
		if len(byKind[kind]) > 0 {
			s.add(name, byKind[kind].quantile(0.5), len(byKind[kind]))
		}
	}
}

// report records each listed metric's median over the rounds.
func (s *roundSeries) report(rec *recorder, specs []metricSpec) {
	for _, ms := range specs {
		if vs, ok := s.values[ms.Name]; ok {
			rec.set(ms.Name, median(vs), ms.Unit, s.n[ms.Name])
		}
	}
}

// runWorkload dispatches one workload.
func runWorkload(cfg runConfig) (*result, error) {
	rec := newRecorder()
	var err error
	switch cfg.workload {
	case "hot_search", "evict_search", "ingest_search":
		err = runHTTPWorkload(cfg, rec)
	case "facade_mix":
		err = runFacadeMix(cfg, rec)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	return rec.result(cfg.workload, cfg.spec.PerLayer), nil
}
