package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"irdb/internal/strategy"
	"irdb/internal/workload"
)

// TestBackpressureSemaphore holds the single admission slot, verifies an
// incoming request queues (visible as queue depth) instead of executing,
// then releases the slot and checks the request completes. A concurrent
// hammer afterwards checks queued requests are never rejected.
func TestBackpressureSemaphore(t *testing.T) {
	srv, ts := newTestServerParallel(t, 2)
	srv.SetMaxInFlight(1)
	v := workload.NewVocabulary(500, 7)
	searchURL := func(c int) string {
		q := v.Word(c*37%500) + " " + v.Word(c*11%500)
		return fmt.Sprintf("%s/search?strategy=auction-lots&q=%s&k=5", ts.URL, url.QueryEscape(q))
	}

	_, release, err := srv.gate.Enter(context.Background()) // occupy the only slot
	if err != nil {
		t.Fatal(err)
	}
	codes := make(chan int, 1)
	go func() {
		resp, err := http.Get(searchURL(0))
		if err != nil {
			codes <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		codes <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.gate.Stats().QueueDepth == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := srv.gate.Stats().QueueDepth; got != 1 {
		t.Fatalf("queue_depth = %d while slot held, want 1", got)
	}
	select {
	case code := <-codes:
		t.Fatalf("request completed (status %d) while the admission slot was held", code)
	default:
	}
	// A caller whose context dies while queued must not be admitted.
	cctx, cancel := context.WithCancel(context.Background())
	admitted := make(chan error, 1)
	go func() {
		_, _, err := srv.gate.Enter(cctx)
		admitted <- err
	}()
	for srv.gate.Stats().QueueDepth != 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-admitted; !errors.Is(err, context.Canceled) {
		t.Fatalf("Enter = %v for a request whose context was cancelled while queued, want context.Canceled", err)
	}

	release()
	if code := <-codes; code != http.StatusOK {
		t.Fatalf("queued request finished with status %d, want 200", code)
	}
	if srv.gate.Stats().QueuedTotal == 0 {
		t.Error("queued_total = 0 after a request demonstrably queued")
	}

	// Hammer: more clients than slots; everyone must still get a 200.
	const clients = 8
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := http.Get(searchURL(c))
			if err != nil {
				errc <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("client %d: status %d", c, resp.StatusCode)
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	var stats struct {
		Admission struct {
			MaxInFlight int   `json:"max_in_flight"`
			InFlight    int   `json:"in_flight"`
			QueueDepth  int64 `json:"queue_depth"`
			QueuedTotal int64 `json:"queued_total"`
		} `json:"admission"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != 200 {
		t.Fatalf("stats status = %d", code)
	}
	if stats.Admission.MaxInFlight != 1 {
		t.Errorf("max_in_flight = %d, want 1", stats.Admission.MaxInFlight)
	}
	if stats.Admission.InFlight != 0 || stats.Admission.QueueDepth != 0 {
		t.Errorf("idle server reports in_flight=%d queue_depth=%d, want 0, 0",
			stats.Admission.InFlight, stats.Admission.QueueDepth)
	}
	if stats.Admission.QueuedTotal == 0 {
		t.Error("queued_total = 0 in /stats after observed queueing")
	}
}

// TestStrategyInstallGatedByAdmission: POST /strategies shares the
// admission semaphore with /search — while the only slot is held the
// install queues (visible as queue depth) instead of executing, and /stats
// stays exempt so the queue remains observable. The install completes once
// the slot frees.
func TestStrategyInstallGatedByAdmission(t *testing.T) {
	srv, ts := newTestServerParallel(t, 2)
	srv.SetMaxInFlight(1)
	body, err := strategyJSON()
	if err != nil {
		t.Fatal(err)
	}

	_, release, err := srv.gate.Enter(context.Background()) // occupy the only slot
	if err != nil {
		t.Fatal(err)
	}
	codes := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/strategies", "application/json", strings.NewReader(body))
		if err != nil {
			codes <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		codes <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for srv.gate.Stats().QueueDepth == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := srv.gate.Stats().QueueDepth; got != 1 {
		t.Fatalf("queue_depth = %d while slot held, want 1 (install bypassed admission?)", got)
	}
	select {
	case code := <-codes:
		t.Fatalf("install completed (status %d) while the admission slot was held", code)
	default:
	}
	// /stats must answer while the pool is saturated.
	var stats struct {
		Admission struct {
			QueueDepth int64 `json:"queue_depth"`
		} `json:"admission"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != 200 {
		t.Fatalf("stats status = %d under saturation", code)
	}
	if stats.Admission.QueueDepth != 1 {
		t.Errorf("stats queue_depth = %d, want 1", stats.Admission.QueueDepth)
	}

	release()
	if code := <-codes; code != http.StatusCreated {
		t.Fatalf("queued install finished with status %d, want 201", code)
	}
	names := srv.StrategyNames()
	found := false
	for _, n := range names {
		if n == strategy.Production().Name {
			found = true
		}
	}
	if !found {
		t.Errorf("installed strategies = %v, want %q present", names, strategy.Production().Name)
	}
}

func strategyJSON() (string, error) {
	b, err := json.Marshal(strategy.Production())
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// TestStatsReportsCacheBytes: byte-weighted cache accounting must surface
// through /stats once a query has materialized something.
func TestStatsReportsCacheBytes(t *testing.T) {
	_, ts := newTestServer(t)
	v := workload.NewVocabulary(500, 7)
	u := fmt.Sprintf("%s/search?strategy=auction-lots&q=%s&k=5", ts.URL, url.QueryEscape(v.Word(3)))
	if code := getJSON(t, u, nil); code != 200 {
		t.Fatalf("search status = %d", code)
	}
	var stats struct {
		Cache struct {
			Entries int   `json:"Entries"`
			Bytes   int64 `json:"Bytes"`
		} `json:"cache"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != 200 {
		t.Fatalf("stats status = %d", code)
	}
	if stats.Cache.Entries > 0 && stats.Cache.Bytes <= 0 {
		t.Errorf("cache holds %d entries but reports %d bytes", stats.Cache.Entries, stats.Cache.Bytes)
	}
}
