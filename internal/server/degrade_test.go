package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"irdb/internal/catalog"
	"irdb/internal/engine"
)

// TestRecoveryMiddleware: a panic escaping a handler is answered as a
// 500, counted, and the process keeps serving.
func TestRecoveryMiddleware(t *testing.T) {
	srv := New(engine.NewCtx(catalog.New(0)), nil)
	h := srv.withRecovery(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler boom")
	}))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/search", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	if got := srv.handlerPanics.Load(); got != 1 {
		t.Errorf("handlerPanics = %d, want 1", got)
	}
	// Healthy requests keep flowing through the same middleware.
	rr = httptest.NewRecorder()
	ok := srv.withRecovery(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	ok.ServeHTTP(rr, httptest.NewRequest("GET", "/search", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("status after recovered panic = %d, want 200", rr.Code)
	}
}

// TestAdmissionWaitSheds: with the only slot occupied and a small
// admission wait, a queued request is shed fast with 503 + Retry-After
// instead of queueing without bound, and the shed is counted in /stats.
func TestAdmissionWaitSheds(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.SetMaxInFlight(1)
	srv.SetAdmissionWait(5 * time.Millisecond)
	_, release, err := srv.gate.Enter(context.Background())
	if err != nil {
		t.Fatalf("initial Enter = %v", err)
	}
	defer release()

	resp, err := http.Get(ts.URL + "/search?strategy=auction-lots&q=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("shed response has no Retry-After header")
	}

	var stats struct {
		Faults struct {
			Shed int64 `json:"shed_requests"`
		} `json:"faults"`
		Admission struct {
			QueuedTotal int64 `json:"queued_total"`
		} `json:"admission"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats status = %d", code)
	}
	if stats.Faults.Shed < 1 {
		t.Errorf("shed_requests = %d, want >= 1", stats.Faults.Shed)
	}
	if stats.Admission.QueuedTotal < 1 {
		t.Errorf("queued_total = %d, want >= 1", stats.Admission.QueuedTotal)
	}
}

// TestShutdownDrains: Shutdown waits for in-flight requests (or its
// context), then new requests are shed with 503 while /stats keeps
// answering.
func TestShutdownDrains(t *testing.T) {
	srv, ts := newTestServer(t)
	_, release, err := srv.gate.Enter(context.Background())
	if err != nil {
		t.Fatalf("Enter = %v", err)
	}

	// With a request in flight, a bounded Shutdown times out.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown with busy server = %v, want DeadlineExceeded", err)
	}

	// Once the request finishes the drain completes.
	release()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown after release = %v", err)
	}

	// New work is refused as shutting down; observability stays up.
	resp, err := http.Get(ts.URL + "/search?strategy=auction-lots&q=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("search during drain: status = %d, want 503", resp.StatusCode)
	}
	var stats struct {
		Admission struct {
			Draining bool `json:"draining"`
		} `json:"admission"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats during drain: status = %d", code)
	}
	if !stats.Admission.Draining {
		t.Error("/stats does not report draining")
	}
}
