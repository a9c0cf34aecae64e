package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"irdb/internal/workload"
)

// readFrames parses an ndjson stream body into its typed frames,
// returning the schema frame, the concatenated results, and the
// terminal frame kind ("end", "error", or "" when truncated).
func readFrames(t *testing.T, body *bufio.Scanner) (schemaFrame, []SearchResult, string) {
	t.Helper()
	var schema schemaFrame
	var results []SearchResult
	terminal := ""
	for body.Scan() {
		line := body.Bytes()
		var kind struct {
			Frame string `json:"frame"`
		}
		if err := json.Unmarshal(line, &kind); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		if terminal != "" {
			t.Fatalf("frame %q after terminal %q frame", kind.Frame, terminal)
		}
		switch kind.Frame {
		case "schema":
			if err := json.Unmarshal(line, &schema); err != nil {
				t.Fatal(err)
			}
		case "rows":
			var rf rowsFrame
			if err := json.Unmarshal(line, &rf); err != nil {
				t.Fatal(err)
			}
			results = append(results, rf.Results...)
		case "end", "error":
			terminal = kind.Frame
		default:
			t.Fatalf("unknown frame kind %q", kind.Frame)
		}
	}
	return schema, results, terminal
}

// TestStreamedSearchEquivalence: the streamed response carries exactly
// the rows of the materialized response, in order, and terminates with
// an end frame.
func TestStreamedSearchEquivalence(t *testing.T) {
	_, ts := newTestServer(t)
	v := workload.NewVocabulary(500, 7)
	q := v.Word(10) + " " + v.Word(20)

	var plain SearchResponse
	if code := getJSON(t, fmt.Sprintf("%s/search?strategy=auction-lots&q=%s&k=500", ts.URL, url.QueryEscape(q)), &plain); code != http.StatusOK {
		t.Fatalf("materialized status = %d", code)
	}
	if len(plain.Results) == 0 {
		t.Fatal("materialized search returned nothing; equivalence is vacuous")
	}

	resp, err := http.Get(fmt.Sprintf("%s/search?strategy=auction-lots&q=%s&k=500&stream=1", ts.URL, url.QueryEscape(q)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	schema, results, terminal := readFrames(t, bufio.NewScanner(resp.Body))
	if terminal != "end" {
		t.Fatalf("terminal frame = %q, want end", terminal)
	}
	if schema.Strategy != plain.Strategy || schema.Query != plain.Query || schema.K != plain.K {
		t.Fatalf("schema frame %+v does not match materialized meta", schema)
	}
	if strings.Join(schema.Columns, ",") != "subject,score" {
		t.Fatalf("schema columns = %v", schema.Columns)
	}
	if len(results) != len(plain.Results) {
		t.Fatalf("streamed %d rows, materialized %d", len(results), len(plain.Results))
	}
	for i := range results {
		if results[i] != plain.Results[i] {
			t.Fatalf("row %d: streamed %+v, materialized %+v", i, results[i], plain.Results[i])
		}
	}
}

// TestStreamedSearchDisconnect: a client that vanishes mid-stream frees
// the admission slot and the memory reservation — the server notices at
// the next frame boundary and the handler unwinds.
func TestStreamedSearchDisconnect(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.SetMemory(1<<32, 1<<30)
	v := workload.NewVocabulary(500, 7)
	q := v.Word(10) + " " + v.Word(20)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET",
		fmt.Sprintf("%s/search?strategy=auction-lots&q=%s&k=500&stream=1", ts.URL, url.QueryEscape(q)), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read only the first line, then slam the connection shut.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no first frame")
	}
	cancel()
	resp.Body.Close()

	// The handler's deferred releases must return the slot and the
	// reservation; both are observable through the server itself.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if srv.gate.Pool().Active() == 0 && srv.gate.Stats().InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after disconnect: %d reservations, %d slots still held",
				srv.gate.Pool().Active(), srv.gate.Stats().InFlight)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if used := srv.gate.Pool().Used(); used != 0 {
		t.Fatalf("pool holds %d bytes after disconnect", used)
	}
	// And the server still serves.
	var again SearchResponse
	if code := getJSON(t, fmt.Sprintf("%s/search?strategy=auction-lots&q=%s&k=5", ts.URL, url.QueryEscape(q)), &again); code != http.StatusOK {
		t.Fatalf("post-disconnect search status = %d", code)
	}
}

// TestSearchBudget507: a starved per-query budget answers 507 (terminal
// — clients must not retry it), counts the denial, leaks nothing, and a
// governed server with a sane budget still answers 200.
func TestSearchBudget507(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.SetMemory(0, 512)
	v := workload.NewVocabulary(500, 7)
	q := v.Word(10) + " " + v.Word(20)

	var e map[string]string
	code := getJSON(t, fmt.Sprintf("%s/search?strategy=auction-lots&q=%s&k=50", ts.URL, url.QueryEscape(q)), &e)
	if code != http.StatusInsufficientStorage {
		t.Fatalf("status = %d, want 507", code)
	}
	if e["error"] == "" {
		t.Fatal("no error message")
	}
	if srv.budgetDenied.Load() == 0 {
		t.Fatal("denial not counted")
	}
	if used := srv.gate.Pool().Used(); used != 0 {
		t.Fatalf("pool holds %d bytes after denial", used)
	}

	srv2, ts2 := newTestServer(t)
	srv2.SetMemory(1<<32, 1<<30)
	var ok SearchResponse
	if code := getJSON(t, fmt.Sprintf("%s/search?strategy=auction-lots&q=%s&k=50", ts2.URL, url.QueryEscape(q)), &ok); code != http.StatusOK {
		t.Fatalf("generous budget status = %d", code)
	}
	if len(ok.Results) == 0 {
		t.Fatal("no results under generous budget")
	}
	if srv2.gate.Pool().Peak() == 0 {
		t.Fatal("no charges reached the pool")
	}
}

// TestHealthAndReadiness: /healthz always answers 200; /readyz follows
// SetReady and flips not-ready during drain while /healthz stays 200.
func TestHealthAndReadiness(t *testing.T) {
	srv, ts := newTestServer(t)
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz = %d", code)
	}

	srv.SetReady(false)
	var body map[string]string
	if code := getJSON(t, ts.URL+"/readyz", &body); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while warming = %d", code)
	}
	if body["reason"] != "warming up" {
		t.Fatalf("reason = %q", body["reason"])
	}
	srv.SetReady(true)
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz after SetReady(true) = %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts.URL+"/readyz", &body); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d", code)
	}
	if body["reason"] != "draining" {
		t.Fatalf("reason = %q", body["reason"])
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz while draining = %d", code)
	}
}
