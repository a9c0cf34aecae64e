package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/strategy"
	"irdb/internal/text"
	"irdb/internal/triple"
	"irdb/internal/workload"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	return newTestServerParallel(t, 0)
}

func newTestServerParallel(t *testing.T, parallelism int) (*Server, *httptest.Server) {
	t.Helper()
	cfg := workload.AuctionConfig{
		Lots: 200, Auctions: 4, Sellers: 8, VocabSize: 500,
		LotDescLen: 10, AuctionDescLen: 20, Seed: 7,
	}
	cat := catalog.New(0)
	triple.NewStore(cat).Load(workload.AuctionGraph(cfg))
	syn := text.SynonymDict(workload.Synonyms(500, 50, 2, 7))
	ctx := engine.NewCtx(cat)
	ctx.Parallelism = parallelism
	srv := New(ctx, syn)
	if err := srv.Install(strategy.Auction(0.7, 0.3)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestSearchEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	v := workload.NewVocabulary(500, 7)
	q := v.Word(10) + " " + v.Word(20)

	var resp SearchResponse
	code := getJSON(t, fmt.Sprintf("%s/search?strategy=auction-lots&q=%s&k=5", ts.URL, url.QueryEscape(q)), &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Strategy != "auction-lots" || resp.K != 5 {
		t.Errorf("response meta = %+v", resp)
	}
	if len(resp.Results) == 0 || len(resp.Results) > 5 {
		t.Fatalf("results = %d", len(resp.Results))
	}
	for i, r := range resp.Results {
		if !strings.HasPrefix(r.Subject, "lot") {
			t.Errorf("result %d subject = %q", i, r.Subject)
		}
		if i > 0 && r.Score > resp.Results[i-1].Score {
			t.Error("results not sorted by score")
		}
	}
	if resp.LatencyMS <= 0 {
		t.Error("latency not reported")
	}
}

// TestSearchMatchingNothing: the toy strategy over auction data selects
// no text at all; that is an empty ranking, not a server error.
func TestSearchMatchingNothing(t *testing.T) {
	srv, ts := newTestServer(t)
	if err := srv.Install(strategy.Toy()); err != nil {
		t.Fatal(err)
	}
	v := workload.NewVocabulary(500, 7)
	var resp SearchResponse
	code := getJSON(t, fmt.Sprintf("%s/search?strategy=toy-products&q=%s&k=5", ts.URL, url.QueryEscape(v.Word(10))), &resp)
	if code != http.StatusOK || len(resp.Results) != 0 {
		t.Fatalf("status = %d, results = %+v; want 200 with no results", code, resp.Results)
	}
}

func TestSearchValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		url  string
		code int
	}{
		{"/search?q=x", http.StatusBadRequest},                   // no strategy
		{"/search?strategy=auction-lots", http.StatusBadRequest}, // no query
		{"/search?strategy=ghost&q=x", http.StatusNotFound},      // unknown strategy
		{"/search?strategy=auction-lots&q=x&k=0", http.StatusBadRequest},
		{"/search?strategy=auction-lots&q=x&k=abc", http.StatusBadRequest},
	}
	for _, c := range cases {
		var e map[string]string
		if code := getJSON(t, ts.URL+c.url, &e); code != c.code {
			t.Errorf("%s: status %d, want %d", c.url, code, c.code)
		} else if e["error"] == "" {
			t.Errorf("%s: no error message", c.url)
		}
	}
}

func TestInstallAndListStrategies(t *testing.T) {
	_, ts := newTestServer(t)
	prod := strategy.Production()
	body, _ := prod.ToJSON()
	resp, err := http.Post(ts.URL+"/strategies", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("install status = %d", resp.StatusCode)
	}

	var list []struct {
		Name   string `json:"name"`
		Blocks int    `json:"blocks"`
	}
	getJSON(t, ts.URL+"/strategies", &list)
	if len(list) != 2 {
		t.Fatalf("strategies = %+v", list)
	}
	if list[0].Name != "auction-lots" || list[1].Name != "auction-lots-production" {
		t.Errorf("list = %+v", list)
	}

	// invalid strategy bodies are rejected
	bad, err := http.Post(ts.URL+"/strategies", "application/json", strings.NewReader(`{"name":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("bad install status = %d", bad.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	v := workload.NewVocabulary(500, 7)
	getJSON(t, fmt.Sprintf("%s/search?strategy=auction-lots&q=%s", ts.URL, v.Word(15)), nil)

	var stats struct {
		Tables     []string `json:"tables"`
		Cache      struct{ Hits, Misses uint64 }
		Strategies map[string]struct {
			Requests int64   `json:"requests"`
			AvgMS    float64 `json:"avg_ms"`
		} `json:"strategies"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if len(stats.Tables) != 3 {
		t.Errorf("tables = %v", stats.Tables)
	}
	if st := stats.Strategies["auction-lots"]; st.Requests != 1 || st.AvgMS <= 0 {
		t.Errorf("strategy stats = %+v", stats.Strategies)
	}
}

// Concurrent searches through the shared context must be safe and benefit
// from the shared on-demand index (the paper's single-VM deployment).
func TestConcurrentSearches(t *testing.T) {
	_, ts := newTestServer(t)
	v := workload.NewVocabulary(500, 7)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				q := v.Word(10 + (g+i)%40)
				var resp SearchResponse
				url := fmt.Sprintf("%s/search?strategy=auction-lots&q=%s", ts.URL, q)
				r, err := http.Get(url)
				if err != nil {
					errs <- err
					return
				}
				if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
					errs <- err
				}
				r.Body.Close()
				if r.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", r.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
