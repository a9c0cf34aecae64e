package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"sync"
	"testing"

	"irdb/internal/strategy"
	"irdb/internal/workload"
)

// TestConcurrentTraffic hammers one shared server — and therefore one
// shared engine.Ctx and materialization cache — with parallel search,
// strategy-install, listing and stats requests. Assertions are
// deliberately light: the -race detector and the determinism check over
// repeated identical queries are the point.
func TestConcurrentTraffic(t *testing.T) {
	_, ts := newTestServer(t)
	v := workload.NewVocabulary(500, 7)

	// Reference result, fetched before the stampede begins.
	refQuery := v.Word(10) + " " + v.Word(20)
	searchURL := func(q string) string {
		return fmt.Sprintf("%s/search?strategy=auction-lots&q=%s&k=10", ts.URL, url.QueryEscape(q))
	}
	var ref SearchResponse
	if code := getJSON(t, searchURL(refQuery), &ref); code != http.StatusOK {
		t.Fatalf("reference search status = %d", code)
	}

	const clients = 8
	const iters = 25
	var wg sync.WaitGroup
	errc := make(chan error, clients*4)

	// Searchers: half repeat the reference query and must always see the
	// reference ranking; half spread over the vocabulary.
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := refQuery
				if c%2 == 1 {
					q = v.Word((c*31+i)%500) + " " + v.Word((c*17+i)%500)
				}
				var resp SearchResponse
				httpResp, err := http.Get(searchURL(q))
				if err != nil {
					errc <- err
					return
				}
				body, _ := io.ReadAll(httpResp.Body)
				httpResp.Body.Close()
				if httpResp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("search %q: status %d: %s", q, httpResp.StatusCode, body)
					return
				}
				if err := json.Unmarshal(body, &resp); err != nil {
					errc <- fmt.Errorf("search %q: %v", q, err)
					return
				}
				if q == refQuery {
					if len(resp.Results) != len(ref.Results) {
						errc <- fmt.Errorf("ranking drifted: %d results, want %d", len(resp.Results), len(ref.Results))
						return
					}
					for i := range resp.Results {
						if resp.Results[i] != ref.Results[i] {
							errc <- fmt.Errorf("ranking drifted at %d: %+v != %+v", i, resp.Results[i], ref.Results[i])
							return
						}
					}
				}
			}
		}(c)
	}

	// Installers: repeatedly (re-)install strategies while searches run.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				st := strategy.Auction(0.6, 0.4)
				st.Name = fmt.Sprintf("installed-%d", c)
				body, err := json.Marshal(st)
				if err != nil {
					errc <- err
					return
				}
				resp, err := http.Post(ts.URL+"/strategies", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusCreated {
					errc <- fmt.Errorf("install: status %d", resp.StatusCode)
					return
				}
			}
		}(c)
	}

	// Readers: stats and strategy listings.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var stats map[string]any
				if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
					errc <- fmt.Errorf("stats: status %d", code)
					return
				}
				if _, ok := stats["executor"]; !ok {
					errc <- fmt.Errorf("stats missing executor block: %v", stats)
					return
				}
				if code := getJSON(t, ts.URL+"/strategies", nil); code != http.StatusOK {
					errc <- fmt.Errorf("strategies: status %d", code)
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestConcurrentSearchAcrossParallelism runs the same traffic against
// servers configured serial and parallel; the rankings must agree.
func TestConcurrentSearchAcrossParallelism(t *testing.T) {
	v := workload.NewVocabulary(500, 7)
	queries := make([]string, 6)
	for i := range queries {
		queries[i] = v.Word(i*13%500) + " " + v.Word(i*29%500)
	}
	results := make([][]SearchResponse, 0, 3)
	for _, par := range []int{1, 2, 8} {
		srv, ts := newTestServerParallel(t, par)
		_ = srv
		out := make([]SearchResponse, len(queries))
		var wg sync.WaitGroup
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q string) {
				defer wg.Done()
				getJSON(t, fmt.Sprintf("%s/search?strategy=auction-lots&q=%s&k=10", ts.URL, url.QueryEscape(q)), &out[i])
			}(i, q)
		}
		wg.Wait()
		results = append(results, out)
	}
	for r := 1; r < len(results); r++ {
		for i := range queries {
			a, b := results[0][i], results[r][i]
			if len(a.Results) != len(b.Results) {
				t.Fatalf("query %d: %d vs %d results across parallelism", i, len(a.Results), len(b.Results))
			}
			for j := range a.Results {
				if a.Results[j] != b.Results[j] {
					t.Errorf("query %d rank %d: %+v != %+v", i, j, a.Results[j], b.Results[j])
				}
			}
		}
	}
}

// TestPreparedConcurrentFirstSearch: the first requests of a fresh server
// hit every installed strategy at once, so they prepare its plan under
// each other's feet (run with -race); each answers exactly as the same
// request sent alone afterwards.
func TestPreparedConcurrentFirstSearch(t *testing.T) {
	srv, ts := newTestServerParallel(t, 2)
	for _, st := range []*strategy.Strategy{strategy.Production(), strategy.Toy()} {
		if err := srv.Install(st); err != nil {
			t.Fatal(err)
		}
	}
	v := workload.NewVocabulary(500, 7)
	urls := []string{}
	for _, name := range srv.StrategyNames() {
		for _, q := range []string{v.Word(10) + " " + v.Word(20), v.Word(30)} {
			urls = append(urls, fmt.Sprintf("%s/search?strategy=%s&q=%s&k=10", ts.URL, name, url.QueryEscape(q)))
		}
	}
	fetch := func(u string) ([]SearchResult, error) {
		resp, err := http.Get(u)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var out SearchResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s: status %d", u, resp.StatusCode)
		}
		return out.Results, nil
	}
	const clients = 8
	got := make([][][]SearchResult, clients)
	errc := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range urls {
				res, err := fetch(urls[(c+i)%len(urls)])
				if err != nil {
					errc <- err
					return
				}
				got[c] = append(got[c], res)
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	rows := 0
	for i, u := range urls {
		want, err := fetch(u)
		if err != nil {
			t.Fatal(err)
		}
		rows += len(want)
		for c := 0; c < clients; c++ {
			if res := got[c][(i-c+len(urls)*clients)%len(urls)]; !reflect.DeepEqual(res, want) {
				t.Fatalf("%s: client %d got %v, alone %v", u, c, res, want)
			}
		}
	}
	if rows == 0 {
		t.Fatal("no request returned a hit; the comparison is vacuous")
	}
}
