package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"irdb"
	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/server"
	"irdb/internal/strategy"
	"irdb/internal/text"
	"irdb/internal/triple"
	"irdb/internal/vector"
	"irdb/internal/workload"
)

// TestHTTPMatchesFacade: the same triples behind irdb-server's /search and
// behind irdb.DB.Search answer every (strategy, query, k) with the same
// ranked (subject, score) list — both surfaces run the same strategy.Registry search under the
// same admission gate, so there is one search path to agree with.
func TestHTTPMatchesFacade(t *testing.T) {
	cfg := workload.AuctionConfig{
		Lots: 200, Auctions: 4, Sellers: 8, VocabSize: 500,
		LotDescLen: 10, AuctionDescLen: 20, Seed: 7,
	}
	graph := workload.AuctionGraph(cfg)
	syn := workload.Synonyms(500, 50, 2, 7)

	cat := catalog.New(0)
	triple.NewStore(cat).Load(graph)
	srv := server.New(engine.NewCtx(cat), text.SynonymDict(syn))
	for _, st := range strategy.Builtins() {
		if err := srv.Install(st); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	db, err := irdb.Open(irdb.WithSynonyms(syn))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	facadeTriples := make([]irdb.Triple, len(graph))
	for i, tr := range graph {
		var obj any
		switch tr.Obj.Kind {
		case vector.String:
			obj = tr.Obj.Str
		case vector.Int64:
			obj = tr.Obj.Int
		default:
			obj = tr.Obj.Flt
		}
		facadeTriples[i] = irdb.Triple{Subject: tr.Subject, Property: tr.Property, Object: obj, P: tr.P}
	}
	if err := db.LoadTriples(facadeTriples); err != nil {
		t.Fatal(err)
	}
	db.InstallBuiltinStrategies()

	const name = "auction-lots"
	rows := 0
	for _, q := range workload.Queries(16, 3, cfg.VocabSize, cfg.Seed) {
		for _, k := range []int{1, 10, 1000} {
			var resp server.SearchResponse
			u := fmt.Sprintf("%s/search?strategy=%s&q=%s&k=%d", ts.URL, name, url.QueryEscape(q), k)
			if code := getJSON(t, u, &resp); code != http.StatusOK {
				t.Fatalf("%s: status %d", u, code)
			}
			hits, err := db.Search(context.Background(), name, q, k)
			if err != nil {
				t.Fatalf("facade %q k=%d: %v", q, k, err)
			}
			if len(hits) != len(resp.Results) {
				t.Fatalf("%q k=%d: facade %d hits, HTTP %d", q, k, len(hits), len(resp.Results))
			}
			for i, h := range hits {
				if r := resp.Results[i]; h.ID != r.Subject || h.Score != r.Score {
					t.Fatalf("%q k=%d row %d: facade (%s, %v), HTTP (%s, %v)",
						q, k, i, h.ID, h.Score, r.Subject, r.Score)
				}
			}
			rows += len(hits)
		}
	}
	if rows == 0 {
		t.Fatal("no query returned any hit; the comparison is vacuous")
	}
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}
