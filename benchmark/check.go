package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"irdb"
	"irdb/client"
	"irdb/internal/triple"
)

// Correctness checks run after the measured window and count as
// operations: a failed check is a failed operation.

func facadeTriples(ts []triple.Triple) []irdb.Triple {
	out := make([]irdb.Triple, len(ts))
	for i, t := range ts {
		out[i] = irdb.Triple{Subject: t.Subject, Property: t.Property, Object: t.Obj.Str, P: t.P}
	}
	return out
}

// checkAgainstFacade compares what the server answers over HTTP with
// what the public facade computes in-process on the same triples: top-k
// subjects and scores must be identical, and a streamed reply must carry
// exactly the materialized reply's rows. On ingest_search it first
// crashes the server and restarts it on the WAL directory alone, so the
// comparison (and the search for every acknowledged sentinel) runs
// against recovered state. The facade's own Search latency on these
// queries is the irdb.search_us_p50 layer metric.
func (e *httpEnv) checkAgainstFacade(rec *recorder, w *window) error {
	if e.par.appendPeriod > 0 {
		if err := e.crashAndRecover(rec, w); err != nil {
			return err
		}
	}

	db, err := irdb.Open()
	if err != nil {
		return err
	}
	defer db.Close()
	if _, err := db.LoadTriplesTSV(bytes.NewReader(e.in.tsv)); err != nil {
		return err
	}
	for _, batch := range w.acked {
		if _, err := db.AppendTriples(facadeTriples(e.in.ingestBatch(batch))); err != nil {
			return err
		}
	}
	db.InstallBuiltinStrategies()

	c := e.conns[len(e.conns)-1]
	ctx, cancel := context.WithTimeout(context.Background(), 2*opTimeout)
	defer cancel()
	topK := min(e.par.topKChecks, len(e.in.queries))
	step := max(len(e.in.queries)/max(topK, 1), 1)
	var facadeMS samples
	for i := 0; i < topK; i++ {
		rec.op(e.checkTopK(ctx, c, db, e.in.queries[(i*step)%len(e.in.queries)], &facadeMS))
	}
	for i := 0; i < e.par.streamChecks; i++ {
		rec.op(checkStream(ctx, c, e.in.queries[(i*step+1)%len(e.in.queries)]))
	}
	// The first facade search builds the on-demand indexes; the median
	// over the rest is the hot facade spine.
	rec.set("irdb.search_us_p50", facadeMS.scaled(1000).quantile(0.5), "us", len(facadeMS))

	after, err := e.proc.stats()
	if err != nil {
		return err
	}
	// The check requests above, on top of each round's window (on
	// ingest_search this is the recovered process).
	checkNoRefusals(rec, after)
	return nil
}

// checkNoRefusals: the process shed no request (503) and denied none on
// budget (507) in its lifetime so far.
func checkNoRefusals(rec *recorder, st *serverStats) {
	rec.check(st.Faults.BudgetDenied == 0 && st.Faults.ShedRequests == 0,
		"%d requests shed and %d denied on budget; expected none", st.Faults.ShedRequests, st.Faults.BudgetDenied)
}

// checkTopK: the server's top 10 for q equals DB.Search's, subjects and
// scores.
func (e *httpEnv) checkTopK(ctx context.Context, c *conn, db *irdb.DB, q string, facadeMS *samples) error {
	resp, err := c.search(ctx, q, 10)
	if err != nil {
		return err
	}
	t0 := time.Now()
	hits, err := db.Search(ctx, strategyName, q, 10)
	facadeMS.add(time.Since(t0))
	if err != nil {
		return err
	}
	if !sameHits(resp.Results, hits) {
		return fmt.Errorf("correctness: top-10 of %q over HTTP differs from DB.Search", q)
	}
	return nil
}

// checkStream: stream=1 delivers exactly the materialized reply's rows.
func checkStream(ctx context.Context, c *conn, q string) error {
	page, err := c.search(ctx, q, 1000)
	if err != nil {
		return err
	}
	var streamed []client.SearchResult
	err = c.cl.SearchStream(ctx, strategyName, q, 1000, func(rows []client.SearchResult) error {
		streamed = append(streamed, rows...)
		return nil
	})
	if err != nil {
		return err
	}
	same := len(streamed) == len(page.Results)
	for j := 0; same && j < len(streamed); j++ {
		same = streamed[j] == page.Results[j]
	}
	if !same {
		return fmt.Errorf("correctness: stream=1 of %q differs from the materialized reply", q)
	}
	return nil
}

func sameHits(http []client.SearchResult, facade []irdb.Hit) bool {
	if len(http) != len(facade) {
		return false
	}
	for i := range http {
		if http[i].Subject != facade[i].ID || http[i].Score != facade[i].Score {
			return false
		}
	}
	return true
}

// crashAndRecover is the durability check: SIGKILL the server (no drain,
// no WAL close), restart it on the WAL directory alone, and look for
// every batch whose append was acknowledged. Restart-to-/readyz is the
// wal.replay_ms layer metric. SIGKILL leaves the page cache intact, so
// this proves recovery from what was written, not from what reached the
// device; the sandbox cannot drop the page cache.
func (e *httpEnv) crashAndRecover(rec *recorder, w *window) error {
	for _, c := range e.conns {
		c.close()
	}
	e.proc.kill()
	t0 := time.Now()
	proc, err := startServer(e.bin, e.serverArgs(false)...)
	if err != nil {
		return fmt.Errorf("restart on the WAL directory: %w", err)
	}
	rec.set("wal.replay_ms", float64(time.Since(t0))/float64(time.Millisecond), "ms", 1)
	e.proc = proc
	for i := range e.conns {
		e.conns[i] = newConn(proc.base)
	}
	for _, batch := range w.acked {
		if err := e.conns[0].findSentinel(batch); err != nil {
			rec.op(fmt.Errorf("after crash recovery: %w", err))
			continue
		}
		rec.op(nil)
	}
	return nil
}
