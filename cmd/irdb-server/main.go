// Command irdb-server serves search strategies over HTTP against a
// triples TSV dataset — the deployment shape of section 3 (one VM serving
// the website's search bar).
//
// Usage:
//
//	irdb-server -data auction.tsv -addr :8080
//	curl 'localhost:8080/search?strategy=auction-lots&q=wooden+train&k=10'
//	curl 'localhost:8080/strategies'
//	curl 'localhost:8080/stats'
//
// The Figure 3 auction strategy and its production variant are installed
// by default; more strategies can be installed at runtime by POSTing
// strategy JSON to /strategies.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/fault"
	"irdb/internal/ingest"
	"irdb/internal/server"
	"irdb/internal/strategy"
	"irdb/internal/text"
	"irdb/internal/triple"
	"irdb/internal/wal"
	"irdb/internal/workload"
)

func main() {
	var (
		dataPath = flag.String("data", "", "triples TSV file (required unless -wal holds recovered data)")
		addr     = flag.String("addr", ":8080", "listen address")
		synTerms = flag.Int("synonyms", 200, "synthetic synonym dictionary size (0 disables)")
		par      = flag.Int("parallelism", 0, "engine worker pool size (0 = GOMAXPROCS, 1 = serial)")
		memMB    = flag.Int64("mem-mb", 0, "umbrella memory budget in MiB, split between cache and query pool (0 = no umbrella)")
		cacheMB  = flag.Int64("cache-mb", 0, "materialization cache byte budget in MiB (0 = unbounded, or half of -mem-mb)")
		queryMB  = flag.Int64("query-mem-mb", 0, "per-query memory budget in MiB (0 = derived from the pool, or ungoverned without -mem-mb)")
		maxReq   = flag.Int("max-in-flight", 0, "concurrent search request limit (0 = 2x parallelism)")
		timeout  = flag.Duration("timeout", 0, "per-request engine deadline, e.g. 2s (0 = none)")
		admWait  = flag.Duration("admission-wait", 0, "max time a request may queue for admission before a fast 503 + Retry-After (0 = queue without bound)")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "max time to drain in-flight requests on SIGINT/SIGTERM")
		walPath  = flag.String("wal", "", "durability directory (snapshot + write-ahead log); POST /append batches survive crashes and are recovered on restart")
		fsync    = flag.String("fsync", "always", "WAL fsync policy: always, interval or off")
		fsyncInt = flag.Duration("fsync-interval", 100*time.Millisecond, "minimum time between fsyncs under -fsync interval")
	)
	flag.Parse()

	// One umbrella number (-mem-mb) derives the cache / query-pool split;
	// nonsensical combinations (cache swallowing the umbrella, per-query
	// budget above the pool) are refused at startup, not discovered under
	// load.
	split, err := server.DeriveMemSplit(*memMB, *cacheMB, *queryMB, *maxReq)
	if err != nil {
		fmt.Fprintf(os.Stderr, "irdb-server: %v\n", err)
		os.Exit(2)
	}
	cat := catalog.New(0)
	if split.CacheBytes > 0 {
		cat.Cache().SetMaxBytes(split.CacheBytes)
	}
	store := triple.NewStore(cat)
	mgr := ingest.New(cat, store, "docs")

	var syn text.SynonymDict
	if *synTerms > 0 {
		syn = text.SynonymDict(workload.Synonyms(20000, *synTerms, 2, 42))
	}
	ctx := engine.NewCtx(cat)
	ctx.Parallelism = *par
	srv := server.New(ctx, syn)
	srv.SetIngest(mgr)
	if *maxReq > 0 {
		srv.SetMaxInFlight(*maxReq)
	}
	if *timeout > 0 {
		srv.SetTimeout(*timeout)
	}
	if *admWait > 0 {
		srv.SetAdmissionWait(*admWait)
	}
	srv.SetMemory(split.PoolBytes, split.PerQueryBytes)
	if split.PoolBytes > 0 || split.PerQueryBytes > 0 {
		log.Printf("memory: cache %d MiB, query pool %d MiB, per-query budget %d MiB",
			split.CacheBytes>>20, split.PoolBytes>>20, split.PerQueryBytes>>20)
	}

	// Listen before loading: /healthz answers as soon as the socket is
	// up, while /readyz stays 503 until recovery and data load finish, so
	// load balancers hold traffic through a slow WAL replay instead of
	// timing out on a silent port.
	srv.SetReady(false)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		// Contain panics at the goroutine boundary: a listener fault
		// surfaces as a startup error instead of killing the process
		// before the error channel is read.
		var err error
		defer func() { errc <- err }()
		defer fault.Recover("http listener", &err)
		err = httpSrv.ListenAndServe()
	}()
	log.Printf("listening on %s (not ready: warming up)", *addr)

	recovered := 0
	if *walPath != "" {
		policy, err := wal.ParsePolicy(*fsync)
		if err != nil {
			log.Fatal(err)
		}
		if err := mgr.OpenDurable(*walPath, wal.Options{Policy: policy, Interval: *fsyncInt}); err != nil {
			log.Fatal(err)
		}
		nStr, nInt, nFlt, err := store.Counts()
		if err != nil {
			log.Fatal(err)
		}
		recovered = nStr + nInt + nFlt
		ws, _ := mgr.WALStats()
		log.Printf("recovered %d triples from %s (wal: %d records replayed, watermark %d)",
			recovered, *walPath, ws.ReplayedRecords, ws.LastSeq)
	}
	switch {
	case recovered > 0:
		// The durability directory is the source of truth; reloading the
		// TSV would wipe every recovered live append.
		if *dataPath != "" {
			log.Printf("ignoring -data %s: %s already holds recovered data", *dataPath, *walPath)
		}
	case *dataPath == "":
		fmt.Fprintln(os.Stderr, "irdb-server: -data is required (no -wal directory with recovered data)")
		flag.Usage()
		os.Exit(2)
	default:
		f, err := os.Open(*dataPath)
		if err != nil {
			log.Fatal(err)
		}
		triples, err := triple.ReadTSV(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if err := mgr.ReplaceTriples(triples); err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded %d triples from %s", len(triples), *dataPath)
	}

	for _, st := range strategy.Builtins() {
		if err := srv.Install(st); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("installed strategies: %v", srv.StrategyNames())
	srv.SetReady(true)
	log.Printf("ready")

	// Graceful shutdown: on SIGINT/SIGTERM stop admitting new queries,
	// drain the in-flight ones (bounded by -drain-timeout), then close the
	// listener. Requests arriving mid-drain get a fast 503 + Retry-After
	// instead of a reset connection, and /readyz flips not-ready the
	// moment the drain starts.
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-sigCtx.Done():
	}
	log.Printf("shutting down: draining in-flight requests (up to %s)", *drainFor)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	if err := mgr.Close(); err != nil {
		log.Printf("wal close: %v", err)
	}
	log.Printf("bye")
}
