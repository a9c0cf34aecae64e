package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"irdb/internal/triple"
	"irdb/internal/workload"
)

// sizes are one workload's dataset dimensions at a given scale.
type sizes struct {
	lots, auctions, sellers int
	docs, docLen            int // facade_mix only
	queries                 int
}

const vocabSize = 20000

// sizesFor returns the workload's sizes divided by scale. The auction
// graph keeps cmd/gendata's shape (≈320 lots per auction, two sellers
// per auction), the paper's lots-per-auction ratio.
func sizesFor(workloadName string, scale int) sizes {
	var s sizes
	switch workloadName {
	case "hot_search":
		s = sizes{lots: 16000, queries: 256}
	case "ingest_search":
		s = sizes{lots: 2000, queries: 256}
	case "evict_search":
		s = sizes{lots: 2000, queries: 256}
	case "facade_mix":
		s = sizes{lots: 4000, docs: 20000, docLen: 50, queries: 256}
	}
	s.lots /= scale
	s.docs /= scale
	if scale > 1 {
		s.queries = 16
	}
	s.auctions = max(s.lots/320, 1)
	s.sellers = 2 * s.auctions
	return s
}

// inputs is everything a workload feeds the program, generated from the
// seed alone.
type inputs struct {
	sz      sizes
	triples []triple.Triple
	tsv     []byte // triples as the TSV irdb-server -data loads
	docs    []workload.Doc
	queries []string
}

// genInputs generates a workload's dataset and query list for one round
// of a run. Every round has inputs of its own, so a run's value is the
// median over three datasets: how costly a generated collection is to
// search differs between seeds by more than the box's noise (SearchDocs
// p50 5.4 to 6.9 ms; on evict_search one dataset in five falls on the far
// side of the cache bound), and a later claim must hold on unseen seeds.
// Dataset and queries share the seed because the seed picks the
// vocabulary's words: queries drawn under another seed would mostly miss
// the collection.
func genInputs(workloadName string, runSeed int64, round, scale int) (*inputs, error) {
	seed := runSeed*setupRepeats + int64(round)
	sz := sizesFor(workloadName, scale)
	cfg := workload.DefaultAuctionConfig()
	cfg.Lots, cfg.Auctions, cfg.Sellers = sz.lots, sz.auctions, sz.sellers
	cfg.VocabSize, cfg.Seed = vocabSize, seed
	in := &inputs{sz: sz, triples: workload.AuctionGraph(cfg)}
	var buf bytes.Buffer
	if err := triple.WriteTSV(&buf, in.triples); err != nil {
		return nil, err
	}
	in.tsv = buf.Bytes()
	if sz.docs > 0 {
		in.docs = workload.GenDocs(sz.docs, sz.docLen, vocabSize, seed)
	}
	in.queries = workload.Queries(sz.queries, 3, vocabSize, seed)
	return in, nil
}

// digests fingerprints each generated artifact.
func (in *inputs) digests() map[string]string {
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	out := map[string]string{
		"dataset": sum(in.tsv),
		"queries": sum([]byte(strings.Join(in.queries, "\n"))),
	}
	if len(in.docs) > 0 {
		var buf bytes.Buffer
		for _, d := range in.docs {
			fmt.Fprintf(&buf, "%d\t%s\n", d.ID, d.Data)
		}
		out["docs"] = sum(buf.Bytes())
	}
	return out
}

// The generators live in internal/workload, outside BENCHMARK.json's
// paths. For the default seed their output is pinned by digest, so a
// later change cannot move the workload by editing a generator; other
// seeds run unpinned (the unseen-seed check of a later perf claim).

func pinPath(root string) string { return filepath.Join(root, "benchmark", "pinned.json") }

func pinKey(workloadName string, round, scale int) string {
	return fmt.Sprintf("%s/scale%d/round%d", workloadName, scale, round)
}

func checkPins(root, workloadName string, seed int64, round, scale int, in *inputs) error {
	if seed != defaultSeed {
		return nil
	}
	raw, err := os.ReadFile(pinPath(root))
	if err != nil {
		return err
	}
	var pins map[string]map[string]string
	if err := json.Unmarshal(raw, &pins); err != nil {
		return fmt.Errorf("pinned.json: %w", err)
	}
	want, ok := pins[pinKey(workloadName, round, scale)]
	if !ok {
		return fmt.Errorf("inputs changed: no pinned digests for %s", pinKey(workloadName, round, scale))
	}
	got := in.digests()
	for _, name := range sortedKeys(got) {
		if got[name] != want[name] {
			return fmt.Errorf("inputs changed: %s %s digest %s, pinned %s (a generator under internal/workload moved; the workload is no longer the one earlier results measured)",
				pinKey(workloadName, round, scale), name, got[name], want[name])
		}
	}
	return nil
}

// Ingest batches are generated here, not in internal/workload, so they
// need no pin.

const (
	batchLots = 25 // lots per POST /append; 5 triples each
)

// sentinel is batch i's unique search term. Letters only (one token for
// any tokenizer) and built from z/q, which the synthetic vocabulary's
// syllables never contain, so it matches the batch's lots and nothing
// else.
func sentinel(i int) string {
	var sb strings.Builder
	sb.WriteString("zq")
	for d := 0; d < 4; d++ {
		sb.WriteByte("zqxjwk"[i%6])
		i /= 6
	}
	sb.WriteString("qz")
	return sb.String()
}

func batchLotID(batch, j int) string { return fmt.Sprintf("live%05d-%02d", batch, j) }

// ingestBatch builds batch i: batchLots new lots shaped like the base
// graph's (type, title, description, hasAuction, hasSeller), every
// description carrying the batch's sentinel term among query words.
func (in *inputs) ingestBatch(i int) []triple.Triple {
	out := make([]triple.Triple, 0, batchLots*5)
	for j := 0; j < batchLots; j++ {
		id := batchLotID(i, j)
		q := in.queries[(i*batchLots+j)%len(in.queries)]
		out = append(out,
			triple.Triple{Subject: id, Property: "type", Obj: triple.String("lot"), P: 1},
			triple.Triple{Subject: id, Property: "title", Obj: triple.String(q), P: 1},
			triple.Triple{Subject: id, Property: "description", Obj: triple.String(q + " " + sentinel(i) + " " + q), P: 1},
			triple.Triple{Subject: id, Property: "hasAuction", Obj: triple.String(fmt.Sprintf("auction%06d", 1+(i+j)%in.sz.auctions)), P: 1},
			triple.Triple{Subject: id, Property: "hasSeller", Obj: triple.String(fmt.Sprintf("seller%06d", 1+(i+j)%in.sz.sellers)), P: 1},
		)
	}
	return out
}

// appendBody is the POST /append JSON for a batch.
func appendBody(ts []triple.Triple) []byte {
	type wire struct {
		Subject  string  `json:"subject"`
		Property string  `json:"property"`
		Object   string  `json:"object"`
		P        float64 `json:"p"`
	}
	req := struct {
		Triples []wire `json:"triples"`
	}{Triples: make([]wire, len(ts))}
	for i, t := range ts {
		req.Triples[i] = wire{t.Subject, t.Property, t.Obj.Str, t.P}
	}
	body, _ := json.Marshal(req)
	return body
}
