// Package invidx is a dedicated in-memory inverted-index search engine —
// the "specialized text retrieval system" the paper positions IR-on-DB
// against ("while beating specialized text retrieval systems on raw speed
// is not the focus of this study", section 2.1; references [5] and [10]
// claim relational engines stay competitive).
//
// It has two roles. It is the reference implementation the relational
// BM25 pipeline is checked against (TestMatchesRelationalPipeline: same
// hits, scores and top-10 order), and the specialized side of the
// BenchmarkE6RelationalHot / BenchmarkE6InvertedIndexHot pair in
// CLAIMS.md. Same tokenization, same stemming, same BM25 — but classic
// posting lists, document-at-a-time scoring with per-query accumulators,
// and a top-k heap instead of relational operators.
package invidx

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"irdb/internal/ir"
	"irdb/internal/stem"
	"irdb/internal/text"
	"irdb/internal/vector"
)

// Posting is one (document, term frequency) pair in a posting list.
type Posting struct {
	Doc int32
	TF  int32
}

// Index is an immutable inverted index over a document collection;
// Search is safe to call concurrently.
type Index struct {
	params   ir.Params
	stemmer  stem.Stemmer
	terms    *vector.FrozenDict
	postings [][]Posting // by termID
	docLens  []int32     // by internal doc position
	docIDs   []int64     // internal position → external ID
	avgdl    float64
	idf      []float64 // BM25 IDF by termID
}

// Doc is one input document.
type Doc struct {
	ID   int64
	Data string
}

// Build constructs the index with the same text pipeline the relational
// searcher uses (tokenizer + stemmer from params), so a comparison measures
// engines rather than analyzers. Only BM25 is supported.
func Build(docs []Doc, p ir.Params) (*Index, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Model != ir.BM25 {
		return nil, fmt.Errorf("invidx: only BM25 is supported, got %v", p.Model)
	}
	st, err := stem.Get(p.Stemmer)
	if err != nil {
		return nil, err
	}
	x := &Index{params: p, stemmer: st}
	dict := vector.NewDict(1024)
	var totalLen int64
	for pos, d := range docs {
		toks := p.Tokenizer.TokensPos(d.Data)
		if p.WithCompounds {
			toks = text.CompoundVariants(toks)
		}
		counts := map[int32]int32{}
		for _, tok := range toks {
			tid := int32(dict.Put(st.Stem(tok.Term)))
			if int(tid) == len(x.postings) {
				x.postings = append(x.postings, nil)
			}
			counts[tid]++
		}
		// postings per term are in increasing doc position by construction;
		// sorting the term IDs keeps the append order deterministic
		tids := make([]int32, 0, len(counts))
		for tid := range counts {
			tids = append(tids, tid)
		}
		sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
		for _, tid := range tids {
			x.postings[tid] = append(x.postings[tid], Posting{Doc: int32(pos), TF: counts[tid]})
		}
		x.docLens = append(x.docLens, int32(len(toks)))
		x.docIDs = append(x.docIDs, d.ID)
		totalLen += int64(len(toks))
	}
	x.terms = dict.Freeze()
	n := float64(len(docs))
	if n > 0 {
		x.avgdl = float64(totalLen) / n
	}
	// Document frequency is the posting-list length.
	x.idf = make([]float64, len(x.postings))
	for tid, plist := range x.postings {
		df := float64(len(plist))
		ratio := (n - df + 0.5) / (df + 0.5)
		if p.IDFPlusOne {
			ratio += 1
		}
		if ratio > 0 {
			x.idf[tid] = math.Log(ratio)
		}
	}
	return x, nil
}

// Stats summarizes the built index.
func (x *Index) Stats() ir.IndexStats {
	var postings int64
	for _, p := range x.postings {
		postings += int64(len(p))
	}
	return ir.IndexStats{
		Docs:      int64(len(x.docIDs)),
		Terms:     int64(len(x.postings)),
		Postings:  postings,
		AvgDocLen: x.avgdl,
	}
}

// Search scores the query with BM25 and returns the top k hits (k <= 0
// means all matching documents), ordered by descending score then doc ID.
func (x *Index) Search(query string, k int) []ir.Hit {
	terms := x.params.Tokenizer.Tokens(query)
	acc := map[int32]float64{}
	for _, raw := range terms {
		term := x.stemmer.Stem(raw)
		tid, ok := x.terms.Lookup(term)
		if !ok {
			continue
		}
		idf := x.idf[tid]
		for _, post := range x.postings[tid] {
			tf := float64(post.TF)
			dl := float64(x.docLens[post.Doc])
			tfn := tf / (tf + x.params.K1*(1-x.params.B+x.params.B*dl/x.avgdl))
			acc[post.Doc] += tfn * idf
		}
	}
	if k <= 0 || k > len(acc) {
		k = len(acc)
	}
	h := &hitHeap{}
	heap.Init(h)
	for doc, score := range acc {
		heap.Push(h, scored{doc: doc, score: score})
		if h.Len() > k {
			heap.Pop(h)
		}
	}
	out := make([]ir.Hit, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		s := heap.Pop(h).(scored)
		out[i] = ir.Hit{DocID: formatInt(x.docIDs[s.doc]), Score: s.score}
	}
	return out
}

type scored struct {
	doc   int32
	score float64
}

// hitHeap is a min-heap on (score, then reversed doc order) so the k best
// hits survive and ties resolve to smaller doc IDs first in the output.
type hitHeap []scored

func (h hitHeap) Len() int { return len(h) }
func (h hitHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score < h[j].score
	}
	return h[i].doc > h[j].doc
}
func (h hitHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *hitHeap) Push(x any)   { *h = append(*h, x.(scored)) }
func (h *hitHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

func formatInt(v int64) string {
	return fmt.Sprintf("%d", v)
}
