package ir

import (
	"context"
	"math"
	"strconv"
	"testing"

	"irdb/internal/engine"
	"irdb/internal/relation"
	"irdb/internal/stem"
	"irdb/internal/vector"
)

// Closed-form reference for the Jelinek-Mercer language model, mirroring
// the pipeline definition: the rank-equivalent sum-of-logs form
// w = ln(1 + ((1-λ)·tf/len)/(λ·cf/C)).
func referenceLM(query string, p Params) map[int64]float64 {
	st, _ := stem.Get(p.Stemmer)
	tokenize := func(s string) []string {
		raw := p.Tokenizer.Tokens(s)
		out := make([]string, len(raw))
		for i, w := range raw {
			out[i] = st.Stem(w)
		}
		return out
	}
	tf := map[int64]map[string]int{}
	cf := map[string]int{}
	dl := map[int64]int{}
	var csize float64
	for _, d := range testDocs {
		toks := tokenize(d.data)
		dl[d.id] = len(toks)
		m := map[string]int{}
		for _, tok := range toks {
			m[tok]++
			cf[tok]++
			csize++
		}
		tf[d.id] = m
	}
	scores := map[int64]float64{}
	for _, q := range tokenize(query) {
		if cf[q] == 0 {
			continue
		}
		pc := float64(cf[q]) / csize
		for id, m := range tf {
			f := float64(m[q])
			if f == 0 {
				continue
			}
			num := (1 - p.LambdaJM) * f / float64(dl[id])
			den := p.LambdaJM * pc
			scores[id] += math.Log(1 + num/den)
		}
	}
	return scores
}

func TestLMModelsMatchReference(t *testing.T) {
	ctx, docs := newIRCtx(t)
	p := DefaultParams()
	p.Model = LMJelinekMercer
	s, err := NewSearcher(ctx, docs, p)
	if err != nil {
		t.Fatal(err)
	}
	// "zzzq" is in no document: it scores nothing.
	for _, query := range []string{"history book", "toy train set", "venice", "wooden zzzq train"} {
		hits, err := s.Search(context.Background(), query, 0)
		if err != nil {
			t.Fatalf("%q: %v", query, err)
		}
		want := referenceLM(query, p)
		if len(hits) != len(want) {
			t.Fatalf("%q: %d hits, want %d", query, len(hits), len(want))
		}
		for _, h := range hits {
			id, err := strconv.ParseInt(h.DocID, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(h.Score-want[id]) > 1e-9 {
				t.Errorf("%q doc %d: score %g, want %g", query, id, h.Score, want[id])
			}
		}
	}
}

// BM25 parameter semantics: with b = 0 document length must not matter;
// with b = 1 longer documents are penalized; k1 → 0 saturates term
// frequency (repeating a term adds nothing).
func TestBM25ParameterSemantics(t *testing.T) {
	// Two docs with the same tf for "apple" but different lengths.
	docs := []struct {
		id   int64
		data string
	}{
		{1, "apple pear"},
		{2, "apple pear plum grape melon fig date kiwi"},
		{3, "apple apple apple pear"},
	}
	build := func(p Params) *Searcher {
		t.Helper()
		ctx, _ := newIRCtx(t)
		b := relation.NewBuilder([]string{ColDocID, ColData},
			[]vector.Kind{vector.Int64, vector.String})
		for _, d := range docs {
			b.Add(d.id, d.data)
		}
		ctx.Cat.Put("docs2", b.Build())
		s, err := NewSearcher(ctx, engine.NewScan("docs2"), p)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	scores := func(p Params, query string) map[string]float64 {
		s := build(p)
		hits, err := s.Search(context.Background(), query, 0)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, h := range hits {
			out[h.DocID] = h.Score
		}
		return out
	}

	// b = 0: doc 1 and doc 2 have identical tf(apple)=1, so equal scores.
	p := DefaultParams()
	p.B = 0
	got := scores(p, "apple")
	if math.Abs(got["1"]-got["2"]) > 1e-12 {
		t.Errorf("b=0: scores differ with length: %v", got)
	}

	// b = 1: the shorter doc must win.
	p = DefaultParams()
	p.B = 1
	got = scores(p, "apple")
	if got["1"] <= got["2"] {
		t.Errorf("b=1: longer doc not penalized: %v", got)
	}

	// k1 → 0: tf saturates, so tf=3 (doc 3) scores like tf=1 at equal
	// length... doc 3 is longer than doc 1, so compare with b = 0 too.
	p = DefaultParams()
	p.K1 = 1e-9
	p.B = 0
	got = scores(p, "apple")
	if math.Abs(got["1"]-got["3"]) > 1e-6 {
		t.Errorf("k1→0: term frequency not saturated: %v", got)
	}

	// large k1, b=0: higher tf must win.
	p = DefaultParams()
	p.K1 = 10
	p.B = 0
	got = scores(p, "apple")
	if got["3"] <= got["1"] {
		t.Errorf("k1=10: tf=3 does not beat tf=1: %v", got)
	}
}
