package strategy

import (
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/relation"
	"irdb/internal/text"
	"irdb/internal/triple"
	"irdb/internal/vector"
	"irdb/internal/workload"
)

// preparedCtx loads a small auction graph and the toy products into one
// catalog, so every builtin strategy has data, at parallelism par. It
// returns the store too, for appends.
func preparedCtx(t *testing.T, par int) (*engine.Ctx, *triple.Store) {
	t.Helper()
	cat := catalog.New(0)
	ts := workload.AuctionGraph(workload.AuctionConfig{
		Lots: 300, Auctions: 6, Sellers: 12, VocabSize: 800,
		LotDescLen: 12, AuctionDescLen: 30, Seed: 99,
	})
	for i, desc := range []string{"wooden train set for kids", "toy racing cars", "wooden toy blocks"} {
		p := "p" + string(rune('1'+i))
		ts = append(ts,
			triple.Triple{Subject: p, Property: "type", Obj: triple.String("product"), P: 1},
			triple.Triple{Subject: p, Property: "category", Obj: triple.String("toy"), P: 1},
			triple.Triple{Subject: p, Property: "description", Obj: triple.String(desc), P: 1})
	}
	store := triple.NewStore(cat)
	store.Load(ts)
	ctx := engine.NewCtx(cat)
	ctx.Parallelism = par
	return ctx, store
}

// preparedQueries covers a multi-term query, one matching nothing, the
// empty query, a repeated term and a query only its synonyms expand; syn
// is the synonym dictionary that expands them.
func preparedQueries() (queries []string, syn text.SynonymDict) {
	v := workload.NewVocabulary(800, 99)
	syn = text.SynonymDict{v.Word(20): {v.Word(21), v.Word(22)}, "wooden": {"toy", "train"}}
	return []string{
		v.Word(20) + " " + v.Word(40) + " wooden train",
		"zzzqx qxzzz",
		"",
		v.Word(40) + " " + v.Word(40) + " " + v.Word(40),
		v.Word(20),
	}, syn
}

// sameRows fails unless a and b hold the same rows in the same order,
// probabilities bit for bit.
func sameRows(t *testing.T, what string, a, b *relation.Relation) {
	t.Helper()
	if !reflect.DeepEqual(a.ColumnNames(), b.ColumnNames()) || a.NumRows() != b.NumRows() {
		t.Fatalf("%s: %v × %d rows, want %v × %d", what, a.ColumnNames(), a.NumRows(), b.ColumnNames(), b.NumRows())
	}
	for i := 0; i < a.NumRows(); i++ {
		if math.Float64bits(a.Prob()[i]) != math.Float64bits(b.Prob()[i]) {
			t.Fatalf("%s: row %d prob %v, want %v", what, i, a.Prob()[i], b.Prob()[i])
		}
		for c := range a.ColumnNames() {
			if a.Col(c).Vec.Format(i) != b.Col(c).Vec.Format(i) {
				t.Fatalf("%s: row %d col %d = %s, want %s", what, i, c, a.Col(c).Vec.Format(i), b.Col(c).Vec.Format(i))
			}
		}
	}
}

// mixedToys mixes a ranked text branch with an unranked node set, so a
// query leaf the optimizer wrongly took for empty would drop the ranked
// branch from the prepared plan.
func mixedToys() *Strategy {
	return &Strategy{
		Name: "mixed-toys",
		Blocks: []Block{
			{ID: "toys", Type: "filter-property",
				Params: map[string]any{"property": "category", "value": "toy"}},
			{ID: "texts", Type: "extract-text",
				Params: map[string]any{"property": "description"}, Inputs: []string{"toys"}},
			{ID: "rank", Type: "rank-text", Inputs: []string{"texts"}},
			{ID: "mix", Type: "mix", Params: map[string]any{"weights": []any{0.6, 0.4}},
				Inputs: []string{"rank", "toys"}},
		},
		Output: "mix",
	}
}

// TestPreparedMatchesAdhoc: for every builtin strategy (and mixedToys) and
// query, the prepared plan bound to the query is the plan Optimize makes
// of Compile for it — the same digest — and a registry search returns
// bit-identical hits to the ad-hoc plan cut to the same k, at parallelism
// 1, 2 and 8 and across them.
func TestPreparedMatchesAdhoc(t *testing.T) {
	queries, syn := preparedQueries()
	bg := context.Background()
	topK := func(plan engine.Node) engine.Node {
		return engine.NewTopN(plan, 20, engine.SortSpec{Desc: true}, engine.SortSpec{Col: triple.ColSubject})
	}
	ref := map[string]*relation.Relation{}
	for _, par := range []int{1, 2, 8} {
		ctx, _ := preparedCtx(t, par)
		strategies := append(Builtins(), mixedToys())
		reg := NewRegistry(ctx, syn)
		if err := reg.Install(strategies...); err != nil {
			t.Fatal(err)
		}
		for _, st := range strategies {
			prep, err := st.Prepare(ctx, &Compiler{Synonyms: syn})
			if err != nil {
				t.Fatal(err)
			}
			entry, err := reg.Lookup(st.Name)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				what := st.Name + " " + q
				bound, err := prep.Bind(q)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				adhoc, err := st.Compile(&Compiler{Query: q, Synonyms: syn})
				if err != nil {
					t.Fatal(err)
				}
				want := ctx.Optimize(adhoc)
				if bound.Fingerprint() != want.Fingerprint() {
					t.Fatalf("%s: bound plan differs from the optimized ad-hoc plan:\n%s", what,
						engine.ExplainChange(want, bound))
				}
				wantRel, err := ctx.Exec(bg, topK(want))
				if err != nil {
					t.Fatal(err)
				}
				got, err := entry.Search(bg, q, 20)
				if err != nil {
					t.Fatal(err)
				}
				sameRows(t, what, got, wantRel)
				if r, ok := ref[what]; ok {
					sameRows(t, what+" across parallelism", got, r)
				} else {
					ref[what] = got
				}
			}
		}
	}
}

// TestPreparedExpandsSynonyms: an "expand" ranking block binds the query
// expanded with the registry's synonyms, so a query word found in no
// document still ranks the documents holding its synonym.
func TestPreparedExpandsSynonyms(t *testing.T) {
	ctx, _ := preparedCtx(t, 1)
	st := Toy()
	st.Blocks[2].Params = map[string]any{"expand": true}
	for _, tc := range []struct {
		syn  text.SynonymDict
		want int
	}{{nil, 0}, {text.SynonymDict{"automobile": {"cars"}}, 1}} {
		reg := NewRegistry(ctx, tc.syn)
		if err := reg.Install(st); err != nil {
			t.Fatal(err)
		}
		entry, err := reg.Lookup(st.Name)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := entry.Search(context.Background(), "automobile", 10)
		if err != nil {
			t.Fatal(err)
		}
		if rel.NumRows() != tc.want || (tc.want > 0 && rel.Col(0).Vec.Format(0) != "p2") {
			t.Errorf("synonyms %v: hits %v, want %d (p2)", tc.syn, resultMap(rel), tc.want)
		}
	}
}

// TestPreparedCompileLeavesCompilerUnchanged: Compile and Prepare copy
// their Compiler before filling in defaults, so one template compiler can
// be shared by concurrent callers.
func TestPreparedCompileLeavesCompilerUnchanged(t *testing.T) {
	ctx, _ := preparedCtx(t, 1)
	c := &Compiler{Query: "wooden", Synonyms: text.SynonymDict{"wooden": {"toy"}}}
	before := *c
	if _, err := Toy().Compile(c); err != nil {
		t.Fatal(err)
	}
	if _, err := Production().Prepare(ctx, c); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*c, before) {
		t.Fatalf("compiler changed: %+v, was %+v", *c, before)
	}
}

// TestPreparedRegistry: a registry prepares a strategy once, keeps the
// plan across appends (which keep the schema epoch), prepares again when
// the epoch ticks, and serves a reinstalled name with the new strategy.
func TestPreparedRegistry(t *testing.T) {
	ctx, store := preparedCtx(t, 1)
	queries, _ := preparedQueries()
	bg := context.Background()
	reg := NewRegistry(ctx, nil)
	if err := reg.Install(Auction(0.7, 0.3)); err != nil {
		t.Fatal(err)
	}
	entry, err := reg.Lookup("auction-lots")
	if err != nil {
		t.Fatal(err)
	}
	plans := func() int64 { return ctx.OptimizerStats().Plans }
	search := func(e *Entry) *relation.Relation {
		t.Helper()
		rel, err := e.Search(bg, queries[0], 10)
		if err != nil {
			t.Fatal(err)
		}
		return rel
	}
	search(entry)
	prepared := plans()
	for _, q := range queries {
		if _, err := entry.Search(bg, q, 10); err != nil {
			t.Fatal(err)
		}
	}
	if got := plans(); got != prepared {
		t.Fatalf("searches optimized %d plans, want none after the first", got-prepared)
	}

	// An append republishes the triples with the same columns.
	epoch := ctx.SchemaEpoch()
	store.Append([]triple.Triple{{Subject: "lot-new", Property: "type", Obj: triple.String("lot"), P: 1},
		{Subject: "lot-new", Property: "description", Obj: triple.String(queries[0]), P: 1}})
	if ctx.SchemaEpoch() != epoch {
		t.Fatal("append ticked the schema epoch")
	}
	if rel := search(entry); !strings.Contains(resultMapKeys(rel), "lot-new") {
		t.Error("search after append misses the appended lot")
	}
	if got := plans(); got != prepared {
		t.Fatalf("an append re-prepared the strategy (%d plans)", got-prepared)
	}

	// A new table ticks the epoch: the next search prepares again.
	ctx.Cat.Put("unrelated", relation.NewBuilder([]string{"x"}, []vector.Kind{vector.Int64}).Build())
	search(entry)
	if got := plans(); got != prepared+1 {
		t.Fatalf("after a schema change %d plans were optimized, want 1", got-prepared)
	}

	// Reinstalling the name serves the new strategy, prepared afresh.
	if err := reg.Install(Auction(0, 1)); err != nil {
		t.Fatal(err)
	}
	entry, err = reg.Lookup("auction-lots")
	if err != nil {
		t.Fatal(err)
	}
	got := search(entry)
	plan, err := Auction(0, 1).Compile(&Compiler{Query: queries[0]})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ctx.Exec(bg, engine.NewTopN(ctx.Optimize(plan), 10,
		engine.SortSpec{Desc: true}, engine.SortSpec{Col: triple.ColSubject}))
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "reinstalled", got, want)
	if _, err := reg.Lookup("nope"); err == nil || !strings.Contains(err.Error(), "auction-lots") {
		t.Errorf("unknown name: %v", err)
	}
}

func resultMapKeys(rel *relation.Relation) string {
	var keys []string
	for k := range resultMap(rel) {
		keys = append(keys, k)
	}
	return strings.Join(keys, " ")
}

// TestPreparedConcurrentFirstSearch: concurrent first searches on a fresh
// registry prepare the plan once and all answer alike.
func TestPreparedConcurrentFirstSearch(t *testing.T) {
	ctx, _ := preparedCtx(t, 2)
	queries, syn := preparedQueries()
	reg := NewRegistry(ctx, syn)
	if err := reg.Install(Builtins()...); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	results := make([][]*relation.Relation, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, name := range reg.Names() {
				entry, err := reg.Lookup(name)
				if err != nil {
					t.Error(err)
					return
				}
				rel, err := entry.Search(context.Background(), queries[w%len(queries)], 10)
				if err != nil {
					t.Error(err)
					return
				}
				results[w] = append(results[w], rel)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := ctx.OptimizerStats().Plans; got != int64(len(Builtins())) {
		t.Errorf("%d plans optimized, want one per strategy (%d)", got, len(Builtins()))
	}
	for w := len(queries); w < workers; w++ {
		for i := range results[w] {
			sameRows(t, reg.Names()[i], results[w][i], results[w%len(queries)][i])
		}
	}
}
