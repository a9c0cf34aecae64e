package strategy

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/ir"
	"irdb/internal/relation"
	"irdb/internal/text"
	"irdb/internal/triple"
	"irdb/internal/workload"
)

// toyStore loads the paper's toy scenario into a fresh catalog.
func toyStore(t *testing.T) *engine.Ctx {
	t.Helper()
	cat := catalog.New(0)
	st := triple.NewStore(cat)
	st.Load([]triple.Triple{
		{Subject: "p1", Property: "type", Obj: triple.String("product")},
		{Subject: "p1", Property: "category", Obj: triple.String("toy")},
		{Subject: "p1", Property: "description", Obj: triple.String("wooden train set for kids")},
		{Subject: "p2", Property: "type", Obj: triple.String("product")},
		{Subject: "p2", Property: "category", Obj: triple.String("toy")},
		{Subject: "p2", Property: "description", Obj: triple.String("toy racing cars")},
		{Subject: "p3", Property: "type", Obj: triple.String("product")},
		{Subject: "p3", Property: "category", Obj: triple.String("book")},
		{Subject: "p3", Property: "description", Obj: triple.String("wooden toys through history")},
	})
	return engine.NewCtx(cat)
}

func runStrategy(t *testing.T, ctx *engine.Ctx, s *Strategy, c *Compiler) *relation.Relation {
	t.Helper()
	plan, err := s.Compile(c)
	if err != nil {
		t.Fatalf("compile %s: %v", s.Name, err)
	}
	rel, err := ctx.Exec(context.Background(), plan)
	if err != nil {
		t.Fatalf("exec %s: %v", s.Name, err)
	}
	return rel
}

func resultMap(rel *relation.Relation) map[string]float64 {
	out := map[string]float64{}
	for i := 0; i < rel.NumRows(); i++ {
		out[rel.Col(0).Vec.Format(i)] = rel.Prob()[i]
	}
	return out
}

// TestFigure2Toy reproduces the Figure 2 strategy: only category=toy
// products are ranked, by the relevance of their description.
func TestFigure2Toy(t *testing.T) {
	ctx := toyStore(t)
	rel := runStrategy(t, ctx, Toy(), &Compiler{Query: "wooden train"})
	got := resultMap(rel)
	// p3 is a book: excluded despite matching "wooden"
	if _, ok := got["p3"]; ok {
		t.Errorf("book p3 leaked into toy ranking: %v", got)
	}
	if got["p1"] <= got["p2"] {
		t.Errorf("p1 (wooden train set) should outrank p2 (toy cars): %v", got)
	}
	// normalized: best score is 1
	if math.Abs(got["p1"]-1.0) > 1e-9 {
		t.Errorf("normalized top score = %g, want 1", got["p1"])
	}
}

// TestFigure2MatchesHandWrittenPipeline cross-checks the strategy
// compiler against the hand-built IR pipeline on the same sub-collection.
func TestFigure2MatchesHandWrittenPipeline(t *testing.T) {
	ctx := toyStore(t)
	rel := runStrategy(t, ctx, Toy(), &Compiler{Query: "wooden train"})
	got := resultMap(rel)

	// Hand-written: docs view (category=toy + description), BM25 search.
	toys := triple.SubjectsOfType("product") // all products…
	_ = toys
	docs := triple.DocsOf(
		blockFilterSubjects(t, "category", "toy"),
		"description")
	s, err := ir.NewSearcher(ctx, docs, ir.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	hits, err := s.Search(context.Background(), "wooden train", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != len(got) {
		t.Fatalf("strategy returned %d results, hand pipeline %d", len(got), len(hits))
	}
	// Strategy normalizes by max; compare score ratios instead.
	var maxScore float64
	for _, h := range hits {
		if h.Score > maxScore {
			maxScore = h.Score
		}
	}
	for _, h := range hits {
		want := h.Score / maxScore
		if math.Abs(got[h.DocID]-want) > 1e-9 {
			t.Errorf("doc %s: strategy %g, hand pipeline normalized %g", h.DocID, got[h.DocID], want)
		}
	}
}

func blockFilterSubjects(t *testing.T, prop, value string) engine.Node {
	t.Helper()
	s := &Strategy{
		Name: "f",
		Blocks: []Block{{ID: "x", Type: "filter-property",
			Params: map[string]any{"property": prop, "value": value}}},
		Output: "x",
	}
	plan, err := s.Compile(&Compiler{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// auctionCtx loads a small deterministic auction graph.
func auctionCtx(t *testing.T) (*engine.Ctx, workload.AuctionConfig) {
	t.Helper()
	cfg := workload.AuctionConfig{
		Lots: 300, Auctions: 6, Sellers: 12, VocabSize: 800,
		LotDescLen: 12, AuctionDescLen: 30, Seed: 99,
	}
	cat := catalog.New(0)
	st := triple.NewStore(cat)
	st.Load(workload.AuctionGraph(cfg))
	return engine.NewCtx(cat), cfg
}

// TestFigure3Auction reproduces the Figure 3 strategy end to end.
func TestFigure3Auction(t *testing.T) {
	ctx, _ := auctionCtx(t)
	v := workload.NewVocabulary(800, 99)
	query := v.Word(20) + " " + v.Word(40) + " " + v.Word(60)

	s := Auction(0.7, 0.3)
	rel := runStrategy(t, ctx, s, &Compiler{Query: query})
	if rel.NumRows() == 0 {
		t.Fatal("auction strategy returned no results")
	}
	// every result is a lot and every probability is in (0, 1]
	for i := 0; i < rel.NumRows(); i++ {
		id := rel.Col(0).Vec.Format(i)
		if !strings.HasPrefix(id, "lot") {
			t.Fatalf("non-lot result %q", id)
		}
		p := rel.Prob()[i]
		if p <= 0 || p > 1+1e-9 {
			t.Fatalf("score out of range: %g", p)
		}
	}
}

// TestFigure3MixSemantics checks the linear combination: with weight 1 on
// the left branch and 0 on the right, the result must equal the left
// branch alone.
func TestFigure3MixSemantics(t *testing.T) {
	ctx, _ := auctionCtx(t)
	v := workload.NewVocabulary(800, 99)
	query := v.Word(25) + " " + v.Word(35)

	full := resultMap(runStrategy(t, ctx, Auction(1.0, 0.0), &Compiler{Query: query}))

	leftOnly := &Strategy{
		Name: "left-branch",
		Blocks: []Block{
			{ID: "lots", Type: "select-type", Params: map[string]any{"type": "lot"}},
			{ID: "texts", Type: "extract-text", Params: map[string]any{"property": "description"}, Inputs: []string{"lots"}},
			{ID: "rank", Type: "rank-text", Params: map[string]any{"model": "bm25"}, Inputs: []string{"lots-missing"}},
		},
		Output: "rank",
	}
	// fix the wiring error on purpose-made struct
	leftOnly.Blocks[2].Inputs = []string{"texts"}
	left := resultMap(runStrategy(t, ctx, leftOnly, &Compiler{Query: query}))

	for id, p := range left {
		if math.Abs(full[id]-p) > 1e-9 {
			t.Errorf("lot %s: mix(1,0) = %g, left branch alone = %g", id, full[id], p)
		}
	}
	for id, p := range full {
		if p > 0 && left[id] == 0 {
			t.Errorf("mix(1,0) contains %s (%g) not in left branch", id, p)
		}
	}
}

// TestFigure3ScorePropagation: with weight only on the right branch,
// every lot of a matched auction inherits the auction's (weighted) score.
func TestFigure3ScorePropagation(t *testing.T) {
	ctx, _ := auctionCtx(t)
	v := workload.NewVocabulary(800, 99)
	query := v.Word(30) + " " + v.Word(50)

	rightOnly := resultMap(runStrategy(t, ctx, Auction(0.0, 1.0), &Compiler{Query: query}))
	if len(rightOnly) == 0 {
		t.Skip("query matched no auction descriptions at this seed")
	}
	// Lots in the same auction share the same score (they all inherit the
	// auction's ranking, scaled by certain edges).
	hasAuction, err := ctx.Exec(context.Background(), triple.Property("hasAuction"))
	if err != nil {
		t.Fatal(err)
	}
	lotAuction := map[string]string{}
	for i := 0; i < hasAuction.NumRows(); i++ {
		lotAuction[hasAuction.Col(0).Vec.Format(i)] = hasAuction.Col(1).Vec.Format(i)
	}
	byAuction := map[string]float64{}
	for lot, p := range rightOnly {
		a := lotAuction[lot]
		if prev, seen := byAuction[a]; seen && math.Abs(prev-p) > 1e-9 {
			t.Errorf("lots of auction %s have different propagated scores: %g vs %g", a, prev, p)
		}
		byAuction[a] = p
	}
}

func TestProductionStrategyRuns(t *testing.T) {
	ctx, _ := auctionCtx(t)
	v := workload.NewVocabulary(800, 99)
	syn := text.SynonymDict(workload.Synonyms(800, 50, 2, 99))
	query := v.Word(15) + " " + v.Word(45)
	s := Production()
	if s.NumBlocks() < 15 {
		t.Errorf("production strategy has %d blocks, expected a complex graph", s.NumBlocks())
	}
	rel := runStrategy(t, ctx, s, &Compiler{Query: query, Synonyms: syn})
	if rel.NumRows() == 0 {
		t.Fatal("production strategy returned no results")
	}
	if rel.NumRows() > 50 {
		t.Errorf("top-k block did not cap results: %d rows", rel.NumRows())
	}
}

// TestRankPropagatesDocumentUncertainty: a document whose membership in
// the sub-collection is uncertain (confidence-scored category triple)
// must have its text score multiplied by that probability (section 2.3).
func TestRankPropagatesDocumentUncertainty(t *testing.T) {
	cat := catalog.New(0)
	st := triple.NewStore(cat)
	st.Load([]triple.Triple{
		{Subject: "pa", Property: "category", Obj: triple.String("toy")},
		{Subject: "pa", Property: "description", Obj: triple.String("wooden train")},
		{Subject: "pb", Property: "category", Obj: triple.String("toy"), P: 0.5},
		{Subject: "pb", Property: "description", Obj: triple.String("wooden train")},
	})
	ctx := engine.NewCtx(cat)
	got := resultMap(runStrategy(t, ctx, Toy(), &Compiler{Query: "wooden train"}))
	// identical text, so after max-normalization: pa = 1.0, pb = 0.5
	if math.Abs(got["pa"]-1.0) > 1e-9 || math.Abs(got["pb"]-0.5) > 1e-9 {
		t.Errorf("uncertainty not propagated into ranking: %v", got)
	}
}

func TestValidateCatchesStructuralErrors(t *testing.T) {
	base := Toy()
	cases := []func(s *Strategy){
		func(s *Strategy) { s.Blocks = nil },
		func(s *Strategy) { s.Output = "" },
		func(s *Strategy) { s.Output = "ghost" },
		func(s *Strategy) { s.Blocks[0].ID = "" },
		func(s *Strategy) { s.Blocks[1].ID = s.Blocks[0].ID },
		func(s *Strategy) { s.Blocks[1].Type = "warp-drive" },
		func(s *Strategy) { s.Blocks[1].Inputs = []string{"ghost"} },
		func(s *Strategy) { s.Blocks[2].Inputs = nil },              // arity
		func(s *Strategy) { s.Blocks[1].Inputs = []string{"rank"} }, // cycle
	}
	for i, mutate := range cases {
		s := Toy()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: validation passed on broken strategy", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("pristine strategy fails validation: %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := Auction(0.7, 0.3)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != s.Name || len(back.Blocks) != len(s.Blocks) || back.Output != s.Output {
		t.Errorf("round trip changed shape: %+v", back)
	}
	// Execution equivalence after round trip
	ctx, _ := auctionCtx(t)
	v := workload.NewVocabulary(800, 99)
	q := v.Word(12) + " " + v.Word(22)
	a := resultMap(runStrategy(t, ctx, s, &Compiler{Query: q}))
	b := resultMap(runStrategy(t, ctx, back, &Compiler{Query: q}))
	if len(a) != len(b) {
		t.Fatalf("round-tripped strategy returns %d results, original %d", len(b), len(a))
	}
	for id, p := range a {
		if math.Abs(b[id]-p) > 1e-9 {
			t.Errorf("doc %s: %g vs %g after round trip", id, p, b[id])
		}
	}
	if _, err := FromJSON([]byte("{not json")); err == nil {
		t.Error("bad JSON accepted")
	}
	if _, err := FromJSON([]byte(`{"name":"x","blocks":[],"output":"y"}`)); err == nil {
		t.Error("invalid strategy accepted")
	}
}

func TestMixValidation(t *testing.T) {
	ctx := toyStore(t)
	s := Auction(0.8, 0.4) // weights sum > 1
	if _, err := s.Compile(&Compiler{Query: "x"}); err == nil {
		t.Error("mix weights summing over 1 should fail")
	}
	neg := Auction(-0.1, 0.5)
	if _, err := neg.Compile(&Compiler{Query: "x"}); err == nil {
		t.Error("negative mix weight should fail")
	}
	_ = ctx
}

// badParamStrategies are structurally valid strategies whose one block
// has a bad parameter: only compiling them finds the fault.
func badParamStrategies() []*Strategy {
	mk := func(typ string, params map[string]any, inputs ...string) *Strategy {
		blocks := []Block{{ID: "in", Type: "select-type", Params: map[string]any{"type": "lot"}}}
		b := Block{ID: "b", Type: typ, Params: params}
		if len(inputs) > 0 {
			b.Inputs = inputs
		}
		blocks = append(blocks, b)
		return &Strategy{Name: "t", Blocks: blocks, Output: "b"}
	}
	return []*Strategy{
		mk("select-type", map[string]any{}), // missing type
		mk("traverse", map[string]any{"property": "x", "direction": "sideways"}, "in"),
		mk("extract-text", map[string]any{}, "in"),                         // missing property
		mk("rank-text", map[string]any{"model": "pagerank"}, "in"),         // unknown model
		mk("top-k", map[string]any{}, "in"),                                // missing k
		mk("min-score", map[string]any{}, "in"),                            // missing min
		mk("filter-property", map[string]any{"property": 5, "value": "x"}), // wrong kind
		mk("rank-text", map[string]any{"model": "lm-dirichlet"}, "in"),     // unknown model (not supported)
	}
}

// TestBlockParamErrors: a bad block parameter fails Compile, Prepare and
// Registry.Install, and the registry keeps nothing of a batch holding one.
func TestBlockParamErrors(t *testing.T) {
	ctx := toyStore(t)
	for i, s := range badParamStrategies() {
		if err := s.Validate(); err != nil {
			t.Fatalf("case %d: structurally invalid: %v", i, err)
		}
		if _, err := s.Compile(&Compiler{Query: "q"}); err == nil {
			t.Errorf("case %d: compile passed on bad params", i)
		}
		if _, err := s.Prepare(ctx, nil); err == nil {
			t.Errorf("case %d: prepare passed on bad params", i)
		}
		reg := NewRegistry(ctx, nil)
		if err := reg.Install(Toy(), s); err == nil {
			t.Errorf("case %d: install passed on bad params", i)
		}
		if names := reg.Names(); len(names) != 0 {
			t.Errorf("case %d: a failed install left %v installed", i, names)
		}
	}
}

// TestRankTextAcceptsModels: rank-text compiles under each model it
// names.
func TestRankTextAcceptsModels(t *testing.T) {
	s := Toy()
	for _, m := range []string{"bm25", "tfidf", "lm-jm"} {
		s.Blocks[2].Params = map[string]any{"model": m}
		if _, err := s.Compile(&Compiler{Query: "wooden train"}); err != nil {
			t.Errorf("rank-text %s: %v", m, err)
		}
	}
}

func TestBlockTypeNamesSorted(t *testing.T) {
	names := BlockTypeNames()
	if len(names) < 8 {
		t.Errorf("only %d block types registered", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Errorf("names not sorted: %v", names)
		}
	}
}

func TestMinScoreAndTopK(t *testing.T) {
	ctx := toyStore(t)
	s := Toy()
	s.Blocks = append(s.Blocks,
		Block{ID: "floor", Type: "min-score", Params: map[string]any{"min": 0.99}, Inputs: []string{"rank"}},
	)
	s.Output = "floor"
	rel := runStrategy(t, ctx, s, &Compiler{Query: "wooden train"})
	// only the max-normalized top document has p >= 0.99
	if rel.NumRows() != 1 {
		t.Errorf("min-score kept %d rows, want 1", rel.NumRows())
	}

	s2 := Toy()
	s2.Blocks = append(s2.Blocks,
		Block{ID: "top", Type: "top-k", Params: map[string]any{"k": 1.0}, Inputs: []string{"rank"}},
	)
	s2.Output = "top"
	rel2 := runStrategy(t, ctx, s2, &Compiler{Query: "wooden train"})
	if rel2.NumRows() != 1 || rel2.Col(0).Vec.Format(0) != "p1" {
		t.Errorf("top-k = %s", rel2.Format(-1))
	}
}
