package triple

import (
	"context"
	"math"
	"strings"
	"testing"

	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/expr"
	"irdb/internal/vector"
)

// toyGraph is the paper's toy scenario plus typed-object variety.
func toyGraph() []Triple {
	return []Triple{
		{Subject: "p1", Property: "type", Obj: String("product")},
		{Subject: "p1", Property: "category", Obj: String("toy")},
		{Subject: "p1", Property: "description", Obj: String("wooden train set")},
		{Subject: "p1", Property: "price", Obj: Int(25)},
		{Subject: "p2", Property: "type", Obj: String("product")},
		{Subject: "p2", Property: "category", Obj: String("book")},
		{Subject: "p2", Property: "description", Obj: String("a history of toys")},
		{Subject: "p2", Property: "rating", Obj: Float(4.5)},
		{Subject: "p3", Property: "type", Obj: String("product")},
		{Subject: "p3", Property: "category", Obj: String("toy"), P: 0.8},
		{Subject: "p3", Property: "description", Obj: String("toy cars")},
	}
}

func newStore(t *testing.T) (*Store, *engine.Ctx) {
	t.Helper()
	cat := catalog.New(0)
	s := NewStore(cat)
	s.Load(toyGraph())
	return s, engine.NewCtx(cat)
}

func TestLoadPartitionsByType(t *testing.T) {
	s, _ := newStore(t)
	str, ints, flts, err := s.Counts()
	if err != nil {
		t.Fatal(err)
	}
	if str != 9 || ints != 1 || flts != 1 {
		t.Errorf("partitions = %d/%d/%d, want 9/1/1", str, ints, flts)
	}
}

func TestPropertyPlanAndCache(t *testing.T) {
	_, ctx := newStore(t)
	plan := Property("description")
	rel, err := ctx.Exec(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 3 {
		t.Fatalf("descriptions = %d, want 3", rel.NumRows())
	}
	if strings.Join(rel.ColumnNames(), ",") != "subject,object" {
		t.Errorf("schema = %v", rel.ColumnNames())
	}
	// second evaluation must be a cache hit (on-demand vertical partition)
	execs := ctx.NodeExecs()
	if _, err := ctx.Exec(context.Background(), Property("description")); err != nil {
		t.Fatal(err)
	}
	if d := ctx.NodeExecs() - execs; d != 0 {
		t.Errorf("property plan re-executed %d nodes, want cache hit", d)
	}
}

// TestPropertyInt: an integer-valued property lands in the TableInt
// partition, with its object stored as an int64.
func TestPropertyInt(t *testing.T) {
	_, ctx := newStore(t)
	rel, err := ctx.Exec(context.Background(), engine.NewSelect(engine.NewScan(TableInt),
		expr.Cmp{Op: expr.Eq, L: expr.Column(ColProperty), R: expr.Str("price")}))
	if err != nil {
		t.Fatal(err)
	}
	obj, ok := rel.Col(rel.ColIndex(ColObject)).Vec.(*vector.Int64s)
	if rel.NumRows() != 1 || !ok || obj.Values()[0] != 25 {
		t.Errorf("price = %s", rel.Format(-1))
	}
}

func TestSubjectsOfType(t *testing.T) {
	_, ctx := newStore(t)
	rel, err := ctx.Exec(context.Background(), SubjectsOfType("product"))
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 3 {
		t.Errorf("products = %d, want 3", rel.NumRows())
	}
}

func TestDocsOfMirrorsPaperView(t *testing.T) {
	_, ctx := newStore(t)
	// the paper's docs view: category=toy products with their descriptions
	toys := engine.NewSelect(ScanAll(), expr.And{
		L: expr.Cmp{Op: expr.Eq, L: expr.Column(ColProperty), R: expr.Str("category")},
		R: expr.Cmp{Op: expr.Eq, L: expr.Column(ColObject), R: expr.Str("toy")},
	})
	toySubjects := engine.NewProject(toys,
		engine.ProjCol{Name: ColSubject, E: expr.Column(ColSubject)})
	docs, err := ctx.Exec(context.Background(), DocsOf(toySubjects, "description"))
	if err != nil {
		t.Fatal(err)
	}
	if docs.NumRows() != 2 {
		t.Fatalf("docs = %d, want 2 (p1, p3)", docs.NumRows())
	}
	byID := map[string]float64{}
	for i := 0; i < docs.NumRows(); i++ {
		byID[docs.Col(0).Vec.Format(i)] = docs.Prob()[i]
	}
	// p3's category triple has p=0.8: JOIN INDEPENDENT gives 0.8 · 1.0
	if byID["p1"] != 1.0 || math.Abs(byID["p3"]-0.8) > 1e-12 {
		t.Errorf("docs probabilities = %v", byID)
	}
}

func TestTraverseForwardBackward(t *testing.T) {
	cat := catalog.New(0)
	s := NewStore(cat)
	s.Load([]Triple{
		{Subject: "lot1", Property: "type", Obj: String("lot")},
		{Subject: "lot2", Property: "type", Obj: String("lot")},
		{Subject: "lot1", Property: "hasAuction", Obj: String("auc1")},
		{Subject: "lot2", Property: "hasAuction", Obj: String("auc1"), P: 0.5},
	})
	ctx := engine.NewCtx(cat)

	fwd, err := ctx.Exec(context.Background(), TraverseForward(SubjectsOfType("lot"), "hasAuction"))
	if err != nil {
		t.Fatal(err)
	}
	if fwd.NumRows() != 2 {
		t.Fatalf("forward rows = %d", fwd.NumRows())
	}
	for i := 0; i < fwd.NumRows(); i++ {
		if got := fwd.Col(0).Vec.Format(i); got != "auc1" {
			t.Errorf("forward target = %q", got)
		}
	}

	// Backward from auctions to lots, probability propagates through the
	// 0.5 edge (the paper: "the last traverse operation finds lots with
	// probabilities that depend on those of their ranked auctions").
	aucs := engine.NewValues("aucs", fwd)
	back, err := ctx.Exec(context.Background(), TraverseBackward(aucs, "hasAuction"))
	if err != nil {
		t.Fatal(err)
	}
	probs := map[string]float64{}
	for i := 0; i < back.NumRows(); i++ {
		k := back.Col(0).Vec.Format(i)
		if back.Prob()[i] > probs[k] {
			probs[k] = back.Prob()[i]
		}
	}
	if probs["lot1"] != 1.0 {
		t.Errorf("p(lot1) = %g, want 1.0", probs["lot1"])
	}
	// The strongest path to lot2: forward through lot1's certain edge
	// (auc1 at p=1.0), then backward through lot2's 0.5 edge → 0.5. The
	// weaker path (forward and back through lot2's own edge) gives 0.25.
	if math.Abs(probs["lot2"]-0.5) > 1e-12 {
		t.Errorf("p(lot2) = %g, want 0.5", probs["lot2"])
	}
}

func TestReadWriteTSVRoundTrip(t *testing.T) {
	in := `# comment
p1	category	toy
p1	price	25
p1	rating	4.5
p2	category	book	0.8
`
	triples, err := ReadTSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) != 4 {
		t.Fatalf("parsed %d triples", len(triples))
	}
	if triples[1].Obj.Kind != vector.Int64 || triples[1].Obj.Int != 25 {
		t.Errorf("int detection failed: %+v", triples[1])
	}
	if triples[2].Obj.Kind != vector.Float64 {
		t.Errorf("float detection failed: %+v", triples[2])
	}
	if triples[3].P != 0.8 {
		t.Errorf("probability = %g", triples[3].P)
	}
	var sb strings.Builder
	if err := WriteTSV(&sb, triples); err != nil {
		t.Fatal(err)
	}
	again, err := ReadTSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(triples) {
		t.Fatalf("round trip lost triples: %d vs %d", len(again), len(triples))
	}
	for i := range again {
		if again[i] != triples[i] {
			t.Errorf("round trip mismatch at %d: %+v vs %+v", i, again[i], triples[i])
		}
	}
}

func TestReadTSVErrors(t *testing.T) {
	if _, err := ReadTSV(strings.NewReader("a\tb\n")); err == nil {
		t.Error("2-field line should fail")
	}
	if _, err := ReadTSV(strings.NewReader("a\tb\tc\t1.5\n")); err == nil {
		t.Error("probability > 1 should fail")
	}
	if _, err := ReadTSV(strings.NewReader("a\tb\tc\tx\n")); err == nil {
		t.Error("non-numeric probability should fail")
	}
}

func TestObjectFormat(t *testing.T) {
	if String("x").Format() != "x" || Int(7).Format() != "7" || Float(2.5).Format() != "2.5" {
		t.Error("Object.Format wrong")
	}
}
