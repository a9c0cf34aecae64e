package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"irdb/internal/catalog"
	"irdb/internal/relation"
	"irdb/internal/vector"
)

// groupJoinTables returns a score-plan-shaped pair of tables: W, a
// postings relation (termID, term, docID, w, tf) of rows rows over terms
// terms, with docID an Int64s column multiplied by docStride or, with
// dictDocs, a DictStrings one; and Q, a probe list (termID, term, qid) of
// probes rows, with repeated terms and terms W lacks.
func groupJoinTables(r *rand.Rand, rows, terms, docs, probes int, docStride int64, dictDocs bool) map[string]*relation.Relation {
	termID := make([]int64, rows)
	term := make([]string, rows)
	docIDs := make([]int64, rows)
	docStrs := make([]string, rows)
	w := make([]float64, rows)
	tf := make([]int64, rows)
	for i := range termID {
		termID[i] = int64(r.Intn(terms))
		term[i] = fmt.Sprintf("t%d", termID[i])
		d := r.Intn(docs)
		docIDs[i] = int64(d) * docStride
		docStrs[i] = fmt.Sprintf("d%05d", (d*7919)%docs)
		w[i] = r.NormFloat64() * 3
		tf[i] = int64(1 + r.Intn(9))
	}
	var docID vector.Vector = vector.FromInt64s(docIDs)
	if dictDocs {
		docID = vector.EncodeStrings(vector.FromStrings(docStrs))
	}
	qTermID := make([]int64, probes)
	qTerm := make([]string, probes)
	qid := make([]int64, probes)
	for i := range qTermID {
		qTermID[i] = int64(r.Intn(terms + terms/4))
		qTerm[i] = fmt.Sprintf("t%d", qTermID[i])
		qid[i] = int64(i % 3)
	}
	return map[string]*relation.Relation{
		"W": relation.MustFromColumns([]relation.Column{
			{Name: "termID", Vec: vector.FromInt64s(termID)},
			{Name: "term", Vec: vector.FromStrings(term)},
			{Name: "docID", Vec: docID},
			{Name: "w", Vec: vector.FromFloat64s(w)},
			{Name: "tf", Vec: vector.FromInt64s(tf)},
		}, nil),
		"Q": relation.MustFromColumns([]relation.Column{
			{Name: "termID", Vec: vector.FromInt64s(qTermID)},
			{Name: "term", Vec: vector.FromStrings(qTerm)},
			{Name: "qid", Vec: vector.FromInt64s(qid)},
		}, nil),
	}
}

// groupJoinAggs reads every aggregate the fused path folds, over both
// numeric kinds.
var groupJoinAggs = []AggSpec{
	{Op: Sum, Col: "w", As: "score"},
	{Op: CountAll, As: "n"},
	{Op: Sum, Col: "tf", As: "tfs"},
	{Op: Avg, Col: "w", As: "wavg"},
	{Op: Avg, Col: "tf", As: "tfavg"},
	{Op: Count, Col: "tf", As: "tfn"},
}

// mustBitEqual asserts two relations have the same columns, vector
// types, rows and row order, with float values and probabilities equal
// bit for bit.
func mustBitEqual(t *testing.T, label string, got, want *relation.Relation) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("%s: got %dx%d, want %dx%d", label, got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for c := 0; c < want.NumCols(); c++ {
		gc, wc := got.Col(c), want.Col(c)
		if gc.Name != wc.Name || fmt.Sprintf("%T", gc.Vec) != fmt.Sprintf("%T", wc.Vec) {
			t.Fatalf("%s: column %d is %s %T, want %s %T", label, c, gc.Name, gc.Vec, wc.Name, wc.Vec)
		}
		for i := 0; i < want.NumRows(); i++ {
			equal := gc.Vec.EqualAt(i, wc.Vec, i)
			if f, ok := wc.Vec.(*vector.Float64s); ok {
				equal = math.Float64bits(gc.Vec.(*vector.Float64s).Values()[i]) == math.Float64bits(f.Values()[i])
			}
			if !equal {
				t.Fatalf("%s: column %s row %d = %s, want %s", label, wc.Name, i, gc.Vec.Format(i), wc.Vec.Format(i))
			}
		}
	}
	gp, wp := got.Prob(), want.Prob()
	for i := range wp {
		if math.Float64bits(gp[i]) != math.Float64bits(wp[i]) {
			t.Fatalf("%s: prob[%d] = %v, want %v", label, i, gp[i], wp[i])
		}
	}
}

// execCounting runs plan over tables at parallelism par on a fresh
// context and returns the result and the operators it executed.
func execCounting(t *testing.T, tables map[string]*relation.Relation, plan Node, par int) (*relation.Relation, int64) {
	t.Helper()
	cat := catalog.New(0)
	for name, rel := range tables {
		cat.Put(name, rel)
	}
	ctx := NewCtx(cat)
	ctx.Parallelism = par
	rel, err := ctx.Exec(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	return rel, ctx.NodeExecs()
}

// unfused is plan's reference: its aggregate over the same join behind a
// Materialize, which the aggregate cannot fold through.
func unfused(a *Aggregate) *Aggregate {
	return NewAggregate(NewMaterialize(a.Child), a.GroupBy, a.Aggs, a.PMode)
}

// scoreJoin is the score plan's join: probe Q against the materialized
// postings W on key, gathering out (nil: every column).
func scoreJoin(key string, out []JoinCol) *HashJoin {
	return newHashJoin(NewScan("Q"), NewMaterialize(NewScan("W")), []string{key}, []string{key}, JoinLeft, out)
}

// TestGroupJoinMatchesUnfused: an Aggregate over a dense join whose group
// and aggregate columns come from the build side folds from the join
// index, and its result is bit-identical (values, Float64bits, row order)
// to grouping the join's output, at parallelism 1, 2 and 8 — with the
// join's output list set or not, dict or integer group keys, and over
// 16 384 pairs, where the fold is chunked. The fused plan executes one
// operator fewer: its join never runs as one.
func TestGroupJoinMatchesUnfused(t *testing.T) {
	out := []JoinCol{{Right: true, Col: "docID", Name: "docID"}, {Right: true, Col: "w", Name: "w"}, {Right: true, Col: "tf", Name: "tf"}}
	for _, tc := range []struct {
		name                      string
		rows, terms, docs, probes int
		dictDocs                  bool
		out                       []JoinCol
		chunked                   bool
	}{
		{"dict-docs", 6000, 40, 300, 6, true, out, false},
		{"int-docs-all-columns", 6000, 40, 300, 6, false, nil, false},
		{"chunked", 40000, 50, 2000, 60, true, out, true},
		{"chunked-int-docs", 40000, 50, 2000, 60, false, nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tables := groupJoinTables(rand.New(rand.NewSource(53)), tc.rows, tc.terms, tc.docs, tc.probes, 1, tc.dictDocs)
			plan := NewAggregate(scoreJoin("termID", tc.out), []string{"docID"}, groupJoinAggs, GroupCertain)
			want, wantExecs := execCounting(t, tables, unfused(plan), 1)
			if want.NumRows() == 0 {
				t.Fatal("no groups: the comparison is vacuous")
			}
			pairs := 0
			for _, q := range tables["Q"].Col(0).Vec.(*vector.Int64s).Values() {
				for _, w := range tables["W"].Col(0).Vec.(*vector.Int64s).Values() {
					if q == w {
						pairs++
					}
				}
			}
			if chunks := len(aggRanges(pairs, want.NumRows())); (chunks > 1) != tc.chunked {
				t.Fatalf("%d pairs fold in %d chunks; want chunked = %v", pairs, chunks, tc.chunked)
			}
			for _, par := range []int{1, 2, 8} {
				got, execs := execCounting(t, tables, plan, par)
				mustBitEqual(t, fmt.Sprintf("par=%d", par), got, want)
				if execs != wantExecs-1 {
					t.Fatalf("par=%d: %d operators executed, want %d (the unfused plan's %d less its join)", par, execs, wantExecs-1, wantExecs)
				}
			}
		})
	}
}

// TestGroupJoinFallbacks: an Aggregate over a join the fused path does
// not apply to runs the join as an operator over the inputs it already
// executed, with the same result and the same operators executed as the
// unfused plan: a hashed join key, a group key too sparse to address
// directly, a group column from the probe side, a probabilistic grouping,
// and a Materialize between the aggregate and the join.
func TestGroupJoinFallbacks(t *testing.T) {
	dense := groupJoinTables(rand.New(rand.NewSource(59)), 6000, 40, 300, 6, 1, false)
	sparse := groupJoinTables(rand.New(rand.NewSource(59)), 6000, 40, 300, 6, 1_000_003, false)
	for _, tc := range []struct {
		name   string
		tables map[string]*relation.Relation
		plan   *Aggregate
	}{
		{"hashed-join-key", dense,
			NewAggregate(scoreJoin("term", nil), []string{"docID"}, groupJoinAggs, GroupCertain)},
		{"sparse-group-key", sparse,
			NewAggregate(scoreJoin("termID", nil), []string{"docID"}, groupJoinAggs, GroupCertain)},
		{"probe-side-group", dense,
			NewAggregate(scoreJoin("termID", nil), []string{"qid"}, groupJoinAggs, GroupCertain)},
		{"independent", dense,
			NewAggregate(scoreJoin("termID", nil), []string{"docID"}, groupJoinAggs, GroupIndependent)},
		{"materialized-join", dense,
			unfused(NewAggregate(scoreJoin("termID", nil), []string{"docID"}, groupJoinAggs, GroupCertain))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, wantExecs := execCounting(t, tc.tables, unfused(tc.plan), 1)
			if want.NumRows() == 0 {
				t.Fatal("no groups: the comparison is vacuous")
			}
			for _, par := range []int{1, 2, 8} {
				got, execs := execCounting(t, tc.tables, tc.plan, par)
				mustBitEqual(t, fmt.Sprintf("par=%d", par), got, want)
				if execs != wantExecs {
					t.Fatalf("par=%d: %d operators executed, want the unfused plan's %d", par, execs, wantExecs)
				}
			}
		})
	}
}
