package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"irdb/internal/catalog"
	"irdb/internal/expr"
	"irdb/internal/relation"
	"irdb/internal/vector"
)

// randRel builds a randomized relation with an int key column "a" (domain
// [0, keyDomain)), a low-cardinality string column "b", a float column "x",
// and random probabilities — enough variety to exercise every operator's
// key matching, grouping and probability arithmetic. Sizes above 2*minMorsel
// force real morsel splitting at Parallelism > 1.
func randRel(r *rand.Rand, n, keyDomain int) *relation.Relation {
	a := make([]int64, n)
	b := make([]string, n)
	x := make([]float64, n)
	p := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = int64(r.Intn(keyDomain))
		b[i] = fmt.Sprintf("k%d", r.Intn(17))
		x[i] = r.Float64() * 100
		p[i] = r.Float64()
	}
	return relation.MustFromColumns([]relation.Column{
		{Name: "a", Vec: vector.FromInt64s(a)},
		{Name: "b", Vec: vector.FromStrings(b)},
		{Name: "x", Vec: vector.FromFloat64s(x)},
	}, p)
}

// scaleKeys returns rel with every value of its int column col multiplied
// by scale, sharing the other columns and the probabilities.
func scaleKeys(rel *relation.Relation, col string, scale int64) *relation.Relation {
	cols := append([]relation.Column(nil), rel.Columns()...)
	ci := rel.ColIndex(col)
	vals := cols[ci].Vec.(*vector.Int64s).Values()
	scaled := make([]int64, len(vals))
	for i, v := range vals {
		scaled[i] = v * scale
	}
	cols[ci].Vec = vector.FromInt64s(scaled)
	return relation.MustFromColumns(cols, rel.Prob())
}

// subsetWithNoise returns a relation sharing some of src's rows (so
// Subtract and Distinct find genuine matches) mixed with fresh random rows.
func subsetWithNoise(r *rand.Rand, src *relation.Relation, keep, noise int) *relation.Relation {
	sel := make([]int, keep)
	for i := range sel {
		sel[i] = r.Intn(src.NumRows())
	}
	out := src.Gather(sel)
	p := make([]float64, out.NumRows())
	for i := range p {
		p[i] = r.Float64()
	}
	out.SetProb(p)
	joined, err := concatAll(context.Background(), NewCtx(nil), []*relation.Relation{out, randRel(r, noise, 64)})
	if err != nil {
		panic(err)
	}
	return joined
}

// ctxAt returns a fresh context over fresh copies of the given tables, so
// runs at different parallelism levels share no cache state.
func ctxAt(par int, tables map[string]*relation.Relation) *Ctx {
	cat := catalog.New(0)
	for name, rel := range tables {
		cat.Put(name, rel)
	}
	ctx := NewCtx(cat)
	ctx.Parallelism = par
	return ctx
}

// mustEqualRel asserts two relations are identical: schema, row order, all
// cell values, and bit-identical probabilities.
func mustEqualRel(t *testing.T, want, got *relation.Relation, label string) {
	t.Helper()
	if want.NumRows() != got.NumRows() {
		t.Fatalf("%s: rows = %d, want %d", label, got.NumRows(), want.NumRows())
	}
	if want.NumCols() != got.NumCols() {
		t.Fatalf("%s: cols = %d, want %d", label, got.NumCols(), want.NumCols())
	}
	for c := 0; c < want.NumCols(); c++ {
		wc, gc := want.Col(c), got.Col(c)
		if wc.Name != gc.Name {
			t.Fatalf("%s: column %d name = %q, want %q", label, c, gc.Name, wc.Name)
		}
		if wc.Vec.Kind() != gc.Vec.Kind() {
			t.Fatalf("%s: column %q kind = %v, want %v", label, wc.Name, gc.Vec.Kind(), wc.Vec.Kind())
		}
	}
	wp, gp := want.Prob(), got.Prob()
	for i := 0; i < want.NumRows(); i++ {
		for c := 0; c < want.NumCols(); c++ {
			if !want.Col(c).Vec.EqualAt(i, got.Col(c).Vec, i) {
				t.Fatalf("%s: row %d column %q: %s != %s",
					label, i, want.Col(c).Name, got.Col(c).Vec.Format(i), want.Col(c).Vec.Format(i))
			}
		}
		if wp[i] != gp[i] {
			t.Fatalf("%s: row %d probability %v != %v", label, i, gp[i], wp[i])
		}
	}
}

// TestSerialParallelEquivalence is the property suite of the parallel
// engine: every operator, run at Parallelism 1, 2 and 8 over the same
// randomized inputs, must produce identical rows, column order and
// probabilities. Each case runs over both key families: the int key a
// dense enough to join and group by value, and spread to hash.
func TestSerialParallelEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	left := randRel(r, 9000, 3000)
	right := randRel(r, 7000, 3000)
	overlap := subsetWithNoise(r, left, 4000, 3000)
	families := make([]map[string]*relation.Relation, len(keyFamilies))
	for f, keys := range keyFamilies {
		tables := map[string]*relation.Relation{
			"L": scaleKeys(left, "a", keys.scale),
			"R": scaleKeys(right, "a", keys.scale),
			"O": scaleKeys(overlap, "a", keys.scale),
		}
		assertKeyPath(t, tables["R"], "a", denseJoinSlots, keys.dense)
		assertKeyPath(t, tables["L"], "a", denseGroupSlots, keys.dense)
		families[f] = tables
	}
	scanL := NewScan("L")
	scanR := NewScan("R")
	scanO := NewScan("O")
	pred := expr.Or{
		L: expr.Cmp{Op: expr.Lt, L: expr.Column("a"), R: expr.Int(700)},
		R: expr.Cmp{Op: expr.Eq, L: expr.Column("b"), R: expr.Str("k3")},
	}

	cases := []struct {
		name string
		plan Node
	}{
		{"join-independent", NewHashJoin(scanL, scanR, []string{"a"}, []string{"a"}, JoinIndependent)},
		{"join-left", NewHashJoin(scanL, scanR, []string{"a"}, []string{"a"}, JoinLeft)},
		{"join-multikey", NewHashJoin(scanL, scanO, []string{"a", "b"}, []string{"a", "b"}, JoinIndependent)},
		{"join-materialized-build", NewHashJoin(scanL, NewMaterialize(NewSelect(scanR, pred)),
			[]string{"a"}, []string{"a"}, JoinIndependent)},
		{"union", NewUnion(scanL, scanO)},
		{"concat", NewUnion(NewUnion(NewUnion(scanL, scanO), NewSelect(scanR, pred)), scanR)},
		{"unite-independent", NewDistinct(NewUnion(scanL, scanO), GroupIndependent)},
		{"unite-disjoint", NewDistinct(NewUnion(scanL, scanO), GroupDisjoint)},
		{"unite-max", NewDistinct(NewUnion(scanL, scanO), GroupMax)},
		{"subtract-prob", NewSubtract(scanL, scanO, false)},
		{"subtract-boolean", NewSubtract(scanL, scanO, true)},
		{"select", NewSelect(scanL, pred)},
		{"project", NewProject(scanL, ProjCol{Name: "b", E: expr.Column("b")},
			ProjCol{Name: "x2", E: expr.Arith{Op: expr.Mul, L: expr.Column("x"), R: expr.Float(2)}})},
		{"extend", NewProject(scanL, append(ByName("a", "b", "x"),
			ProjCol{Name: "y", E: expr.Arith{Op: expr.Add, L: expr.Column("x"), R: expr.Float(1)}})...)},
		{"sort", NewSort(scanL, SortSpec{Col: "b"}, SortSpec{Col: "x", Desc: true})},
		{"sort-by-prob", NewSort(scanL, SortSpec{Col: "", Desc: true})},
		{"topn", NewTopN(scanL, 100, SortSpec{Col: "", Desc: true}, SortSpec{Col: "a"})},
		{"topn-dups", NewTopN(scanL, 500, SortSpec{Col: "b"}, SortSpec{Col: "", Desc: true})},
		{"topn-large-n", NewTopN(scanL, 8000, SortSpec{Col: "x", Desc: true})},
		{"topn-over-input", NewTopN(scanL, 20000, SortSpec{Col: "a"}, SortSpec{Col: "b", Desc: true})},
		{"limit", NewLimit(scanL, 123)},
		{"rename", NewProject(scanL, ProjCol{Name: "c1", E: expr.Column("a")},
			ProjCol{Name: "c2", E: expr.Column("b")}, ProjCol{Name: "c3", E: expr.Column("x")})},
		{"aggregate", NewAggregate(scanL, []string{"b"}, []AggSpec{
			{Op: CountAll, As: "n"},
			{Op: Sum, Col: "x", As: "sx"},
			{Op: Avg, Col: "x", As: "ax"},
			{Op: Min, Col: "a", As: "mina"},
			{Op: Max, Col: "a", As: "maxa"},
			{Op: SumProb, As: "sp"},
			{Op: MaxProb, As: "mp"},
		}, GroupDisjoint)},
		{"aggregate-independent", NewAggregate(scanL, []string{"b"}, []AggSpec{{Op: CountAll, As: "n"}}, GroupIndependent)},
		{"aggregate-high-cardinality", NewAggregate(scanL, []string{"a"}, []AggSpec{
			{Op: CountAll, As: "n"}, {Op: SumProb, As: "sp"}}, GroupDisjoint)},
		{"aggregate-multi-key", NewAggregate(scanL, []string{"b", "a"}, []AggSpec{{Op: Max, Col: "x", As: "mx"}}, GroupMax)},
		{"aggregate-sumraw", NewAggregate(scanL, []string{"b"}, []AggSpec{{Op: Count, Col: "x", As: "n"}}, GroupSumRaw)},
		{"distinct", NewDistinct(NewProject(scanL, ByName("b")...), GroupIndependent)},
		{"rownumber", NewRowNumber(scanL, "rowid")},
		{"scaleprob", NewScaleProb(scanL, 0.25)},
		{"probfromcol", NewProbFromCol(scanL, "x", true, true)},
		{"probtocol", NewProject(scanL, append(ByName("a", "b", "x"), ProjCol{Name: "score", E: expr.Prob{}})...)},
		{"normalize", NewNormalize(scanL, []string{"b"}, NormSum)},
		{"normalize-max-global", NewNormalize(scanL, nil, NormMax)},
		{"composite", NewTopN(
			NewDistinct(NewUnion(
				NewScaleProb(NewHashJoin(NewSelect(scanL, pred), NewMaterialize(scanR),
					[]string{"a"}, []string{"a"}, JoinIndependent), 0.7),
				NewScaleProb(NewHashJoin(scanO, scanL, []string{"a"}, []string{"a"}, JoinLeft), 0.3)),
				GroupIndependent),
			200, SortSpec{Col: "", Desc: true}, SortSpec{Col: "a"})},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for f, keys := range keyFamilies {
				t.Run(keys.name, func(t *testing.T) {
					var want *relation.Relation
					for _, par := range []int{1, 2, 8} {
						got, err := ctxAt(par, families[f]).Exec(context.Background(), tc.plan)
						if err != nil {
							t.Fatalf("parallelism %d: %v", par, err)
						}
						if par == 1 {
							want = got
							if got.NumRows() == 0 {
								t.Fatalf("degenerate case: serial run produced no rows")
							}
							continue
						}
						mustEqualRel(t, want, got, fmt.Sprintf("parallelism %d", par))
					}
				})
			}
		})
	}
}

// TestAggregationChunkedEquivalence runs the accumulating operators over
// an input large enough to split into multiple aggregation chunks
// (> 2*aggChunk rows), so the per-chunk partial accumulators and their
// fixed-order merge — not the single-chunk serial fallback — are what is
// being compared across parallelism 1, 2 and 8.
func TestAggregationChunkedEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	rows := 2*aggChunk + 4321
	if len(aggRanges(rows, 300)) < 2 {
		t.Fatalf("test input does not split into chunks; aggRanges gave %v", aggRanges(rows, 300))
	}
	tables := map[string]*relation.Relation{"B": randRel(r, rows, 300)}
	scanB := NewScan("B")
	allAggs := []AggSpec{
		{Op: CountAll, As: "n"},
		{Op: Count, Col: "x", As: "cx"},
		{Op: Sum, Col: "x", As: "sx"},
		{Op: Sum, Col: "a", As: "sa"},
		{Op: Avg, Col: "x", As: "ax"},
		{Op: Min, Col: "b", As: "minb"},
		{Op: Max, Col: "b", As: "maxb"},
		{Op: Min, Col: "x", As: "minx"},
		{Op: Max, Col: "x", As: "maxx"},
		{Op: SumProb, As: "sp"},
		{Op: MaxProb, As: "mp"},
	}
	cases := []struct {
		name string
		plan Node
	}{
		{"agg-disjoint", NewAggregate(scanB, []string{"b"}, allAggs, GroupDisjoint)},
		{"agg-independent", NewAggregate(scanB, []string{"b"}, allAggs, GroupIndependent)},
		{"agg-max", NewAggregate(scanB, []string{"b"}, allAggs, GroupMax)},
		{"agg-sumraw-global", NewAggregate(scanB, nil, allAggs, GroupSumRaw)},
		{"agg-high-cardinality", NewAggregate(scanB, []string{"a"}, []AggSpec{
			{Op: Sum, Col: "x", As: "sx"}, {Op: SumProb, As: "sp"}}, GroupIndependent)},
		{"distinct", NewDistinct(NewProject(scanB, ByName("b")...), GroupDisjoint)},
		{"normalize-grouped", NewNormalize(scanB, []string{"b"}, NormSum)},
		{"normalize-grouped-max", NewNormalize(scanB, []string{"b"}, NormMax)},
		{"normalize-global", NewNormalize(scanB, nil, NormSum)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want *relation.Relation
			for _, par := range []int{1, 2, 8} {
				got, err := ctxAt(par, tables).Exec(context.Background(), tc.plan)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				if par == 1 {
					want = got
					if got.NumRows() == 0 {
						t.Fatalf("degenerate case: serial run produced no rows")
					}
					continue
				}
				mustEqualRel(t, want, got, fmt.Sprintf("parallelism %d", par))
			}
		})
	}
}

// TestEquivalenceUnderMaterialize re-runs a top-k over a materialized
// join twice per context, at each parallelism level: the cold run, the hot
// run (answered from the cache) and the serial baseline must agree.
func TestEquivalenceUnderMaterialize(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	tables := map[string]*relation.Relation{
		"L": randRel(r, 6000, 500),
		"R": randRel(r, 5000, 500),
	}
	plan := NewTopN(NewMaterialize(
		NewHashJoin(NewScan("L"), NewScan("R"), []string{"a", "b"}, []string{"a", "b"}, JoinIndependent)),
		300, SortSpec{Col: "", Desc: true}, SortSpec{Col: "a"})
	var want *relation.Relation
	for _, par := range []int{1, 2, 8} {
		ctx := ctxAt(par, tables)
		cold, err := ctx.Exec(context.Background(), plan)
		if err != nil {
			t.Fatalf("parallelism %d cold: %v", par, err)
		}
		hot, err := ctx.Exec(context.Background(), plan)
		if err != nil {
			t.Fatalf("parallelism %d hot: %v", par, err)
		}
		if ctx.CacheHits() != 1 {
			t.Fatalf("parallelism %d: hot run had %d cache hits, want 1", par, ctx.CacheHits())
		}
		mustEqualRel(t, cold, hot, fmt.Sprintf("parallelism %d hot-vs-cold", par))
		if want == nil {
			want = cold
			continue
		}
		mustEqualRel(t, want, cold, fmt.Sprintf("parallelism %d vs serial", par))
	}
}

// slowNode wraps a child and sleeps before executing, widening the window
// in which concurrent executions of the same digest can stampede.
type slowNode struct {
	ident
	Child Node
	ID    string
	Delay time.Duration
}

func newSlowNode(child Node, id string, delay time.Duration) *slowNode {
	h := newHasher("slow")
	h.str(id)
	return &slowNode{ident: h.finish(child), Child: child, ID: id, Delay: delay}
}

func (s *slowNode) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) {
	time.Sleep(s.Delay)
	return ctx.Exec(context.Background(), s.Child)
}
func (s *slowNode) Children() []Node { return []Node{s.Child} }
func (s *slowNode) Label() string    { return "Slow " + s.ID }

// TestSingleFlightNodeExecs is the cache-stampede regression test: many
// goroutines executing the same Materialize'd plan against a cold cache
// must run the underlying subtree exactly once.
func TestSingleFlightNodeExecs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tables := map[string]*relation.Relation{"L": randRel(r, 4000, 100)}
	ctx := ctxAt(8, tables)
	plan := NewMaterialize(newSlowNode(
		NewSelect(NewScan("L"), expr.Cmp{Op: expr.Lt, L: expr.Column("a"), R: expr.Int(50)}),
		"stampede", 20*time.Millisecond))

	const goroutines = 16
	var wg sync.WaitGroup
	rels := make([]*relation.Relation, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rels[g], errs[g] = ctx.Exec(context.Background(), plan)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	// One slowNode exec + one Select exec + one Scan exec: the subtree ran
	// exactly once despite 16 concurrent cold requests.
	if got := ctx.NodeExecs(); got != 3 {
		t.Errorf("NodeExecs = %d, want 3 (single flight)", got)
	}
	if hits := ctx.CacheHits(); hits != goroutines-1 {
		t.Errorf("CacheHits = %d, want %d (every other goroutine served from the flight or cache)",
			hits, goroutines-1)
	}
	for g := 1; g < goroutines; g++ {
		if rels[g] != rels[0] {
			mustEqualRel(t, rels[0], rels[g], fmt.Sprintf("goroutine %d", g))
		}
	}
}

// TestSingleFlightErrorNotCached: a failing computation must propagate its
// error to every waiter and must not leave a poisoned cache entry.
func TestSingleFlightErrorNotCached(t *testing.T) {
	ctx := ctxAt(4, map[string]*relation.Relation{})
	bad := NewMaterialize(newSlowNode(NewScan("missing"), "err", 5*time.Millisecond))
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = ctx.Exec(context.Background(), bad)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err == nil {
			t.Fatalf("goroutine %d: want error", g)
		}
	}
	if n := ctx.Cat.Cache().Stats().Entries; n != 0 {
		t.Errorf("cache holds %d entries after failed flights, want 0", n)
	}
	// The table appearing later must make the plan succeed (no poisoning).
	ctx.Cat.Put("missing", relation.MustFromColumns(
		[]relation.Column{{Name: "v", Vec: vector.FromInt64s([]int64{1})}}, nil))
	if _, err := ctx.Exec(context.Background(), bad); err != nil {
		t.Fatalf("after table appears: %v", err)
	}
}

// TestNestedMaterializeNoDeadlock guards the Materialize-unwrap in Exec:
// Materialize shares its child's fingerprint, so without unwrapping, the
// single-flight leader would wait on itself.
func TestNestedMaterializeNoDeadlock(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tables := map[string]*relation.Relation{"L": randRel(r, 100, 10)}
	ctx := ctxAt(4, tables)
	plan := NewMaterialize(NewMaterialize(NewSelect(NewScan("L"),
		expr.Cmp{Op: expr.Lt, L: expr.Column("a"), R: expr.Int(5)})))
	done := make(chan error, 1)
	go func() {
		_, err := ctx.Exec(context.Background(), plan)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("nested Materialize deadlocked")
	}
}

// TestConcatErrors covers concatAll's error paths through Union: inputs
// of another arity or column kind, and a failing branch of a nested union.
func TestConcatErrors(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	tables := map[string]*relation.Relation{
		"L": randRel(r, 50, 10),
		"N": relation.MustFromColumns([]relation.Column{
			{Name: "only", Vec: vector.FromInt64s([]int64{1, 2})}}, nil),
	}
	ctx := ctxAt(4, tables)
	if _, err := ctx.Exec(context.Background(), NewUnion(NewScan("L"), NewScan("N"))); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := ctx.Exec(context.Background(), NewUnion(NewScan("L"), NewProject(NewScan("L"), ByName("b", "a", "x")...))); err == nil {
		t.Error("kind mismatch should fail")
	}
	if _, err := ctx.Exec(context.Background(), NewUnion(NewUnion(NewScan("L"), NewScan("nope")), NewScan("L"))); err == nil {
		t.Error("failing child should fail the union")
	}
}

// TestParallelRangesCoverage checks the morsel helpers partition exactly.
func TestParallelRangesCoverage(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, minMorsel, 2 * minMorsel, 2*minMorsel + 1, 100000} {
			ctx := &Ctx{Parallelism: par}
			var mu sync.Mutex
			seen := make([]bool, n)
			ctx.parallelRanges(context.Background(), n, func(lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				for i := lo; i < hi; i++ {
					if seen[i] {
						t.Fatalf("par=%d n=%d: row %d visited twice", par, n, i)
					}
					seen[i] = true
				}
			})
			for i, ok := range seen {
				if !ok {
					t.Fatalf("par=%d n=%d: row %d not visited", par, n, i)
				}
			}
			ranges := ctx.morselRanges(n)
			last := 0
			for _, rg := range ranges {
				if rg[0] != last {
					t.Fatalf("par=%d n=%d: gap before %d", par, n, rg[0])
				}
				last = rg[1]
			}
			if last != n {
				t.Fatalf("par=%d n=%d: ranges end at %d", par, n, last)
			}
		}
	}
}

// TestMorselRangesBoundedUnits: chunked loops decompose into units capped
// at morselUnitRows regardless of parallelism — the sortRunRows trick
// generalized to gather/hash loops — floored at minMorsel, with tiny
// inputs staying serial.
func TestMorselRangesBoundedUnits(t *testing.T) {
	cases := []struct {
		par, n    int
		wantCount int
	}{
		{1, 10 * morselUnitRows, 10}, // serial, still 10 cancellation units
		{8, 8 * morselUnitRows, 8},   // one unit per worker
		{8, 16 * morselUnitRows, 16}, // per-worker share above cap: capped
		{2, 2*minMorsel - 1, 1},      // tiny input stays serial
		{8, 4 * minMorsel, 4},        // floored at minMorsel
		{1, morselUnitRows, 1},       // exactly one unit
	}
	for _, tc := range cases {
		ctx := &Ctx{Parallelism: tc.par}
		ranges := ctx.morselRanges(tc.n)
		if len(ranges) != tc.wantCount {
			t.Errorf("par=%d n=%d: %d ranges, want %d", tc.par, tc.n, len(ranges), tc.wantCount)
		}
		for _, r := range ranges {
			if sz := r[1] - r[0]; sz > morselUnitRows {
				t.Errorf("par=%d n=%d: unit of %d rows exceeds morselUnitRows", tc.par, tc.n, sz)
			}
		}
	}
}

// TestChunkedLoopCancelsBetweenUnits: at parallelism 1 a chunked loop over
// many units stops at the first unit boundary after cancellation instead
// of finishing the whole input inline.
func TestChunkedLoopCancelsBetweenUnits(t *testing.T) {
	ctx := &Ctx{Parallelism: 1}
	n := 10 * morselUnitRows
	if got := len(ctx.morselRanges(n)); got < 2 {
		t.Fatalf("want multiple units at parallelism 1, got %d", got)
	}
	c, cancel := context.WithCancel(context.Background())
	units := 0
	ctx.parallelRanges(c, n, func(lo, hi int) {
		units++
		cancel() // cancelled mid-first-unit; no further unit may start
	})
	if units != 1 {
		t.Errorf("ran %d units after cancellation, want 1", units)
	}
}
