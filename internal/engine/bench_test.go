package engine

import (
	"context"
	"fmt"
	"hash/maphash"
	"math/rand"
	"testing"

	"irdb/internal/catalog"
	"irdb/internal/expr"
	"irdb/internal/relation"
	"irdb/internal/vector"
)

// benchRelation builds an n-row (k string, v int64) relation with nKeys
// distinct keys.
func benchRelation(n, nKeys int) *relation.Relation {
	keys := make([]string, n)
	vals := make([]int64, n)
	for i := 0; i < n; i++ {
		keys[i] = fmt.Sprintf("k%06d", i%nKeys)
		vals[i] = int64(i)
	}
	return relation.MustFromColumns([]relation.Column{
		{Name: "k", Vec: vector.FromStrings(keys)},
		{Name: "v", Vec: vector.FromInt64s(vals)},
	}, nil)
}

func benchCtx(n, nKeys int) *Ctx {
	cat := catalog.New(0)
	cat.Put("t", benchRelation(n, nKeys))
	cat.Put("dict", benchRelation(nKeys, nKeys))
	return NewCtx(cat)
}

func BenchmarkSelect(b *testing.B) {
	ctx := benchCtx(100000, 1000)
	plan := NewSelect(NewScan("t"),
		expr.Cmp{Op: expr.Eq, L: expr.Column("k"), R: expr.Str("k000007")})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Exec(context.Background(), plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashJoinManyToOne(b *testing.B) {
	ctx := benchCtx(100000, 1000)
	plan := NewHashJoin(NewScan("t"), NewScan("dict"),
		[]string{"k"}, []string{"k"}, JoinLeft)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Exec(context.Background(), plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashJoinCachedIndex(b *testing.B) {
	ctx := benchCtx(100000, 1000)
	plan := NewHashJoin(NewScan("t"), NewMaterialize(NewScan("dict")),
		[]string{"k"}, []string{"k"}, JoinLeft)
	if _, err := ctx.Exec(context.Background(), plan); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Exec(context.Background(), plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregateHighCardinality(b *testing.B) {
	ctx := benchCtx(100000, 50000)
	plan := NewAggregate(NewScan("t"), []string{"k"},
		[]AggSpec{{Op: CountAll, As: "n"}, {Op: Sum, Col: "v", As: "s"}}, GroupCertain)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Exec(context.Background(), plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregateLowCardinality(b *testing.B) {
	ctx := benchCtx(100000, 16)
	plan := NewAggregate(NewScan("t"), []string{"k"},
		[]AggSpec{{Op: CountAll, As: "n"}}, GroupIndependent)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Exec(context.Background(), plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopN(b *testing.B) {
	ctx := benchCtx(100000, 100000)
	plan := NewTopN(NewScan("t"), 10, SortSpec{Col: "v", Desc: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Exec(context.Background(), plan); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Morsel-parallel materialization microbenchmarks: each pair compares the
// serial legacy path against the write-at-offset parallel path at 8
// workers, on a string key, numeric columns and random probabilities.

// matRel builds the materialization benchmark input: n rows of (k string,
// v int64, x float64) with nKeys distinct keys and random probabilities.
func matRel(n, nKeys int) *relation.Relation {
	r := rand.New(rand.NewSource(42))
	keys := make([]string, n)
	vals := make([]int64, n)
	xs := make([]float64, n)
	ps := make([]float64, n)
	for i := 0; i < n; i++ {
		keys[i] = fmt.Sprintf("k%06d", r.Intn(nKeys))
		vals[i] = int64(r.Intn(1 << 30))
		xs[i] = r.Float64()
		ps[i] = r.Float64()
	}
	return relation.MustFromColumns([]relation.Column{
		{Name: "k", Vec: vector.FromStrings(keys)},
		{Name: "v", Vec: vector.FromInt64s(vals)},
		{Name: "x", Vec: vector.FromFloat64s(xs)},
	}, ps)
}

func shuffledSel(n int) []int {
	r := rand.New(rand.NewSource(43))
	sel := r.Perm(n)
	return sel
}

const matRows = 400000

func BenchmarkGatherSerial(b *testing.B) {
	rel := matRel(matRows, 20000)
	sel := shuffledSel(matRows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rel.Gather(sel)
	}
}

func BenchmarkGatherParallel8(b *testing.B) {
	rel := matRel(matRows, 20000)
	sel := shuffledSel(matRows)
	ctx := &Ctx{Parallelism: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gatherParallel(context.Background(), ctx, rel, sel); err != nil {
			b.Fatal(err)
		}
	}
}

var topNKeys = []relation.SortKey{{Col: relation.ProbCol, Desc: true}, {Col: 0}}

func BenchmarkTopNFullSort(b *testing.B) {
	rel := matRel(matRows, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rel.SortedSel(topNKeys)[:50]
	}
}

// BenchmarkTopNSerialFallback measures topNSel at parallelism 1, which
// takes the single-morsel fallback (a full SortedSel) — it should match
// BenchmarkTopNFullSort, not the heap-and-merge path that TopNMerge8
// exercises.
func BenchmarkTopNSerialFallback(b *testing.B) {
	rel := matRel(matRows, 20000)
	ctx := &Ctx{Parallelism: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = topNSel(context.Background(), ctx, rel, topNKeys, 50)
	}
}

func BenchmarkTopNMerge8(b *testing.B) {
	rel := matRel(matRows, 20000)
	ctx := &Ctx{Parallelism: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = topNSel(context.Background(), ctx, rel, topNKeys, 50)
	}
}

func benchJoinBuild(b *testing.B, par int) {
	rel := matRel(matRows, 20000)
	ctx := &Ctx{Parallelism: par}
	hashes := hashRowsParallel(context.Background(), ctx, rel, maphash.MakeSeed(), []int{0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildBuckets(context.Background(), ctx, hashes)
	}
}

func BenchmarkJoinBuildSerial(b *testing.B)    { benchJoinBuild(b, 1) }
func BenchmarkJoinBuildParallel8(b *testing.B) { benchJoinBuild(b, 8) }

func benchGroupRows(b *testing.B, par int) {
	rel := matRel(matRows, 20000)
	ctx := &Ctx{Parallelism: par}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groupRows(context.Background(), ctx, rel, []int{0})
	}
}

func BenchmarkGroupRowsSerial(b *testing.B)    { benchGroupRows(b, 1) }
func BenchmarkGroupRowsParallel8(b *testing.B) { benchGroupRows(b, 8) }

func benchConcat(b *testing.B, par int) {
	parts := make([]*relation.Relation, 8)
	for i := range parts {
		parts[i] = matRel(matRows/8, 20000)
	}
	ctx := &Ctx{Parallelism: par}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := concatAll(context.Background(), ctx, parts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConcatSerial(b *testing.B)    { benchConcat(b, 1) }
func BenchmarkConcatParallel8(b *testing.B) { benchConcat(b, 8) }

func BenchmarkNormalizeGrouped(b *testing.B) {
	ctx := benchCtx(100000, 1000)
	plan := NewNormalize(NewScan("t"), []int{0}, NormSum)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Exec(context.Background(), plan); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// PR 3 microbenchmarks: the last three serial stages made parallel. On this
// 1-CPU dev container only the algorithmic wins (open-addressing probe vs
// map probe) show in wall-clock; the merge-sort and chunked-aggregation
// scaling needs a multi-core host (see ROADMAP).

var sortKeys = []relation.SortKey{{Col: 0}, {Col: 2, Desc: true}}

// BenchmarkSortFullSliceStable is the serial baseline the parallel merge
// sort is measured against: one sort.SliceStable over all 400k rows.
func BenchmarkSortFullSliceStable(b *testing.B) {
	rel := matRel(matRows, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rel.SortedSel(sortKeys)
	}
}

func benchSortMerge(b *testing.B, par int) {
	rel := matRel(matRows, 20000)
	ctx := &Ctx{Parallelism: par}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = sortSel(context.Background(), ctx, rel, sortKeys)
	}
}

// BenchmarkSortMergeSerialFallback is sortSel at parallelism 1: bounded
// runs (sortRunRows each) sorted inline plus the k-way merge — already
// ahead of BenchmarkSortFullSliceStable, since sorting k runs of n/k
// rows costs fewer comparisons than one run of n.
func BenchmarkSortMergeSerialFallback(b *testing.B) { benchSortMerge(b, 1) }

// BenchmarkSortMerge2 / 8: the same bounded runs with per-run sorts
// spread over w workers, so the critical path drops toward
// O((n/w)·log(run) + n·log k).
func BenchmarkSortMerge2(b *testing.B) { benchSortMerge(b, 2) }
func BenchmarkSortMerge8(b *testing.B) { benchSortMerge(b, 8) }

func benchAggMorsel(b *testing.B, par, nKeys int) {
	rel := matRel(matRows, nKeys)
	cat := catalog.New(0)
	cat.Put("m", rel)
	ctx := NewCtx(cat)
	ctx.Parallelism = par
	plan := NewAggregate(NewScan("m"), []string{"k"}, []AggSpec{
		{Op: CountAll, As: "n"},
		{Op: Sum, Col: "x", As: "sx"},
		{Op: MaxProb, As: "mp"},
	}, GroupDisjoint)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Exec(context.Background(), plan); err != nil {
			b.Fatal(err)
		}
	}
}

// Aggregation over 400k rows with chunk-parallel accumulators: high group
// cardinality (20k groups — dense partials are wide) and low cardinality
// (16 groups — partials are tiny, accumulation is the whole cost).
func BenchmarkAggregateMorselHighCard1(b *testing.B) { benchAggMorsel(b, 1, 20000) }
func BenchmarkAggregateMorselHighCard8(b *testing.B) { benchAggMorsel(b, 8, 20000) }
func BenchmarkAggregateMorselLowCard1(b *testing.B)  { benchAggMorsel(b, 1, 16) }
func BenchmarkAggregateMorselLowCard8(b *testing.B)  { benchAggMorsel(b, 8, 16) }

// probeWorkload builds the join-probe benchmark input: 20k distinct build
// hashes (with a few duplicate rows per hash) and 400k probe hashes
// drawn from the build domain.
func probeWorkload() (build, probe []uint64) {
	r := rand.New(rand.NewSource(44))
	distinct := make([]uint64, 20000)
	for i := range distinct {
		distinct[i] = r.Uint64()
	}
	build = make([]uint64, 30000)
	for i := range build {
		if i < len(distinct) {
			build[i] = distinct[i]
		} else {
			build[i] = distinct[r.Intn(len(distinct))]
		}
	}
	probe = make([]uint64, matRows)
	for i := range probe {
		probe[i] = distinct[r.Intn(len(distinct))]
	}
	return build, probe
}

var benchProbeSink int

// BenchmarkJoinProbeMap is the pre-PR-3 probe path: a Go map of row
// slices, one pointer chase to the bucket header plus one to its backing
// array per probe.
func BenchmarkJoinProbeMap(b *testing.B) {
	build, probe := probeWorkload()
	m := make(map[uint64][]int, len(build))
	for i, h := range build {
		m[h] = append(m[h], i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, h := range probe {
			n += len(m[h])
		}
		benchProbeSink = n
	}
}

// BenchmarkJoinProbeOpen probes the flat open-addressing table at
// parallelism 1 — the apples-to-apples comparison showing the algorithmic
// win over the map probe independent of core count.
func BenchmarkJoinProbeOpen(b *testing.B) {
	build, probe := probeWorkload()
	idx, _ := buildBuckets(context.Background(), &Ctx{Parallelism: 1}, build)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, h := range probe {
			n += len(idx.lookup(h))
		}
		benchProbeSink = n
	}
}

// ---------------------------------------------------------------------------
// Dictionary-encoded vs raw string keys: the same operator over the same
// logical data, once with plain Strings columns and once with DictStrings
// columns sharing one frozen dict. Parallelism is pinned to 1 so the
// deltas are purely algorithmic (code hash/compare vs string hash/compare).

// benchCtxEncoded is benchCtx with the string key columns of both tables
// dictionary-encoded into one shared frozen dict, as a loader would.
func benchCtxEncoded(n, nKeys int) *Ctx {
	enc, err := relation.EncodeStringsShared(
		[]*relation.Relation{benchRelation(n, nKeys), benchRelation(nKeys, nKeys)},
		[][]string{{"k"}, {"k"}})
	if err != nil {
		panic(err)
	}
	cat := catalog.New(0)
	cat.Put("t", enc[0])
	cat.Put("dict", enc[1])
	return NewCtx(cat)
}

func benchPlanLoop(b *testing.B, ctx *Ctx, plan Node) {
	b.Helper()
	ctx.Parallelism = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Exec(context.Background(), plan); err != nil {
			b.Fatal(err)
		}
	}
}

const dictBenchRows = 200000

func stringJoinPlan() Node {
	return NewHashJoin(NewScan("t"), NewScan("dict"), []string{"k"}, []string{"k"}, JoinLeft)
}

func BenchmarkJoinStringKeyRaw(b *testing.B) {
	benchPlanLoop(b, benchCtx(dictBenchRows, 20000), stringJoinPlan())
}

func BenchmarkJoinStringKeyEncoded(b *testing.B) {
	benchPlanLoop(b, benchCtxEncoded(dictBenchRows, 20000), stringJoinPlan())
}

func stringGroupPlan() Node {
	return NewAggregate(NewScan("t"), []string{"k"},
		[]AggSpec{{Op: CountAll, As: "n"}}, GroupCertain)
}

func BenchmarkGroupByStringKeyRaw(b *testing.B) {
	benchPlanLoop(b, benchCtx(dictBenchRows, 50000), stringGroupPlan())
}

func BenchmarkGroupByStringKeyEncoded(b *testing.B) {
	benchPlanLoop(b, benchCtxEncoded(dictBenchRows, 50000), stringGroupPlan())
}

func stringSortPlan() Node {
	return NewSort(NewScan("t"), SortSpec{Col: "k"})
}

func BenchmarkSortStringKeyRaw(b *testing.B) {
	benchPlanLoop(b, benchCtx(dictBenchRows, 50000), stringSortPlan())
}

func BenchmarkSortStringKeyEncoded(b *testing.B) {
	benchPlanLoop(b, benchCtxEncoded(dictBenchRows, 50000), stringSortPlan())
}

func stringSelectPlan() Node {
	return NewSelect(NewScan("t"),
		expr.Cmp{Op: expr.Eq, L: expr.Column("k"), R: expr.Str("k000007")})
}

func BenchmarkSelectStringEqRaw(b *testing.B) {
	benchPlanLoop(b, benchCtx(dictBenchRows, 20000), stringSelectPlan())
}

func BenchmarkSelectStringEqEncoded(b *testing.B) {
	benchPlanLoop(b, benchCtxEncoded(dictBenchRows, 20000), stringSelectPlan())
}

// selectBelowJoinPlan is the optimizer's poster child: a selective
// predicate written above a join. Naive execution joins everything and
// then filters; the optimizer pushes the selection below the join so the
// probe side shrinks before any hashing happens.
func selectBelowJoinPlan() Node {
	return NewSelect(
		NewHashJoin(NewScan("t"), NewScan("dict"), []string{"k"}, []string{"k"}, JoinLeft),
		expr.Cmp{Op: expr.Eq, L: expr.Column("k"), R: expr.Str("k000007")})
}

func BenchmarkSelectBelowJoinNaive(b *testing.B) {
	benchPlanLoop(b, benchCtxEncoded(dictBenchRows, 20000), selectBelowJoinPlan())
}

func BenchmarkSelectBelowJoinOptimized(b *testing.B) {
	ctx := benchCtxEncoded(dictBenchRows, 20000)
	plan := ctx.Optimize(selectBelowJoinPlan())
	benchPlanLoop(b, ctx, plan)
}
