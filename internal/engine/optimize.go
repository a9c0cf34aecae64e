package engine

import (
	"sync/atomic"

	"irdb/internal/catalog"
	"irdb/internal/expr"
)

// Plan optimizer. Strategy compilation and the SpinQL compiler emit plans
// exactly as written — selections above joins, full-width scans. Optimize
// rewrites such a plan into a cheaper equivalent through three fixed rule
// passes; no cost model is consulted, and every hash join keeps its
// syntactic build side (the right input). Each Materialize is a barrier
// to all three passes: its sub-plan (a view) is optimized first, on its
// own, through the same passes (optimizeViews), and the passes then
// rewrite only the plan above the views:
//
//  1. pushdownPass — merge adjacent Selects and sink predicates below
//     joins, unions, distincts, extends and sorts, toward
//     the scans that produce their columns; fuse Limit(n, Sort(keys, x))
//     into TopN(n, keys, x), which keeps n rows instead of sorting all.
//  2. emptyPass — remove statically-empty branches (constant-false
//     selections, zero-row Values, zero limits) from set operations and
//     drop always-true selections.
//  3. prunePass — insert pass-through projections so operators only
//     materialize columns referenced downstream (scans narrow before
//     gathers, joins gather only the columns read above them,
//     materialized cache entries shrink).
//
// Every rewrite preserves bit-identical results for valid plans at any
// parallelism level — values, probabilities AND row order — because the
// engine's operators are themselves order-deterministic. Rewrites are
// conservative: a pass that cannot prove legality (unresolvable schema,
// probability-dependent predicates, duplicate column names, expressions it
// does not know) leaves the plan alone. Plans containing ?name parameters
// optimize before binding; passes treat parameters as opaque non-constant
// scalars, so a prepared statement is optimized once and bound many
// times.

// OptInfo counts what the optimizer did to one plan.
type OptInfo struct {
	SelectsMerged int `json:"selects_merged"`
	SelectsPushed int `json:"selects_pushed"`
	EmptyRewrites int `json:"empty_rewrites"`
	ColumnsPruned int `json:"columns_pruned"`
	SortsFused    int `json:"sorts_fused"`
}

func (i OptInfo) changed() bool {
	return i.SelectsMerged+i.SelectsPushed+i.EmptyRewrites+i.ColumnsPruned+i.SortsFused > 0
}

// Optimize rewrites plan through the pass pipeline, using cat (which may
// be nil) for schema resolution. The input plan is never mutated;
// untouched sub-plans are shared between input and output.
func Optimize(cat *catalog.Catalog, plan Node) (Node, OptInfo) {
	var info OptInfo
	plan = optimize(cat, plan, &info)
	return plan, info
}

// optimize replaces every view in plan with its optimized form, then runs
// the passes over the rest.
func optimize(cat *catalog.Catalog, plan Node, info *OptInfo) Node {
	plan = optimizeViews(cat, plan, info)
	plan = pushdownPass(cat, plan, info)
	plan = emptyPass(cat, plan, info)
	return prunePass(cat, plan, info)
}

// Optimize is the free Optimize over this context's catalog; it
// accumulates the per-plan counters into the context totals reported by
// OptimizerStats.
func (c *Ctx) Optimize(plan Node) Node {
	out, info := Optimize(c.Cat, plan)
	c.optPlans.Add(1)
	c.optSelectsMerged.Add(int64(info.SelectsMerged))
	c.optSelectsPushed.Add(int64(info.SelectsPushed))
	c.optEmptyRewrites.Add(int64(info.EmptyRewrites))
	c.optColumnsPruned.Add(int64(info.ColumnsPruned))
	c.optSortsFused.Add(int64(info.SortsFused))
	if info.changed() {
		c.optChanged.Add(1)
	}
	return out
}

// OptimizerStats reports cumulative optimizer counters for this context.
type OptimizerStats struct {
	Plans        int64 `json:"plans"`
	PlansChanged int64 `json:"plans_changed"`
	OptInfoTotals
}

// OptInfoTotals mirrors OptInfo with cumulative int64 counters.
type OptInfoTotals struct {
	SelectsMerged int64 `json:"selects_merged"`
	SelectsPushed int64 `json:"selects_pushed"`
	EmptyRewrites int64 `json:"empty_rewrites"`
	ColumnsPruned int64 `json:"columns_pruned"`
	SortsFused    int64 `json:"sorts_fused"`
}

// OptimizerStats returns the cumulative optimizer counters.
func (c *Ctx) OptimizerStats() OptimizerStats {
	return OptimizerStats{
		Plans:        c.optPlans.Load(),
		PlansChanged: c.optChanged.Load(),
		OptInfoTotals: OptInfoTotals{
			SelectsMerged: c.optSelectsMerged.Load(),
			SelectsPushed: c.optSelectsPushed.Load(),
			EmptyRewrites: c.optEmptyRewrites.Load(),
			ColumnsPruned: c.optColumnsPruned.Load(),
			SortsFused:    c.optSortsFused.Load(),
		},
	}
}

// optCounters lives on Ctx (engine.go embeds it) so concurrent queries can
// record optimizer work without locks.
type optCounters struct {
	optPlans         atomic.Int64
	optChanged       atomic.Int64
	optSelectsMerged atomic.Int64
	optSelectsPushed atomic.Int64
	optEmptyRewrites atomic.Int64
	optColumnsPruned atomic.Int64
	optSortsFused    atomic.Int64
}

// ---------------------------------------------------------------------------
// Views: each Materialize sub-plan optimized on its own

// optimizeViews replaces the child of every Materialize in n with that
// child optimized on its own, innermost views first. All three passes
// stop at a Materialize — it is a pushdown barrier, its downstream column
// needs stop there, and its schema and static emptiness are the same
// before and after optimization — so a view's optimized form depends only
// on its digest and on the base tables' column names, wherever and
// however often it occurs.
func optimizeViews(cat *catalog.Catalog, n Node, info *OptInfo) Node {
	m, ok := n.(*Materialize)
	if !ok {
		return rewriteChildren(n, func(c Node) Node { return optimizeViews(cat, c, info) })
	}
	return withChild(n, m.Child, optimize(cat, m.Child, info))
}

// ---------------------------------------------------------------------------
// Pass 1: predicate pushdown and Limit∘Sort fusion

// pushdownPass rewrites bottom-up, then sinks every Select it finds as far
// toward the leaves as legality allows, and fuses every Limit directly
// over a Sort into one TopN. It does not descend into views.
func pushdownPass(cat *catalog.Catalog, n Node, info *OptInfo) Node {
	if isMaterialize(n) {
		return n
	}
	n = rewriteChildren(n, func(c Node) Node { return pushdownPass(cat, c, info) })
	switch x := n.(type) {
	case *Select:
		return pushSelect(cat, x, info)
	case *Limit:
		// Both sides are the first N entries of the stable sort
		// permutation (relation.SortedSel), N ≤ 0 meaning none, so the
		// fusion is bit-identical; TopN just never sorts the rows it
		// drops. Children run bottom-up first, so a Select pushed below
		// the Sort does not block it.
		if s, ok := x.Child.(*Sort); ok {
			info.SortsFused++
			return NewTopN(s.Child, x.N, s.Keys...)
		}
	}
	return n
}

// splitConjuncts flattens nested Ands into the list of top-level
// conjuncts. Evaluation is strict and error-free for valid plans (see
// expr: no value-dependent runtime errors), so conjuncts filter
// independently and may be re-ordered or re-grouped freely.
func splitConjuncts(e expr.Expr) []expr.Expr {
	if a, ok := e.(expr.And); ok {
		return append(splitConjuncts(a.L), splitConjuncts(a.R)...)
	}
	return []expr.Expr{e}
}

// joinConjuncts rebuilds a predicate from conjuncts (left-deep Ands).
func joinConjuncts(cs []expr.Expr) expr.Expr {
	e := cs[0]
	for _, c := range cs[1:] {
		e = expr.And{L: e, R: c}
	}
	return e
}

// pushSelect sinks s below its child where legal, recursing so a predicate
// travels through whole operator chains in one pass.
func pushSelect(cat *catalog.Catalog, s *Select, info *OptInfo) Node {
	switch child := s.Child.(type) {
	case *Select:
		// Adjacent filters fuse into one conjunction: one pass over the
		// input, one gather of survivors instead of two.
		info.SelectsMerged++
		return pushSelect(cat, NewSelect(child.Child, expr.And{L: child.Pred, R: s.Pred}), info)

	case *HashJoin:
		return pushSelectJoin(cat, s, child, info)

	case *Union:
		if l, r, ok := pushSelectBranches(cat, s, child.L, child.R, info); ok {
			return NewUnion(l, r)
		}

	case *Distinct:
		// Distinct groups rows by every visible column; a predicate over
		// column values keeps or drops whole groups identically on either
		// side of the grouping. Probability references do not commute —
		// the grouping combines probabilities.
		refs := expr.RefsOf(s.Pred)
		if !refs.Prob {
			info.SelectsPushed++
			inner := pushSelect(cat, NewSelect(child.Child, s.Pred), info)
			return NewDistinct(inner, child.PMode)
		}

	case *Sort:
		// Filtering commutes with a stable sort: surviving rows keep
		// their relative order whether filtered before or after sorting,
		// and sorting fewer rows is strictly cheaper.
		info.SelectsPushed++
		inner := pushSelect(cat, NewSelect(child.Child, s.Pred), info)
		return NewSort(inner, child.Keys...)

	case *ScaleProb:
		// Scaling probabilities does not move rows; value predicates
		// commute. PROB() predicates see scaled values, so they stay.
		refs := expr.RefsOf(s.Pred)
		if !refs.Prob {
			info.SelectsPushed++
			inner := pushSelect(cat, NewSelect(child.Child, s.Pred), info)
			return NewScaleProb(inner, child.Factor)
		}
	}
	return s
}

// pushSelectBranches pushes s's predicate into both branches of a Union.
// Output columns are l's names with r aligned positionally, so predicates
// referencing columns by name are renamed for r; PROB() references align
// as-is. ok is false when the push is illegal.
func pushSelectBranches(cat *catalog.Catalog, s *Select, l, r Node, info *OptInfo) (Node, Node, bool) {
	rPred := s.Pred
	if refs := expr.RefsOf(s.Pred); len(refs.Cols) > 0 {
		// Column references need a rename map derived from the
		// positional alignment of the branch schemas.
		ls, lok := staticSchema(cat, l)
		rs, rok := staticSchema(cat, r)
		if !lok || !rok || !uniqueNames(ls) || len(rs) != len(ls) {
			return nil, nil, false
		}
		m := map[string]string{}
		for j, from := range ls {
			if rs[j] != from {
				m[from] = rs[j]
			}
		}
		if len(m) > 0 {
			rPred = expr.RenameCols(rPred, m)
		}
	}
	info.SelectsPushed += 2
	return pushSelect(cat, NewSelect(l, s.Pred), info), pushSelect(cat, NewSelect(r, rPred), info), true
}

// pushSelectJoin sinks the conjuncts of s that read only one side of an
// inner equi-join below that side. Filtering probe or build rows before
// the join keeps the surviving pairs in the same relative order the
// unfiltered join produces, so output is bit-identical. Probability
// references stay above (the join recombines probabilities).
func pushSelectJoin(cat *catalog.Catalog, s *Select, j *HashJoin, info *OptInfo) Node {
	lSchema, lok := staticSchema(cat, j.L)
	rSchema, rok := staticSchema(cat, j.R)
	if !lok || !rok || !uniqueNames(lSchema) || !uniqueNames(rSchema) {
		return s
	}
	// Each output name's side and input column: the join's output list,
	// which also carries the dedup renaming of clashing right names.
	origin := map[string]JoinCol{}
	for _, oc := range j.outCols(lSchema, rSchema) {
		origin[oc.Name] = oc
	}

	var lPush, rPush, keep []expr.Expr
	for _, cj := range splitConjuncts(s.Pred) {
		refs := expr.RefsOf(cj)
		// PROB() conjuncts stay (the join recombines probabilities), as
		// do reference-free conjuncts (nothing to gain) and unknown
		// expressions (reported as Opaque, plus Prob — blocked here).
		if refs.Prob || len(refs.Cols) == 0 {
			keep = append(keep, cj)
			continue
		}
		left, right := true, true
		m := map[string]string{}
		for _, col := range refs.Cols {
			oc, ok := origin[col]
			left = left && ok && !oc.Right
			right = right && ok && oc.Right
			if ok && oc.Col != col {
				m[col] = oc.Col
			}
		}
		switch {
		case left:
			lPush = append(lPush, expr.RenameCols(cj, m))
		case right:
			rPush = append(rPush, expr.RenameCols(cj, m))
		default:
			keep = append(keep, cj)
		}
	}
	if len(lPush) == 0 && len(rPush) == 0 {
		return s
	}
	info.SelectsPushed += len(lPush) + len(rPush)
	l, r := j.L, j.R
	if len(lPush) > 0 {
		l = pushSelect(cat, NewSelect(l, joinConjuncts(lPush)), info)
	}
	if len(rPush) > 0 {
		r = pushSelect(cat, NewSelect(r, joinConjuncts(rPush)), info)
	}
	out := withChildren(j, l, r)
	if len(keep) > 0 {
		return NewSelect(out, joinConjuncts(keep))
	}
	return out
}

// ---------------------------------------------------------------------------
// Pass 2: statically-empty branch elimination

// emptyPass removes branches that can be proven empty from the plan shape
// alone — constant-false predicates, zero-row Values, zero limits — and
// drops constant-true selections. Emptiness here is structural: no data is
// read. Rewrites only fire where the surviving plan keeps the same output
// schema, values, probabilities and order for valid plans; a dropped
// branch's potential runtime errors (it never executes) are the documented
// exception, as in any optimizer that prunes dead sub-plans. It does not
// descend into views.
func emptyPass(cat *catalog.Catalog, n Node, info *OptInfo) Node {
	if isMaterialize(n) {
		return n
	}
	n = rewriteChildren(n, func(c Node) Node { return emptyPass(cat, c, info) })
	switch x := n.(type) {
	case *Select:
		if v, ok := expr.ConstBool(x.Pred); ok && v {
			info.EmptyRewrites++
			return x.Child
		}
	case *Subtract:
		// Subtracting nothing discounts nothing: every left row keeps its
		// probability.
		if staticEmpty(x.R) {
			info.EmptyRewrites++
			return x.L
		}
	case *Union:
		if staticEmpty(x.R) && !staticEmpty(x.L) {
			info.EmptyRewrites++
			return x.L
		}
		if staticEmpty(x.L) && !staticEmpty(x.R) && sameSchema(cat, x.L, x.R) {
			info.EmptyRewrites++
			return x.R
		}
	}
	return n
}

// sameSchema reports whether both plans statically resolve to identical
// column name lists.
func sameSchema(cat *catalog.Catalog, a, b Node) bool {
	as, aok := staticSchema(cat, a)
	bs, bok := staticSchema(cat, b)
	if !aok || !bok || len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// staticEmpty reports whether n provably produces zero rows, from plan
// structure alone.
func staticEmpty(n Node) bool {
	switch x := n.(type) {
	case *Values:
		return x.Rel != nil && x.Rel.NumRows() == 0
	case *Limit:
		return x.N <= 0 || staticEmpty(x.Child)
	case *TopN:
		return x.N <= 0 || staticEmpty(x.Child)
	case *Select:
		if v, ok := expr.ConstBool(x.Pred); ok && !v {
			return true
		}
		return staticEmpty(x.Child)
	case *Materialize:
		return staticEmpty(x.Child)
	case *Project:
		return staticEmpty(x.Child)
	case *Sort:
		return staticEmpty(x.Child)
	case *Distinct:
		return staticEmpty(x.Child)
	case *Normalize:
		return staticEmpty(x.Child)
	case *ScaleProb:
		return staticEmpty(x.Child)
	case *ProbFromCol:
		return staticEmpty(x.Child)
	case *RowNumber:
		return staticEmpty(x.Child)
	case *Tokenize:
		return staticEmpty(x.Child)
	case *HashJoin:
		return staticEmpty(x.L) || staticEmpty(x.R)
	case *Subtract:
		return staticEmpty(x.L)
	case *Union:
		return staticEmpty(x.L) && staticEmpty(x.R)
	case *Aggregate:
		// A grouped aggregate of nothing is nothing; a global aggregate
		// still yields its single summary row.
		return len(x.GroupBy) > 0 && staticEmpty(x.Child)
	}
	return false
}

// ---------------------------------------------------------------------------
// Pass 3: column pruning

// prunePass narrows the plan to the columns actually referenced
// downstream. Two wrap points exist: directly above Scans (so wide base
// tables narrow before any gather touches them) and at consuming
// operators whose input requirements are exact — join sides, tokenizers,
// aggregates, subtract's right input. Inserted projections are
// pass-through (Project shares column vectors; no copy), so the cost is a
// name lookup while every downstream gather, hash and materialization
// shrinks to the surviving columns.
func prunePass(cat *catalog.Catalog, n Node, info *OptInfo) Node {
	return pruneNode(cat, n, nil, info)
}

// needSet is the set of column names a parent requires; nil means "all".
type needSet map[string]bool

func needOf(names ...string) needSet {
	s := make(needSet, len(names))
	for _, n := range names {
		s[n] = true
	}
	return s
}

func (s needSet) union(names ...string) needSet {
	if s == nil {
		return nil
	}
	out := make(needSet, len(s)+len(names))
	//lint:allow mapiterorder set union builds another map; membership is order-independent
	for n := range s {
		out[n] = true
	}
	for _, n := range names {
		out[n] = true
	}
	return out
}

func (s needSet) without(name string) needSet {
	if s == nil {
		return nil
	}
	out := make(needSet, len(s))
	//lint:allow mapiterorder set difference builds another map; membership is order-independent
	for n := range s {
		if n != name {
			out[n] = true
		}
	}
	return out
}

// exprNeeds folds an expression's references into a need set: nil (all)
// when the expression is unrecognized.
func exprNeeds(s needSet, e expr.Expr) needSet {
	refs := expr.RefsOf(e)
	if refs.Opaque {
		return nil
	}
	return s.union(refs.Cols...)
}

// sortNeeds folds the named sort keys into a need set.
func sortNeeds(s needSet, keys []SortSpec) needSet {
	for _, k := range keys {
		if k.Col != "" {
			s = s.union(k.Col)
		}
	}
	return s
}

// pruneNode rewrites n so it produces (at least) the columns in needs,
// inserting projections where a subtree provably produces more.
func pruneNode(cat *catalog.Catalog, n Node, needs needSet, info *OptInfo) Node {
	switch x := n.(type) {
	case *Scan:
		// The scan wrap point: emit only the needed columns, in table
		// order.
		if needs == nil {
			return n
		}
		schema, ok := staticSchema(cat, n)
		if !ok || !uniqueNames(schema) {
			return n
		}
		keep := make([]string, 0, len(schema))
		for _, col := range schema {
			if needs[col] {
				keep = append(keep, col)
			}
		}
		// A zero-column relation cannot carry row counts; keep one.
		if len(keep) == 0 {
			keep = schema[:1]
		}
		if len(keep) == len(schema) {
			return n
		}
		info.ColumnsPruned += len(schema) - len(keep)
		return NewProject(n, ByName(keep...)...)

	case *Values:
		return n

	case *Materialize:
		// A materialized sub-plan is a shared cache entry: its identity
		// (digest) must not depend on which consumer's column needs
		// happened to optimize first, so downstream needs stop here.
		// optimizeViews has already pruned inside it from the sub-plan's
		// own, context-independent requirements (tokenize and aggregate
		// inputs, scans under selective projections).
		return n

	case *Limit:
		return withChild(n, x.Child, pruneNode(cat, x.Child, needs, info))

	case *Select:
		return withChild(n, x.Child, pruneNode(cat, x.Child, exprNeeds(needs, x.Pred), info))

	case *Project:
		childNeeds := needOf()
		for _, pc := range x.Cols {
			childNeeds = exprNeeds(childNeeds, pc.E)
			if childNeeds == nil {
				break
			}
		}
		return withChild(n, x.Child, pruneNode(cat, x.Child, childNeeds, info))

	case *Sort:
		return withChild(n, x.Child, pruneNode(cat, x.Child, sortNeeds(needs, x.Keys), info))

	case *TopN:
		return withChild(n, x.Child, pruneNode(cat, x.Child, sortNeeds(needs, x.Keys), info))

	case *ScaleProb:
		return withChild(n, x.Child, pruneNode(cat, x.Child, needs, info))

	case *ProbFromCol:
		return withChild(n, x.Child, pruneNode(cat, x.Child, needs.union(x.Col), info))

	case *RowNumber:
		return withChild(n, x.Child, pruneNode(cat, x.Child, needs.without(x.Name), info))

	case *Tokenize:
		// Tokenize reads exactly two columns regardless of input width —
		// the strongest prune in the plan repertoire.
		return withChild(n, x.Child, pruneConsumer(cat, x.Child, needOf(x.IDCol, x.DataCol), info))

	case *Aggregate:
		req := needOf(x.GroupBy...)
		for _, a := range x.Aggs {
			switch a.Op {
			case CountAll, SumProb, MaxProb:
				// These aggregate row counts or the implicit probability
				// column; no visible column is read.
			default:
				req[a.Col] = true
			}
		}
		return withChild(n, x.Child, pruneConsumer(cat, x.Child, req, info))

	case *Distinct:
		// Grouping is over all visible columns: every column is
		// semantically load-bearing.
		return withChild(n, x.Child, pruneNode(cat, x.Child, nil, info))

	case *Subtract:
		// The left side's full width defines the match key; the right
		// side only contributes its same-named columns.
		l := pruneNode(cat, x.L, nil, info)
		var r Node
		if lSchema, ok := staticSchema(cat, x.L); ok {
			r = pruneConsumer(cat, x.R, needOf(lSchema...), info)
		} else {
			r = pruneNode(cat, x.R, nil, info)
		}
		return withChildren(n, l, r)

	case *Normalize:
		// Normalize reads its evidence keys and passes every column on.
		return withChild(n, x.Child, pruneNode(cat, x.Child, needs.union(x.Keys...), info))

	case *Union:
		l, r := pruneBranches(cat, x.L, x.R, needs, info)
		return withChildren(n, l, r)

	case *HashJoin:
		return pruneJoin(cat, x, needs, info)
	}
	return n
}

// pruneConsumer wraps child in an exact pass-through projection when it
// provably produces more columns than req, then prunes inside it. Exact
// wrapping keeps the consumer's input schema fully determined even when
// inner pruning is partial.
func pruneConsumer(cat *catalog.Catalog, child Node, req needSet, info *OptInfo) Node {
	inner := pruneNode(cat, child, req, info)
	schema, ok := staticSchema(cat, inner)
	if !ok || !uniqueNames(schema) {
		return inner
	}
	keep := make([]string, 0, len(schema))
	missing := false
	//lint:allow mapiterorder only the order-free boolean "missing" depends on this loop; keep is rebuilt in schema order below
	for n := range req {
		found := false
		for _, col := range schema {
			if col == n {
				found = true
				break
			}
		}
		if !found {
			missing = true
		}
	}
	if missing {
		// A required column the subtree cannot produce: the consumer will
		// report the error itself; wrapping would only change its shape.
		return inner
	}
	for _, col := range schema {
		if req[col] {
			keep = append(keep, col)
		}
	}
	if len(keep) == 0 || len(keep) == len(schema) {
		return inner
	}
	info.ColumnsPruned += len(schema) - len(keep)
	return NewProject(inner, ByName(keep...)...)
}

// pruneBranches prunes both branches of a Union. Branch columns align
// positionally, so both branches must keep the same positions; pruning
// therefore requires resolvable, duplicate-free, equal-arity schemas and
// wraps each branch in an exact projection of the surviving positions.
func pruneBranches(cat *catalog.Catalog, l, r Node, needs needSet, info *OptInfo) (Node, Node) {
	keepAll := func() (Node, Node) {
		return pruneNode(cat, l, nil, info), pruneNode(cat, r, nil, info)
	}
	if needs == nil {
		return keepAll()
	}
	ls, lok := staticSchema(cat, l)
	rs, rok := staticSchema(cat, r)
	if !lok || !rok || !uniqueNames(ls) || !uniqueNames(rs) || len(rs) != len(ls) {
		return keepAll()
	}
	// Positions to keep, from l's names (the Union's output names).
	var lKeep, rKeep []string
	for j, name := range ls {
		if needs[name] {
			lKeep = append(lKeep, name)
			rKeep = append(rKeep, rs[j])
		}
	}
	if len(lKeep) == 0 || len(lKeep) == len(ls) {
		return keepAll()
	}
	return pruneConsumer(cat, l, needOf(lKeep...), info), pruneConsumer(cat, r, needOf(rKeep...), info)
}

// pruneJoin narrows a join's output list to the columns its consumer
// reads, and its inputs to those columns plus the join keys. The list
// keeps the names the unpruned join gave its columns, so the inputs
// narrow freely: dropping a left column cannot un-rename a clashing
// right one. A Materialize build side is left unwrapped, since the aux
// cache keeps the join index only for a materialized build side; the
// join gathers only the listed columns from it anyway.
func pruneJoin(cat *catalog.Catalog, j *HashJoin, needs needSet, info *OptInfo) Node {
	lSchema, lok := staticSchema(cat, j.L)
	rSchema, rok := staticSchema(cat, j.R)
	if needs == nil || !lok || !rok || !uniqueNames(lSchema) || !uniqueNames(rSchema) {
		return withChildren(j, pruneNode(cat, j.L, nil, info), pruneNode(cat, j.R, nil, info))
	}
	all := j.outCols(lSchema, rSchema)
	var keep []JoinCol
	for _, oc := range all {
		if needs[oc.Name] {
			keep = append(keep, oc)
		}
	}
	// A zero-column relation cannot carry row counts; keep one.
	if len(keep) == 0 {
		keep = all[:min(1, len(all))]
	}
	lNeed, rNeed := needOf(j.LKeys...), needOf(j.RKeys...)
	for _, oc := range keep {
		if oc.Right {
			rNeed[oc.Col] = true
		} else {
			lNeed[oc.Col] = true
		}
	}
	l, r := pruneConsumer(cat, j.L, lNeed, info), j.R
	if !isMaterialize(j.R) {
		r = pruneConsumer(cat, j.R, rNeed, info)
	}
	if len(keep) == len(all) {
		return withChildren(j, l, r)
	}
	info.ColumnsPruned += len(all) - len(keep)
	return newHashJoin(l, r, j.LKeys, j.RKeys, j.PMode, keep)
}
