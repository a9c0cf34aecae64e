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
// syntactic build side (the right input):
//
//  1. pushdownPass — merge adjacent Selects and sink predicates below
//     joins, unions/concats, unites/distincts, extends and sorts, toward
//     the scans that produce their columns.
//  2. emptyPass — remove statically-empty branches (constant-false
//     selections, zero-row Values, zero limits) from set operations and
//     drop always-true selections.
//  3. prunePass — insert pass-through projections so operators only
//     materialize columns referenced downstream (scans narrow before
//     gathers, join inputs narrow before the pair gather, materialized
//     cache entries shrink).
//
// Every rewrite preserves bit-identical results for valid plans at any
// parallelism level — values, probabilities AND row order — because the
// engine's operators are themselves order-deterministic. Rewrites are
// conservative: a pass that cannot prove legality (unresolvable schema,
// positional references, probability-dependent predicates, duplicate
// column names) leaves the plan alone. Plans containing ?name parameters
// optimize before binding; passes treat parameters as opaque non-constant
// scalars, so a prepared statement is optimized once and bound many
// times.

// OptInfo counts what the optimizer did to one plan.
type OptInfo struct {
	SelectsMerged int `json:"selects_merged"`
	SelectsPushed int `json:"selects_pushed"`
	EmptyRewrites int `json:"empty_rewrites"`
	ColumnsPruned int `json:"columns_pruned"`
}

func (i OptInfo) changed() bool {
	return i.SelectsMerged+i.SelectsPushed+i.EmptyRewrites+i.ColumnsPruned > 0
}

// Optimize rewrites plan through the pass pipeline, using cat (which may
// be nil) for schema resolution. The input plan is never mutated;
// untouched sub-plans are shared between input and output.
func Optimize(cat *catalog.Catalog, plan Node) (Node, OptInfo) {
	var info OptInfo
	plan = pushdownPass(cat, plan, &info)
	plan = emptyPass(cat, plan, &info)
	plan = prunePass(cat, plan, &info)
	return plan, info
}

// Optimize runs the optimizer with this context's catalog and accumulates
// the per-plan counters into the context totals reported by
// OptimizerStats.
func (c *Ctx) Optimize(plan Node) Node {
	out, info := Optimize(c.Cat, plan)
	c.optPlans.Add(1)
	c.optSelectsMerged.Add(int64(info.SelectsMerged))
	c.optSelectsPushed.Add(int64(info.SelectsPushed))
	c.optEmptyRewrites.Add(int64(info.EmptyRewrites))
	c.optColumnsPruned.Add(int64(info.ColumnsPruned))
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
}

// ---------------------------------------------------------------------------
// Pass 1: predicate pushdown

// pushdownPass rewrites bottom-up, then sinks every Select it finds as far
// toward the leaves as legality allows.
func pushdownPass(cat *catalog.Catalog, n Node, info *OptInfo) Node {
	n = rewriteChildren(n, func(c Node) Node { return pushdownPass(cat, c, info) })
	if s, ok := n.(*Select); ok {
		return pushSelect(cat, s, info)
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
		return pushSelect(cat, &Select{
			Child: child.Child,
			Pred:  expr.And{L: child.Pred, R: s.Pred},
		}, info)

	case *HashJoin:
		return pushSelectJoin(cat, s, child, info)

	case *Union:
		if out := pushSelectBranches(cat, s, []Node{child.L, child.R}, false, info); out != nil {
			return &Union{L: out[0], R: out[1]}
		}

	case *Concat:
		if out := pushSelectBranches(cat, s, child.Inputs, false, info); out != nil {
			return &Concat{Inputs: out}
		}

	case *Unite:
		// Unite groups rows by every visible column; a predicate over
		// column values keeps or drops whole groups identically on either
		// side of the grouping. Probability references do not commute —
		// the grouping combines probabilities.
		if out := pushSelectBranches(cat, s, []Node{child.L, child.R}, true, info); out != nil {
			return &Unite{L: out[0], R: out[1], PMode: child.PMode}
		}

	case *Distinct:
		// Same argument as Unite: grouping is over all visible columns.
		refs := expr.RefsOf(s.Pred)
		if !refs.Prob {
			info.SelectsPushed++
			inner := pushSelect(cat, &Select{Child: child.Child, Pred: s.Pred}, info)
			return &Distinct{Child: inner, PMode: child.PMode}
		}

	case *Extend:
		// Conjuncts not reading the extended column filter the same rows
		// below the Extend; the extension expression then runs on fewer
		// rows. Probabilities pass through Extend untouched, so PROB()
		// references are fine; positional references could address the
		// appended column, so they stay above.
		var push, keep []expr.Expr
		for _, cj := range splitConjuncts(s.Pred) {
			refs := expr.RefsOf(cj)
			ok := !refs.Positional
			for _, col := range refs.Cols {
				if col == child.Name {
					ok = false
				}
			}
			if ok {
				push = append(push, cj)
			} else {
				keep = append(keep, cj)
			}
		}
		if len(push) > 0 {
			info.SelectsPushed += len(push)
			inner := pushSelect(cat, &Select{Child: child.Child, Pred: joinConjuncts(push)}, info)
			var out Node = &Extend{Child: inner, Name: child.Name, E: child.E}
			if len(keep) > 0 {
				out = &Select{Child: out, Pred: joinConjuncts(keep)}
			}
			return out
		}

	case *Sort:
		// Filtering commutes with a stable sort: surviving rows keep
		// their relative order whether filtered before or after sorting,
		// and sorting fewer rows is strictly cheaper.
		info.SelectsPushed++
		inner := pushSelect(cat, &Select{Child: child.Child, Pred: s.Pred}, info)
		return &Sort{Child: inner, Keys: child.Keys}

	case *ScaleProb:
		// Scaling probabilities does not move rows; value predicates
		// commute. PROB() predicates see scaled values, so they stay.
		refs := expr.RefsOf(s.Pred)
		if !refs.Prob {
			info.SelectsPushed++
			inner := pushSelect(cat, &Select{Child: child.Child, Pred: s.Pred}, info)
			return &ScaleProb{Child: inner, Factor: child.Factor}
		}
	}
	return s
}

// pushSelectBranches pushes s's predicate into every branch of a
// concatenation-shaped operator (Union, Concat, Unite). Output columns are
// branch 0's names with later branches aligned positionally, so predicates
// referencing columns by name are renamed per branch; positional and
// PROB() references align as-is (noProb blocks PROB() for the grouping
// operators). Returns the new branches, or nil when the push is illegal.
func pushSelectBranches(cat *catalog.Catalog, s *Select, branches []Node, noProb bool, info *OptInfo) []Node {
	refs := expr.RefsOf(s.Pred)
	if noProb && refs.Prob {
		return nil
	}
	if len(branches) == 0 {
		return nil
	}
	// Column references need a per-branch rename map derived from the
	// positional alignment of branch schemas.
	var renames []map[string]string
	if len(refs.Cols) > 0 {
		first, ok := staticSchema(cat, branches[0])
		if !ok || !uniqueNames(first) {
			return nil
		}
		renames = make([]map[string]string, len(branches))
		for i := 1; i < len(branches); i++ {
			sch, ok := staticSchema(cat, branches[i])
			if !ok || len(sch) != len(first) {
				return nil
			}
			m := map[string]string{}
			for j, from := range first {
				if sch[j] != from {
					m[from] = sch[j]
				}
			}
			if len(m) > 0 {
				renames[i] = m
			}
		}
	}
	out := make([]Node, len(branches))
	for i, b := range branches {
		pred := s.Pred
		if renames != nil && renames[i] != nil {
			pred = expr.RenameCols(pred, renames[i])
		}
		out[i] = pushSelect(cat, &Select{Child: b, Pred: pred}, info)
	}
	info.SelectsPushed += len(branches)
	return out
}

// pushSelectJoin sinks the conjuncts of s that read only one side of an
// inner equi-join below that side. Filtering probe or build rows before
// the join keeps the surviving pairs in the same relative order the
// unfiltered join produces, so output is bit-identical. Probability
// references stay above (the join recombines probabilities), as do
// positional references (positions change across the join boundary).
func pushSelectJoin(cat *catalog.Catalog, s *Select, j *HashJoin, info *OptInfo) Node {
	lSchema, lok := staticSchema(cat, j.L)
	rSchema, rok := staticSchema(cat, j.R)
	if !lok || !rok || !uniqueNames(lSchema) || !uniqueNames(rSchema) {
		return s
	}
	leftHas := map[string]bool{}
	for _, n := range lSchema {
		leftHas[n] = true
	}
	// Reconstruct the dedup renaming HashJoin applies to clashing right
	// names: output name → original right name.
	rightBack := map[string]string{}
	outNames := joinOutputNames(lSchema, rSchema)
	for i, orig := range rSchema {
		rightBack[outNames[len(lSchema)+i]] = orig
	}

	var lPush, rPush, keep []expr.Expr
	for _, cj := range splitConjuncts(s.Pred) {
		refs := expr.RefsOf(cj)
		// PROB() conjuncts stay (the join recombines probabilities), as
		// do reference-free conjuncts (nothing to gain) and unknown
		// expressions (reported as Positional with no Positions, plus
		// Prob — blocked here).
		if refs.Prob || (len(refs.Cols) == 0 && len(refs.Positions) == 0) {
			keep = append(keep, cj)
			continue
		}
		left, right := true, true
		for _, col := range refs.Cols {
			if !leftHas[col] {
				left = false
			}
			if _, fromRight := rightBack[col]; !fromRight {
				right = false
			}
		}
		// Positional references ($n, 1-based) resolve by output position:
		// at or below the left arity they address left columns unchanged;
		// above it they address right columns shifted by the left arity.
		// SpinQL selections are positional, so this is the common case.
		for _, p := range refs.Positions {
			if p < 1 || p > len(outNames) {
				left, right = false, false
				break
			}
			if p > len(lSchema) {
				left = false
			} else {
				right = false
			}
		}
		switch {
		case left:
			lPush = append(lPush, cj)
		case right:
			m := map[string]string{}
			for _, col := range refs.Cols {
				if rightBack[col] != col {
					m[col] = rightBack[col]
				}
			}
			rPush = append(rPush, expr.ShiftPositions(expr.RenameCols(cj, m), -len(lSchema)))
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
		l = pushSelect(cat, &Select{Child: l, Pred: joinConjuncts(lPush)}, info)
	}
	if len(rPush) > 0 {
		r = pushSelect(cat, &Select{Child: r, Pred: joinConjuncts(rPush)}, info)
	}
	cp := *j
	cp.L, cp.R = l, r
	if len(keep) > 0 {
		return &Select{Child: &cp, Pred: joinConjuncts(keep)}
	}
	return &cp
}

// ---------------------------------------------------------------------------
// Pass 2: statically-empty branch elimination

// emptyPass removes branches that can be proven empty from the plan shape
// alone — constant-false predicates, zero-row Values, zero limits — and
// drops constant-true selections. Emptiness here is structural: no data is
// read. Rewrites only fire where the surviving plan keeps the same output
// schema, values, probabilities and order for valid plans; a dropped
// branch's potential runtime errors (it never executes) are the documented
// exception, as in any optimizer that prunes dead sub-plans.
func emptyPass(cat *catalog.Catalog, n Node, info *OptInfo) Node {
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
	case *Unite:
		if staticEmpty(x.R) && !staticEmpty(x.L) {
			info.EmptyRewrites++
			return &Distinct{Child: x.L, PMode: x.PMode}
		}
		if staticEmpty(x.L) && !staticEmpty(x.R) && sameSchema(cat, x.L, x.R) {
			info.EmptyRewrites++
			return &Distinct{Child: x.R, PMode: x.PMode}
		}
	case *Concat:
		keep := make([]Node, 0, len(x.Inputs))
		for i, in := range x.Inputs {
			if i > 0 && staticEmpty(in) {
				continue
			}
			// The first branch defines output names; drop it only when
			// the next survivor carries the same names.
			if i == 0 && staticEmpty(in) && len(x.Inputs) > 1 &&
				!staticEmpty(x.Inputs[1]) && sameSchema(cat, in, x.Inputs[1]) {
				continue
			}
			keep = append(keep, in)
		}
		if len(keep) == 1 {
			info.EmptyRewrites++
			return keep[0]
		}
		if len(keep) < len(x.Inputs) {
			info.EmptyRewrites++
			return &Concat{Inputs: keep}
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
	case *Rename:
		return staticEmpty(x.Child)
	case *Project:
		return staticEmpty(x.Child)
	case *Extend:
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
	case *ProbToCol:
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
	case *Unite:
		return staticEmpty(x.L) && staticEmpty(x.R)
	case *Concat:
		for _, in := range x.Inputs {
			if !staticEmpty(in) {
				return false
			}
		}
		return len(x.Inputs) > 0
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

func needAll() needSet { return nil }

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
// when the expression uses positional access or is unrecognized.
func exprNeeds(s needSet, e expr.Expr) needSet {
	refs := expr.RefsOf(e)
	if refs.Positional {
		return nil
	}
	return s.union(refs.Cols...)
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
		return &Project{Child: n, Cols: ByName(keep...)}

	case *Values:
		return n

	case *Materialize:
		// A materialized sub-plan is a shared cache entry: its identity
		// (fingerprint) must not depend on which consumer's column needs
		// happened to optimize first, so downstream needs stop here.
		// Pruning inside still fires from the sub-plan's own,
		// context-independent requirements (tokenize and aggregate inputs,
		// scans under selective projections), which every consumer derives
		// identically.
		if c := pruneNode(cat, x.Child, nil, info); c != x.Child {
			return &Materialize{Child: c}
		}
		return n

	case *Limit:
		if c := pruneNode(cat, x.Child, needs, info); c != x.Child {
			cp := *x
			cp.Child = c
			return &cp
		}
		return n

	case *Select:
		childNeeds := exprNeeds(needs, x.Pred)
		if needs == nil {
			childNeeds = nil
		}
		if c := pruneNode(cat, x.Child, childNeeds, info); c != x.Child {
			cp := *x
			cp.Child = c
			return &cp
		}
		return n

	case *Project:
		childNeeds := needOf()
		for _, pc := range x.Cols {
			childNeeds = exprNeeds(childNeeds, pc.E)
			if childNeeds == nil {
				break
			}
		}
		if c := pruneNode(cat, x.Child, childNeeds, info); c != x.Child {
			cp := *x
			cp.Child = c
			return &cp
		}
		return n

	case *Extend:
		childNeeds := exprNeeds(needs.without(x.Name), x.E)
		if needs == nil {
			childNeeds = nil
		}
		if c := pruneNode(cat, x.Child, childNeeds, info); c != x.Child {
			cp := *x
			cp.Child = c
			return &cp
		}
		return n

	case *Sort:
		childNeeds := needs
		for _, k := range x.Keys {
			if k.Col != "" {
				childNeeds = childNeeds.union(k.Col)
			}
		}
		if c := pruneNode(cat, x.Child, childNeeds, info); c != x.Child {
			cp := *x
			cp.Child = c
			return &cp
		}
		return n

	case *TopN:
		childNeeds := needs
		for _, k := range x.Keys {
			if k.Col != "" {
				childNeeds = childNeeds.union(k.Col)
			}
		}
		if c := pruneNode(cat, x.Child, childNeeds, info); c != x.Child {
			cp := *x
			cp.Child = c
			return &cp
		}
		return n

	case *ScaleProb:
		if c := pruneNode(cat, x.Child, needs, info); c != x.Child {
			cp := *x
			cp.Child = c
			return &cp
		}
		return n

	case *ProbFromCol:
		childNeeds := needs.union(x.Col)
		if c := pruneNode(cat, x.Child, childNeeds, info); c != x.Child {
			cp := *x
			cp.Child = c
			return &cp
		}
		return n

	case *ProbToCol:
		if c := pruneNode(cat, x.Child, needs.without(x.Name), info); c != x.Child {
			cp := *x
			cp.Child = c
			return &cp
		}
		return n

	case *RowNumber:
		if c := pruneNode(cat, x.Child, needs.without(x.Name), info); c != x.Child {
			cp := *x
			cp.Child = c
			return &cp
		}
		return n

	case *Tokenize:
		// Tokenize reads exactly two columns regardless of input width —
		// the strongest prune in the plan repertoire.
		child := pruneConsumer(cat, x.Child, needOf(x.IDCol, x.DataCol), info)
		if child != x.Child {
			cp := *x
			cp.Child = child
			return &cp
		}
		return n

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
		child := pruneConsumer(cat, x.Child, req, info)
		if child != x.Child {
			cp := *x
			cp.Child = child
			return &cp
		}
		return n

	case *Distinct:
		// Grouping is over all visible columns: every column is
		// semantically load-bearing.
		if c := pruneNode(cat, x.Child, nil, info); c != x.Child {
			cp := *x
			cp.Child = c
			return &cp
		}
		return n

	case *Unite:
		l := pruneNode(cat, x.L, nil, info)
		r := pruneNode(cat, x.R, nil, info)
		if l != x.L || r != x.R {
			cp := *x
			cp.L, cp.R = l, r
			return &cp
		}
		return n

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
		if l != x.L || r != x.R {
			cp := *x
			cp.L, cp.R = l, r
			return &cp
		}
		return n

	case *Rename:
		// Rename is positional and arity-checked; its child keeps every
		// column.
		if c := pruneNode(cat, x.Child, nil, info); c != x.Child {
			cp := *x
			cp.Child = c
			return &cp
		}
		return n

	case *Normalize:
		// KeyPos is positional.
		if c := pruneNode(cat, x.Child, nil, info); c != x.Child {
			cp := *x
			cp.Child = c
			return &cp
		}
		return n

	case *Union:
		branches := pruneBranches(cat, []Node{x.L, x.R}, needs, info)
		if branches[0] != x.L || branches[1] != x.R {
			return &Union{L: branches[0], R: branches[1]}
		}
		return n

	case *Concat:
		branches := pruneBranches(cat, x.Inputs, needs, info)
		changed := false
		for i := range branches {
			changed = changed || branches[i] != x.Inputs[i]
		}
		if changed {
			return &Concat{Inputs: branches}
		}
		return n

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
	return &Project{Child: inner, Cols: ByName(keep...)}
}

// pruneBranches prunes the branches of a concatenation-shaped operator.
// Branch columns align positionally, so every branch must keep the same
// positions; pruning therefore requires resolvable, duplicate-free,
// equal-arity schemas on all branches and wraps each in an exact
// projection of the shared surviving positions.
func pruneBranches(cat *catalog.Catalog, branches []Node, needs needSet, info *OptInfo) []Node {
	out := make([]Node, len(branches))
	uniform := needs != nil && len(branches) > 0
	var schemas [][]string
	if uniform {
		schemas = make([][]string, len(branches))
		for i, b := range branches {
			sch, ok := staticSchema(cat, b)
			if !ok || !uniqueNames(sch) || len(sch) != len(schemas[0]) && i > 0 {
				uniform = false
				break
			}
			schemas[i] = sch
		}
	}
	if !uniform {
		for i, b := range branches {
			out[i] = pruneNode(cat, b, nil, info)
		}
		return out
	}
	// Positions to keep, from branch 0's names (the operator's output
	// names).
	keepPos := make([]int, 0, len(schemas[0]))
	for j, name := range schemas[0] {
		if needs[name] {
			keepPos = append(keepPos, j)
		}
	}
	if len(keepPos) == 0 || len(keepPos) == len(schemas[0]) {
		for i, b := range branches {
			out[i] = pruneNode(cat, b, nil, info)
		}
		return out
	}
	for i, b := range branches {
		names := make([]string, len(keepPos))
		for k, j := range keepPos {
			names[k] = schemas[i][j]
		}
		out[i] = pruneConsumer(cat, b, needOf(names...), info)
	}
	return out
}

// pruneJoin narrows both join inputs to downstream-referenced columns
// plus the join keys, re-deriving the dedup renaming afterwards: a needed
// output column must resolve to the same origin column before and after
// the prune, otherwise the join is left untouched (dropping a left column
// can un-rename a clashing right column).
func pruneJoin(cat *catalog.Catalog, j *HashJoin, needs needSet, info *OptInfo) Node {
	rebuildAll := func() Node {
		l := pruneNode(cat, j.L, nil, info)
		r := pruneNode(cat, j.R, nil, info)
		if l != j.L || r != j.R {
			cp := *j
			cp.L, cp.R = l, r
			return &cp
		}
		return j
	}
	if needs == nil || j.positional() {
		return rebuildAll()
	}
	lSchema, lok := staticSchema(cat, j.L)
	rSchema, rok := staticSchema(cat, j.R)
	if !lok || !rok || !uniqueNames(lSchema) || !uniqueNames(rSchema) {
		return rebuildAll()
	}
	outBefore := joinOutputNames(lSchema, rSchema)
	leftHas := map[string]bool{}
	for _, n := range lSchema {
		leftHas[n] = true
	}
	lNeed := needOf(j.LKeys...)
	rNeed := needOf(j.RKeys...)
	for i, out := range outBefore {
		if !needs[out] {
			continue
		}
		if i < len(lSchema) {
			lNeed[lSchema[i]] = true
		} else {
			rNeed[rSchema[i-len(lSchema)]] = true
		}
	}
	l := pruneConsumer(cat, j.L, lNeed, info)
	r := pruneConsumer(cat, j.R, rNeed, info)
	if l == j.L && r == j.R {
		return j
	}
	// Stability recheck: every needed output name must keep its name and
	// origin under the narrowed schemas.
	lAfter, laok := staticSchema(cat, l)
	rAfter, raok := staticSchema(cat, r)
	if !laok || !raok || !stableJoinNames(needs, lSchema, rSchema, lAfter, rAfter) {
		return rebuildAll()
	}
	cp := *j
	cp.L, cp.R = l, r
	return &cp
}

// stableJoinNames verifies that for every needed output column, the
// (side, origin column) it resolves to is unchanged between the original
// and pruned input schemas.
func stableJoinNames(needs needSet, lBefore, rBefore, lAfter, rAfter []string) bool {
	type origin struct {
		left bool
		name string
	}
	resolve := func(l, r []string) map[string]origin {
		out := joinOutputNames(l, r)
		m := make(map[string]origin, len(out))
		for i, name := range out {
			if i < len(l) {
				m[name] = origin{left: true, name: l[i]}
			} else {
				m[name] = origin{left: false, name: r[i-len(l)]}
			}
		}
		return m
	}
	before := resolve(lBefore, rBefore)
	after := resolve(lAfter, rAfter)
	//lint:allow mapiterorder all-quantified membership check; the boolean result is order-independent
	for name := range needs {
		b, inBefore := before[name]
		if !inBefore {
			continue
		}
		a, inAfter := after[name]
		if !inAfter || a != b {
			return false
		}
	}
	return true
}
