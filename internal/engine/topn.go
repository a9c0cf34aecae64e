package engine

import (
	"context"
	"sort"

	"irdb/internal/relation"
	"irdb/internal/vector"
)

// Parallel sort and TopN selection.
//
// The serial definition of both operators is the stable-sort permutation
// relation.SortedSel (TopN keeps its first n entries). Breaking comparison
// ties on the original row index turns that stable ordering into a strict
// total order, which makes the permutation reproducible piecewise: each
// morsel sorts (or, for TopN, bounded-heap-selects) its own rows and a
// k-way merge of the per-morsel runs yields exactly SortedSel(keys) — the
// same permutation at every parallelism, because a strict total order has
// exactly one sorted sequence regardless of how the input was split.

// sortRunRows caps one sort run. Bounding runs (instead of splitting
// only per worker) serves two ends: sorting k runs of n/k rows plus a
// k-way merge beats one big stable sort even serially (each run's
// comparisons are cheaper), and runs beyond the worker count execute
// inline between cancellation checks, so a cancelled ORDER BY stops
// within one run's worth of work instead of finishing every morsel
// already dispatched. The merged permutation is identical for every
// decomposition (the tie-broken order is strict), so results stay
// bit-identical regardless.
const sortRunRows = 64 * 1024

// sortRanges splits [0, n) into sort runs: one per worker when that
// keeps runs small (so mid-size TopN/Sort still uses the whole pool),
// capped at sortRunRows for cancellation granularity, floored at
// minMorsel so tiny inputs stay serial.
func (ctx *Ctx) sortRanges(n int) [][2]int {
	if n == 0 {
		return nil
	}
	size := (n + ctx.parallelism() - 1) / ctx.parallelism()
	if size > sortRunRows {
		size = sortRunRows
	}
	if size < minMorsel {
		size = minMorsel
	}
	if n <= size {
		return [][2]int{{0, n}}
	}
	out := make([][2]int, 0, (n+size-1)/size) //lint:allow chargedalloc O(rows/run-size) range bookkeeping, ~1/1000th of the charged runs
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// sortSel returns in.SortedSel(keys). One direct-addressed key column
// (dense.go) whose slots fit denseJoinSlots is counting-sorted
// (countingSortSel). Any other sort runs per-run stable sorts plus the
// same k-way merge TopN uses. Unlike topNSel it keeps every row: ORDER BY
// without LIMIT scales the same way TopN does. The sort runs plus the
// merged permutation (16 bytes per row) are charged against the query's
// memory budget before any run is dispatched.
func sortSel(c context.Context, ctx *Ctx, in *relation.Relation, keys []relation.SortKey) ([]int, error) {
	total := in.NumRows()
	if len(keys) == 1 && keys[0].Col != relation.ProbCol {
		key := in.Col(keys[0].Col).Vec
		dom, ok, err := denseDomainOf(c, key, denseJoinSlots(total))
		if err != nil {
			return nil, err
		}
		if ok {
			return countingSortSel(c, ctx, key, dom, keys[0].Desc)
		}
	}
	if err := ctx.charge(c, int64(total)*16); err != nil {
		return nil, err
	}
	ranges := ctx.sortRanges(total)
	if len(ranges) <= 1 {
		return in.SortedSel(keys), nil
	}
	less := func(i, j int) bool {
		if c := in.CompareRows(keys, i, j); c != 0 {
			return c < 0
		}
		return i < j // stable-sort tie-break: original row order
	}
	runs := make([][]int, len(ranges))
	ctx.runRanges(c, ranges, func(m, lo, hi int) {
		runs[m] = in.SortedSelRange(keys, lo, hi)
	})
	return mergeRuns(c, less, runs, total), nil
}

// countingSortSel is sortSel's stable counting sort over one
// direct-addressed key column. Its dense index (buildDenseIndex) lists
// each slot's rows ascending, so reading the slots in key order is the
// stable sort: a DictStrings column's slots (codes) in the order of their
// FrozenDict.Rank, an Int64s column's in value order, either reversed for
// desc with ties still in ascending rows. Every array is charged before
// it is allocated; the permutation is read out with a cancellation check
// every 8k rows.
func countingSortSel(c context.Context, ctx *Ctx, key vector.Vector, dom denseDomain, desc bool) ([]int, error) {
	n := key.Len()
	if err := checkBuildRows(n); err != nil {
		return nil, err
	}
	d, err := buildDenseIndex(c, ctx, key, dom)
	if err != nil {
		return nil, err
	}
	var byRank []int32
	if ds, ok := key.(*vector.DictStrings); ok {
		if err := ctx.charge(c, int64(dom.slots)*4); err != nil {
			return nil, err
		}
		byRank = make([]int32, dom.slots)
		for code := range byRank {
			byRank[ds.Dict().Rank(int32(code))] = int32(code)
		}
	}
	if err := ctx.charge(c, int64(n)*8); err != nil {
		return nil, err
	}
	sel := make([]int, 0, n)
	check := 0x2000
	for k := range dom.slots {
		if len(sel) >= check {
			if err := c.Err(); err != nil {
				return nil, err
			}
			check = len(sel) + 0x2000
		}
		s := k
		if desc {
			s = dom.slots - 1 - k
		}
		if byRank != nil {
			s = int(byRank[s])
		}
		for _, r := range d.rows[d.off[s]:d.off[s+1]] {
			sel = append(sel, int(r))
		}
	}
	return sel, nil
}

// topNSel returns the first n entries of in.SortedSel(keys), computed with
// a bounded heap per sort run plus a k-way merge of the runs, so the input
// is never fully sorted and at most n row ids per run are held. The
// returned permutation prefix is bit-identical at every parallelism.
func topNSel(c context.Context, ctx *Ctx, in *relation.Relation, keys []relation.SortKey, n int) ([]int, error) {
	total := in.NumRows()
	if n > total {
		n = total
	}
	if n <= 0 {
		return []int{}, nil
	}
	less := func(i, j int) bool {
		if c := in.CompareRows(keys, i, j); c != 0 {
			return c < 0
		}
		return i < j // stable-sort tie-break: original row order
	}
	ranges := ctx.sortRanges(total)
	if len(ranges) <= 1 {
		// One run needs no merge: its bounded heap is the answer.
		if err := ctx.charge(c, int64(n)*8); err != nil {
			return nil, err
		}
		return topOfRange(less, 0, total, n), nil
	}
	// Each run's bounded heap keeps at most n rows; budget the runs plus
	// the merged prefix before dispatch.
	if err := ctx.charge(c, int64(len(ranges)+1)*int64(n)*8); err != nil {
		return nil, err
	}
	runs := make([][]int, len(ranges))
	ctx.runRanges(c, ranges, func(m, lo, hi int) {
		runs[m] = topOfRange(less, lo, hi, n)
	})
	return mergeRuns(c, less, runs, n), nil
}

// topOfRange returns the min(n, hi-lo) smallest rows of [lo, hi) under
// less, in ascending order. It maintains a bounded max-heap of the best n
// rows seen — O(m log n) instead of the O(m log m) full sort — and sorts
// only the survivors.
func topOfRange(less func(i, j int) bool, lo, hi, n int) []int {
	if m := hi - lo; n > m {
		n = m
	}
	h := make([]int, 0, n)
	for i := lo; i < hi; i++ {
		if len(h) < n {
			// Sift up: the root holds the worst kept row.
			h = append(h, i)
			for c := len(h) - 1; c > 0; {
				p := (c - 1) / 2
				if !less(h[p], h[c]) {
					break
				}
				h[p], h[c] = h[c], h[p]
				c = p
			}
			continue
		}
		if !less(i, h[0]) {
			continue
		}
		// Replace the worst kept row and sift down.
		h[0] = i
		for p := 0; ; {
			c := 2*p + 1
			if c >= n {
				break
			}
			if c+1 < n && less(h[c], h[c+1]) {
				c++
			}
			if !less(h[p], h[c]) {
				break
			}
			h[p], h[c] = h[c], h[p]
			p = c
		}
	}
	sort.Slice(h, func(a, b int) bool { return less(h[a], h[b]) })
	return h
}

// mergeRuns k-way merges ascending runs under less and returns the first n
// merged values. Run heads are kept in a min-heap keyed by less. The merge
// checks cancellation every few thousand pops — a merge over millions of
// rows is itself a long serial loop — and returns its partial output,
// which the caller discards once it sees the cancelled context.
func mergeRuns(c context.Context, less func(i, j int) bool, runs [][]int, n int) []int {
	type head struct {
		run, pos int
	}
	// lessHead orders heap entries by their current run value.
	lessHead := func(a, b head) bool { return less(runs[a.run][a.pos], runs[b.run][b.pos]) }
	h := make([]head, 0, len(runs))
	for r, run := range runs {
		if len(run) == 0 {
			continue
		}
		h = append(h, head{run: r})
		for c := len(h) - 1; c > 0; {
			p := (c - 1) / 2
			if !lessHead(h[c], h[p]) {
				break
			}
			h[p], h[c] = h[c], h[p]
			c = p
		}
	}
	out := make([]int, 0, n)
	for len(h) > 0 && len(out) < n {
		if len(out)&0x1fff == 0x1fff && c.Err() != nil {
			return out
		}
		top := h[0]
		out = append(out, runs[top.run][top.pos])
		if top.pos+1 < len(runs[top.run]) {
			h[0] = head{run: top.run, pos: top.pos + 1}
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		for p := 0; ; {
			c := 2*p + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && lessHead(h[c+1], h[c]) {
				c++
			}
			if !lessHead(h[c], h[p]) {
				break
			}
			h[p], h[c] = h[c], h[p]
			p = c
		}
	}
	return out
}
