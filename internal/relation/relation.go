// Package relation defines the materialized relation exchanged between
// operators of the column-at-a-time engine.
//
// Following section 2.3 of the paper, every relation is probabilistic: "a
// probability column p is appended to all tables". The probability column
// is structural — it always exists, deterministic data simply carries
// p = 1.0 — so structured and unstructured search results flow through the
// same operators ("first-class citizens of the same computational
// platform").
package relation

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"irdb/internal/vector"
)

// Column is a named column of a relation.
type Column struct {
	Name string
	Vec  vector.Vector
}

// Relation is a fully materialized table: a fixed set of named, typed
// columns plus the implicit tuple-probability column.
type Relation struct {
	cols []Column
	prob []float64
}

// FromColumns builds a relation from pre-built columns and an optional
// probability column. A nil prob means "all certain" (p = 1.0). All columns
// must have equal length.
func FromColumns(cols []Column, prob []float64) (*Relation, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("relation: at least one column required")
	}
	n := cols[0].Vec.Len()
	for _, c := range cols[1:] {
		if c.Vec.Len() != n {
			return nil, fmt.Errorf("relation: column %q has %d rows, want %d", c.Name, c.Vec.Len(), n)
		}
	}
	if prob == nil {
		prob = certain(n)
	} else if len(prob) != n {
		return nil, fmt.Errorf("relation: probability column has %d rows, want %d", len(prob), n)
	}
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if seen[c.Name] {
			return nil, fmt.Errorf("relation: duplicate column name %q", c.Name)
		}
		seen[c.Name] = true
	}
	return &Relation{cols: cols, prob: prob}, nil
}

// UniqueNames returns names with each name that an earlier one already
// took replaced by the first free one of name_2, name_3, …. It is the one
// rule that names the output columns of joins and projections, so the
// names a plan derives before it runs are the names its relations carry.
func UniqueNames(names []string) []string {
	out := make([]string, len(names))
	taken := make(map[string]bool, len(names))
	for i, n := range names {
		name := n
		for k := 2; taken[name]; k++ {
			name = n + "_" + strconv.Itoa(k)
		}
		taken[name] = true
		out[i] = name
	}
	return out
}

// MustFromColumns is FromColumns that panics on error, for literals in
// tests and examples.
func MustFromColumns(cols []Column, prob []float64) *Relation {
	r, err := FromColumns(cols, prob)
	if err != nil {
		panic(err)
	}
	return r
}

func certain(n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = 1.0
	}
	return p
}

// NumRows reports the number of tuples.
func (r *Relation) NumRows() int {
	if len(r.cols) == 0 {
		return 0
	}
	return r.cols[0].Vec.Len()
}

// NumCols reports the number of visible (non-probability) columns.
func (r *Relation) NumCols() int { return len(r.cols) }

// Columns returns the column slice. Callers must treat it as read-only.
func (r *Relation) Columns() []Column { return r.cols }

// Col returns the i-th column.
func (r *Relation) Col(i int) Column { return r.cols[i] }

// ColIndex returns the position of the named column, or -1.
func (r *Relation) ColIndex(name string) int {
	for i, c := range r.cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// ColByName returns the named column, or an error naming the candidates.
func (r *Relation) ColByName(name string) (Column, error) {
	if i := r.ColIndex(name); i >= 0 {
		return r.cols[i], nil
	}
	return Column{}, fmt.Errorf("relation: no column %q (have %s)", name, strings.Join(r.ColumnNames(), ", "))
}

// ColumnNames returns the visible column names in order.
func (r *Relation) ColumnNames() []string {
	out := make([]string, len(r.cols))
	for i, c := range r.cols {
		out[i] = c.Name
	}
	return out
}

// Prob returns the probability column. Callers must treat it as read-only.
func (r *Relation) Prob() []float64 {
	if r.prob == nil {
		r.prob = certain(r.NumRows())
	}
	return r.prob
}

// SetProb replaces the probability column. len(p) must equal NumRows.
func (r *Relation) SetProb(p []float64) {
	if len(p) != r.NumRows() {
		panic(fmt.Sprintf("relation: SetProb with %d values for %d rows", len(p), r.NumRows()))
	}
	r.prob = p
}

// Gather returns a new relation holding the rows at the given indexes, in
// order. Indexes may repeat.
func (r *Relation) Gather(sel []int) *Relation {
	cols := make([]Column, len(r.cols))
	for i, c := range r.cols {
		cols[i] = Column{Name: c.Name, Vec: c.Vec.Gather(sel)}
	}
	prob := make([]float64, len(sel))
	src := r.Prob()
	for i, s := range sel {
		prob[i] = src[s]
	}
	return &Relation{cols: cols, prob: prob}
}

// NewSizedLike returns a relation with the same schema as r and exactly n
// zero-filled rows. It is the destination side of the write-at-offset
// materialization protocol: concurrent morsels fill disjoint row ranges
// through GatherRangeInto (or the column vectors' CopyRangeAt) and the
// relation is complete once every range has been written. Until then it
// must not escape to readers.
func (r *Relation) NewSizedLike(n int) *Relation {
	cols := make([]Column, len(r.cols))
	for i, c := range r.cols {
		cols[i] = Column{Name: c.Name, Vec: c.Vec.NewSized(n)}
	}
	return &Relation{cols: cols, prob: make([]float64, n)}
}

// GatherRangeInto writes rows sel[lo:hi] of r (all columns plus the
// probability column) into rows [lo, hi) of dst, which must have been
// created by NewSizedLike with at least hi rows. Disjoint [lo, hi) ranges
// touch disjoint dst rows, so the engine can split one Gather over many
// workers and obtain exactly the relation Gather(sel) would produce.
func (r *Relation) GatherRangeInto(dst *Relation, sel []int, lo, hi int) {
	for i, c := range r.cols {
		c.Vec.GatherRangeInto(dst.cols[i].Vec, sel, lo, hi, 0)
	}
	// Read r.prob directly rather than through Prob(): concurrent morsels
	// must not race on its lazy initialization. nil means all-certain.
	if src := r.prob; src != nil {
		for i := lo; i < hi; i++ {
			dst.prob[i] = src[sel[i]]
		}
	} else {
		for i := lo; i < hi; i++ {
			dst.prob[i] = 1.0
		}
	}
}

// EstimatedBytes reports the approximate heap footprint of the relation's
// materialized values (columns plus probability column). The catalog cache
// uses it to weigh entries so eviction is by bytes, not entry count.
// Dict-encoded columns sharing one frozen dictionary count the dictionary
// once, not once per column.
func (r *Relation) EstimatedBytes() int64 {
	return r.EstimatedBytesExcluding(nil)
}

// EstimatedBytesExcluding is EstimatedBytes with the given frozen
// dictionaries charged at zero: the catalog passes the dicts pinned by
// its base tables, so a cached derived relation is weighed by its
// MARGINAL footprint (codes, plain columns, probabilities) — evicting it
// cannot free a dictionary the base data still holds. Dicts not in the
// exclusion set (e.g. a per-evaluation tokenizer dict reachable only
// through the cached relation) still count in full, once each.
func (r *Relation) EstimatedBytesExcluding(pinned map[*vector.FrozenDict]bool) int64 {
	n := int64(r.NumRows()) * 8 // probability column
	var seen map[*vector.FrozenDict]bool
	for _, c := range r.cols {
		if ds, ok := c.Vec.(*vector.DictStrings); ok {
			n += int64(ds.Len()) * 4
			d := ds.Dict()
			if !pinned[d] && !seen[d] {
				if seen == nil {
					seen = make(map[*vector.FrozenDict]bool, 2)
				}
				seen[d] = true
				n += d.EstimatedBytes()
			}
			continue
		}
		n += c.Vec.EstimatedBytes()
	}
	return n
}

// approxSampleRows bounds the prefix ApproxColBytes inspects.
const approxSampleRows = 256

// ApproxRowBytes estimates the marginal heap footprint of one
// materialized row — every column plus the probability slot — for
// memory-budget sizing of gathers and concats. Unlike EstimatedBytes it
// is O(columns), not O(rows): see ApproxColBytes.
func (r *Relation) ApproxRowBytes() int64 {
	var per int64 = 8 // probability column
	for i := range r.cols {
		per += r.ApproxColBytes(i)
	}
	return per
}

// ApproxColBytes is column i's share of ApproxRowBytes: plain string
// columns are estimated from a bounded prefix sample instead of walking
// every payload, and dict-encoded columns count only their codes
// (gathers share the frozen dict, they never copy it).
func (r *Relation) ApproxColBytes(i int) int64 {
	v := r.cols[i].Vec
	if _, ok := v.(*vector.DictStrings); ok {
		return 4
	}
	n := v.Len()
	if n == 0 {
		return 8
	}
	if n > approxSampleRows {
		v = v.Slice(0, approxSampleRows)
		n = approxSampleRows
	}
	return v.EstimatedBytes() / int64(n)
}

// Slice returns a view of rows [lo, hi) sharing this relation's column
// storage and probability values. The view must be treated as read-only.
func (r *Relation) Slice(lo, hi int) *Relation {
	cols := make([]Column, len(r.cols))
	for i, c := range r.cols {
		cols[i] = Column{Name: c.Name, Vec: c.Vec.Slice(lo, hi)}
	}
	return &Relation{cols: cols, prob: r.Prob()[lo:hi:hi]}
}

// SortKey describes one ordering criterion.
type SortKey struct {
	Col  int  // column position; -1 means the probability column
	Desc bool // descending order when true
}

// ProbCol is the SortKey.Col value addressing the probability column.
const ProbCol = -1

// SortedSel returns the row permutation a stable sort by the given keys
// would apply, without materializing the sorted relation. TopN uses it to
// gather only the rows it keeps instead of copying the whole input twice.
func (r *Relation) SortedSel(keys []SortKey) []int {
	return r.SortedSelRange(keys, 0, r.NumRows())
}

// SortedSelRange returns the stable-sort permutation of rows [lo, hi)
// only: the row indexes lo..hi-1 ordered by the given keys, ties keeping
// ascending row order. Because a stable sort of a contiguous range equals
// the strict total order "CompareRows, then row index", the engine's
// parallel merge sort can sort disjoint morsels through this and k-way
// merge the runs into exactly SortedSel's permutation.
func (r *Relation) SortedSelRange(keys []SortKey, lo, hi int) []int {
	sel := make([]int, hi-lo)
	for i := range sel {
		sel[i] = lo + i
	}
	sort.SliceStable(sel, func(a, b int) bool {
		return r.CompareRows(keys, sel[a], sel[b]) < 0
	})
	return sel
}

// CompareRows compares rows i and j under the given sort keys, returning a
// negative, zero or positive value. It is exactly the ordering SortedSel
// sorts by; breaking ties on the original row index turns it into the
// strict total order of a stable sort, which is what the engine's parallel
// TopN merge relies on to reproduce SortedSel's permutation bit for bit.
func (r *Relation) CompareRows(keys []SortKey, i, j int) int {
	// Read r.prob directly rather than through Prob(): concurrent TopN
	// morsels must not race on its lazy initialization. nil means
	// all-certain, so every probability comparison ties.
	prob := r.prob
	for _, k := range keys {
		if k.Col == ProbCol {
			if prob == nil {
				continue
			}
			pa, pb := prob[i], prob[j]
			if pa != pb {
				if (pa < pb) != k.Desc {
					return -1
				}
				return 1
			}
			continue
		}
		v := r.cols[k.Col].Vec
		if v.LessAt(i, v, j) {
			if k.Desc {
				return 1
			}
			return -1
		}
		if v.LessAt(j, v, i) {
			if k.Desc {
				return -1
			}
			return 1
		}
	}
	return 0
}

// String renders the relation as an aligned text table, capped at 30 rows.
// Intended for examples, EXPLAIN output and test failure messages.
func (r *Relation) String() string { return r.Format(30) }

// Format renders up to maxRows rows as an aligned text table including the
// probability column.
func (r *Relation) Format(maxRows int) string {
	var b strings.Builder
	n := r.NumRows()
	header := make([]string, 0, len(r.cols)+1)
	for _, c := range r.cols {
		header = append(header, c.Name)
	}
	header = append(header, "p")
	rows := [][]string{header}
	shown := n
	if maxRows >= 0 && shown > maxRows {
		shown = maxRows
	}
	prob := r.Prob()
	for i := 0; i < shown; i++ {
		row := make([]string, 0, len(r.cols)+1)
		for _, c := range r.cols {
			row = append(row, c.Vec.Format(i))
		}
		row = append(row, fmt.Sprintf("%.4f", prob[i]))
		rows = append(rows, row)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		b.WriteByte('\n')
		if ri == 0 {
			for _, w := range widths {
				b.WriteString(strings.Repeat("-", w) + "  ")
			}
			b.WriteByte('\n')
		}
	}
	if shown < n {
		fmt.Fprintf(&b, "... (%d rows total)\n", n)
	}
	return b.String()
}
