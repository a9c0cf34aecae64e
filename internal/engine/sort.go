package engine

import (
	"context"
	"fmt"
	"strings"

	"irdb/internal/relation"
)

// SortSpec is one ordering criterion: a column name, or the empty string
// for the tuple-probability column (ranked retrieval orders by p).
type SortSpec struct {
	Col  string
	Desc bool
}

func (s SortSpec) String() string {
	name := s.Col
	if name == "" {
		name = "p"
	}
	if s.Desc {
		return name + " desc"
	}
	return name
}

func resolveSortKeys(in *relation.Relation, specs []SortSpec) ([]relation.SortKey, error) {
	keys := make([]relation.SortKey, len(specs)) //lint:allow chargedalloc O(#sort keys) plan-shaped, not data
	for i, s := range specs {
		if s.Col == "" {
			keys[i] = relation.SortKey{Col: relation.ProbCol, Desc: s.Desc}
			continue
		}
		idx := in.ColIndex(s.Col)
		if idx < 0 {
			return nil, fmt.Errorf("sort: no column %q", s.Col)
		}
		keys[i] = relation.SortKey{Col: idx, Desc: s.Desc}
	}
	return keys, nil
}

// Sort orders its input by the given keys (stable).
type Sort struct {
	ident
	Child Node
	Keys  []SortSpec
}

// NewSort sorts child by keys.
func NewSort(child Node, keys ...SortSpec) *Sort {
	h := newHasher("sort")
	h.sortSpecs(keys)
	return &Sort{ident: h.finish(child), Child: child, Keys: keys}
}

// Execute implements Node.
//
// The sort permutation is computed as a parallel merge sort: bounded-size
// runs (sortRunRows) stable-sort independently and a k-way merge (with
// original-row-index tie-break) reassembles exactly the serial stable
// sort's permutation, so ORDER BY without LIMIT scales like TopN does —
// and a cancelled context stops the sort between runs. A sort by one
// direct-addressed key is a counting sort instead (countingSortSel).
func (s *Sort) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) {
	in, err := ctx.Exec(c, s.Child)
	if err != nil {
		return nil, err
	}
	keys, err := resolveSortKeys(in, s.Keys)
	if err != nil {
		return nil, err
	}
	sel, err := sortSel(c, ctx, in, keys)
	if err != nil {
		return nil, err
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	return gatherParallel(c, ctx, in, sel)
}

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Child} }

// Label implements Node.
func (s *Sort) Label() string { return "Sort " + specString(s.Keys) }

func specString(keys []SortSpec) string {
	parts := make([]string, len(keys)) //lint:allow chargedalloc O(#sort keys) label scratch
	for i, k := range keys {
		parts[i] = k.String()
	}
	return strings.Join(parts, ",")
}

// TopN returns the first N rows under the given ordering — the ranked
// result list of a retrieval run.
type TopN struct {
	ident
	Child Node
	Keys  []SortSpec
	N     int
}

// NewTopN returns the top n rows of child under keys.
func NewTopN(child Node, n int, keys ...SortSpec) *TopN {
	h := newHasher("topn")
	h.int(n)
	h.sortSpecs(keys)
	return &TopN{ident: h.finish(child), Child: child, Keys: keys, N: n}
}

// Execute implements Node.
//
// The input is never fully sorted: every morsel keeps only its own best N
// rows via a bounded heap and a k-way merge (with original-row-index
// tie-break) reproduces exactly the first N entries of the serial stable
// sort's permutation. Only those N rows are materialized.
func (t *TopN) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) {
	in, err := ctx.Exec(c, t.Child)
	if err != nil {
		return nil, err
	}
	keys, err := resolveSortKeys(in, t.Keys)
	if err != nil {
		return nil, err
	}
	sel, err := topNSel(c, ctx, in, keys, t.N)
	if err != nil {
		return nil, err
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	return gatherParallel(c, ctx, in, sel)
}

// Children implements Node.
func (t *TopN) Children() []Node { return []Node{t.Child} }

// Label implements Node.
func (t *TopN) Label() string { return fmt.Sprintf("TopN %d by %s", t.N, specString(t.Keys)) }
