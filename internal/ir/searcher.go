package ir

import (
	"context"
	"fmt"
	"strings"

	"irdb/internal/engine"
	"irdb/internal/relation"
)

// Searcher ranks a document collection — any plan producing a
// (docID, data) relation — against keyword queries using the configured
// retrieval model. The first search (or an explicit BuildIndex) pays the
// on-demand index construction of section 2.1; later searches on the same
// collection and parameters run hot via the materialization cache.
//
// A Searcher has one score plan: RankPlan over the query parameter ?q,
// ranked by descending score. Search optimizes it once per catalog schema
// epoch and binds ?q per search; ScorePlan binds it without optimizing.
type Searcher struct {
	ctx      *engine.Ctx
	docs     engine.Node
	p        Params
	prepared engine.Prepared[*engine.Sort]
}

// paramQuery is the score plan's query parameter.
const paramQuery = "q"

// NewSearcher validates the parameters and returns a searcher over docs,
// which must produce columns (docID, data).
func NewSearcher(ctx *engine.Ctx, docs engine.Node, p Params) (*Searcher, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil || docs == nil {
		return nil, fmt.Errorf("ir: nil context or docs plan")
	}
	return &Searcher{ctx: ctx, docs: docs, p: p}, nil
}

// BuildIndex forces materialization of every query-independent view (the
// cold cost BenchmarkE1IndexBuild measures). It is optional: the first
// Search triggers the same work. c bounds the index build: a cancelled
// build stops and caches nothing partial.
func (s *Searcher) BuildIndex(c context.Context) error {
	w, err := WeightsPlan(s.docs, s.p)
	if err != nil {
		return err
	}
	// Optimize exactly as Search does: the optimizer is deterministic and
	// treats materialized sub-plans context-independently, so the views
	// built here carry the fingerprints query-time plans will look up.
	if _, err := s.ctx.Exec(c, s.ctx.Optimize(w)); err != nil {
		return err
	}
	_, err = s.ctx.Exec(c, s.ctx.Optimize(TermDictPlan(s.docs, s.p)))
	return err
}

// ScorePlan returns the score plan bound to query: the retrieval score
// of every matching document as its tuple probability, ranked
// descending, ties by docID.
func (s *Searcher) ScorePlan(query string) (engine.Node, error) {
	plan, err := s.scorePlan()
	if err != nil {
		return nil, err
	}
	return s.bind(plan, query)
}

// scorePlan is the score plan over the query parameter ?q.
func (s *Searcher) scorePlan() (*engine.Sort, error) {
	plan, err := RankPlan(s.docs, s.p, QueryParam(paramQuery))
	if err != nil {
		return nil, err
	}
	return engine.NewSort(plan, engine.SortSpec{Col: "", Desc: true}, engine.SortSpec{Col: ColDocID}), nil
}

// bind substitutes query's leaf for ?q in plan.
func (s *Searcher) bind(plan engine.Node, query string) (engine.Node, error) {
	return engine.Bindings{Relation: func(name string) (*engine.Values, bool) {
		return QueryLeaf(s.p, query), name == paramQuery
	}}.Bind(plan)
}

// Hit is one ranked retrieval result.
type Hit struct {
	// DocID is the document identifier formatted as text (document keys
	// may be integers or graph node names).
	DocID string
	// Score is the retrieval-model score (exposed as tuple probability in
	// the relational result).
	Score float64
}

// Search ranks the collection against query and returns the top k hits
// (k <= 0 returns all matches). c carries the request's deadline and
// cancellation through the whole scoring plan.
func (s *Searcher) Search(c context.Context, query string, k int) ([]Hit, error) {
	plan, err := s.plan(query, k)
	if err != nil {
		return nil, err
	}
	rel, err := s.ctx.Exec(c, plan)
	if err != nil {
		return nil, err
	}
	return HitsFromRelation(rel)
}

// plan returns the plan Search runs: the prepared score plan bound to
// query, its final Sort cut to a TopN(k) for k > 0 — the plan Optimize
// makes of ScorePlan(query) under a Limit(k).
func (s *Searcher) plan(query string, k int) (engine.Node, error) {
	sorted, err := s.prepared.Get(s.ctx, func() (*engine.Sort, error) {
		plan, err := s.scorePlan()
		if err != nil {
			return nil, err
		}
		// Optimization keeps the root Sort: nothing rewrites a Sort
		// without a Limit or a Select above it.
		sorted, ok := s.ctx.Optimize(plan).(*engine.Sort)
		if !ok {
			return nil, fmt.Errorf("ir: optimized score plan lost its root Sort")
		}
		return sorted, nil
	})
	if err != nil {
		return nil, err
	}
	ranked, err := s.bind(sorted.Child, query)
	if err != nil {
		return nil, err
	}
	if k > 0 {
		return engine.NewTopN(ranked, k, sorted.Keys...), nil
	}
	return engine.NewSort(ranked, sorted.Keys...), nil
}

// HitsFromRelation converts a ranked (docID) relation with score-valued
// probabilities into a Hit slice.
func HitsFromRelation(rel *relation.Relation) ([]Hit, error) {
	idx := rel.ColIndex(ColDocID)
	if idx < 0 {
		return nil, fmt.Errorf("ir: relation has no %s column (have %s)", ColDocID, strings.Join(rel.ColumnNames(), ", "))
	}
	col := rel.Col(idx)
	prob := rel.Prob()
	hits := make([]Hit, rel.NumRows())
	for i := range hits {
		hits[i] = Hit{DocID: col.Vec.Format(i), Score: prob[i]}
	}
	return hits, nil
}
