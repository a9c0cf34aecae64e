package ir

import (
	"context"
	"fmt"
	"math"
	"strings"

	"irdb/internal/engine"
	"irdb/internal/expr"
	"irdb/internal/relation"
	"irdb/internal/vector"
)

// Searcher ranks a document collection — any plan producing a
// (docID, data) relation — against keyword queries using the configured
// retrieval model. The first search (or an explicit BuildIndex) pays the
// on-demand index construction of section 2.1; later searches on the same
// collection and parameters run hot via the materialization cache.
type Searcher struct {
	ctx  *engine.Ctx
	docs engine.Node
	p    Params
}

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

// Params returns the searcher's configuration.
func (s *Searcher) Params() Params { return s.p }

// Docs returns the collection plan.
func (s *Searcher) Docs() engine.Node { return s.docs }

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
	// Dirichlet scoring additionally touches doc_len at query time.
	if s.p.Model == LMDirichlet {
		if _, err := s.ctx.Exec(c, s.ctx.Optimize(DocLenPlan(s.docs, s.p))); err != nil {
			return err
		}
	}
	_, err = s.ctx.Exec(c, s.ctx.Optimize(TermDictPlan(s.docs, s.p)))
	return err
}

// ScorePlan builds the full per-query scoring plan: probe the weights
// matrix with the query's termIDs, sum contributions per document, and
// expose the score as the tuple probability, ranked descending. The
// returned plan produces a (docID) relation whose probability column is
// the retrieval score.
func (s *Searcher) ScorePlan(query string) (engine.Node, error) {
	w, err := WeightsPlan(s.docs, s.p)
	if err != nil {
		return nil, err
	}
	qterms := QTermsPlan(s.docs, s.p, query)
	// Probe side is the (tiny) query-term list; build side is the cached
	// weights matrix — Figure 1's "inverted index as a relational join".
	matched := engine.NewHashJoin(qterms, w,
		[]string{ColTermID}, []string{ColTermID}, engine.JoinLeft)
	scored := engine.NewAggregate(matched, []string{ColDocID},
		[]engine.AggSpec{{Op: engine.Sum, Col: ColWeight, As: ColScore}}, engine.GroupCertain)

	var final engine.Node
	if s.p.Model == LMDirichlet {
		// score += |q| · ln(μ / (μ + len))
		qlen := len(s.p.Tokenizer.Tokens(query))
		withLen := engine.NewHashJoin(scored, DocLenPlan(s.docs, s.p),
			[]string{ColDocID}, []string{ColDocID}, engine.JoinLeft)
		final = engine.NewProject(withLen,
			engine.ProjCol{Name: ColDocID, E: expr.Column(ColDocID)},
			engine.ProjCol{Name: ColScore, E: expr.Arith{Op: expr.Add,
				L: expr.Column(ColScore),
				R: expr.Arith{Op: expr.Mul,
					L: expr.Float(float64(qlen)),
					R: expr.NewCall("log", expr.Arith{Op: expr.Div,
						L: expr.Float(s.p.MuDirichlet),
						R: expr.Arith{Op: expr.Add, L: expr.Float(s.p.MuDirichlet), R: expr.Column(ColLen)}})},
			}},
		)
	} else {
		final = engine.NewProject(scored,
			engine.ProjCol{Name: ColDocID, E: expr.Column(ColDocID)},
			engine.ProjCol{Name: ColScore, E: expr.Column(ColScore)},
		)
	}
	asProb := engine.NewProbFromCol(final, ColScore, false, true)
	return engine.NewSort(asProb, engine.SortSpec{Col: "", Desc: true}, engine.SortSpec{Col: ColDocID}), nil
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
	plan, err := s.ScorePlan(query)
	if err != nil {
		return nil, err
	}
	if k > 0 {
		plan = engine.NewLimit(plan, k)
	}
	rel, err := s.ctx.Exec(c, s.ctx.Optimize(plan))
	if err != nil {
		return nil, err
	}
	return HitsFromRelation(rel)
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

// IndexStats summarizes the materialized index of a collection.
type IndexStats struct {
	Docs      int64
	Terms     int64
	Postings  int64
	AvgDocLen float64
}

// Stats materializes (if needed) and summarizes the index views.
func (s *Searcher) Stats(c context.Context) (IndexStats, error) {
	var st IndexStats
	dict, err := s.ctx.Exec(c, TermDictPlan(s.docs, s.p))
	if err != nil {
		return st, err
	}
	st.Terms = int64(dict.NumRows())
	tf, err := s.ctx.Exec(c, TFPlan(s.docs, s.p))
	if err != nil {
		return st, err
	}
	st.Postings = int64(tf.NumRows())
	dl, err := s.ctx.Exec(c, DocLenPlan(s.docs, s.p))
	if err != nil {
		return st, err
	}
	st.Docs = int64(dl.NumRows())
	if lenCol := dl.ColIndex(ColLen); lenCol >= 0 && dl.NumRows() > 0 {
		vals := dl.Col(lenCol).Vec.(*vector.Int64s).Values()
		var sum int64
		for _, v := range vals {
			sum += v
		}
		st.AvgDocLen = float64(sum) / float64(len(vals))
	}
	if math.IsNaN(st.AvgDocLen) {
		st.AvgDocLen = 0
	}
	return st, nil
}
