package ir

import (
	"context"
	"fmt"
	"strconv"

	"irdb/internal/engine"
	"irdb/internal/expr"
	"irdb/internal/stem"
)

// Phrase search uses the token positions of Figure 1's posting lists
// ("the positions at which it appears"): because the store keeps raw
// text, positional matching is just another relational query — one of
// the "custom distance functions" the paper says on-demand indexing
// enables (section 2.1).

// TermDocPosPlan is TermDocPlan keeping token positions:
// (term, docID, pos), materialized.
func TermDocPosPlan(docs engine.Node, p Params) engine.Node {
	tok := engine.NewTokenize(docs, ColDocID, ColData, p.Tokenizer, false)
	proj := engine.NewProject(tok,
		engine.ProjCol{Name: ColTerm, E: termExpr(p)},
		engine.ProjCol{Name: ColDocID, E: expr.Column(ColDocID)},
		engine.ProjCol{Name: "pos", E: expr.Column("pos")},
	)
	return engine.NewMaterialize(proj)
}

// PhrasePlan matches documents containing the query terms as an exact
// phrase (adjacent positions, in order). It compiles to a chain of
// self-joins over the positional term-document matrix:
//
//	t1.docID = t2.docID AND t2.pos = t1.pos + 1 AND ...
//
// The result is one row per phrase occurrence, (docID, pos) of the first
// term; wrap in a Distinct to get matching documents.
func PhrasePlan(docs engine.Node, p Params, phrase string) (engine.Node, error) {
	terms := p.Tokenizer.Tokens(phrase)
	if len(terms) == 0 {
		return nil, fmt.Errorf("ir: empty phrase")
	}
	stemmed, err := stemAll(terms, p)
	if err != nil {
		return nil, err
	}
	base := TermDocPosPlan(docs, p)

	occurrence := func(term string, idx int) engine.Node {
		sel := engine.NewSelect(base,
			expr.Cmp{Op: expr.Eq, L: expr.Column(ColTerm), R: expr.Str(term)})
		return engine.NewProject(sel,
			engine.ProjCol{Name: ColDocID, E: expr.Column(ColDocID)},
			engine.ProjCol{Name: fmt.Sprintf("pos%d", idx), E: expr.Column("pos")},
		)
	}

	plan := occurrence(stemmed[0], 0)
	for i := 1; i < len(stemmed); i++ {
		next := occurrence(stemmed[i], i)
		// join on docID, then keep only adjacent positions
		joined := engine.NewHashJoin(plan, next,
			[]string{ColDocID}, []string{ColDocID}, engine.JoinLeft)
		plan = engine.NewSelect(joined, expr.Cmp{
			Op: expr.Eq,
			L:  expr.Column(fmt.Sprintf("pos%d", i)),
			R:  expr.Arith{Op: expr.Add, L: expr.Column(fmt.Sprintf("pos%d", i-1)), R: expr.Int(1)},
		})
	}
	return engine.NewProject(plan,
		engine.ProjCol{Name: ColDocID, E: expr.Column(ColDocID)},
		engine.ProjCol{Name: "pos", E: expr.Column("pos0")},
	), nil
}

// SearchPhrase returns the documents containing the exact phrase, with
// the number of occurrences as the certain hit count (probability 1 per
// doc; phrase matching is boolean structured search).
func (s *Searcher) SearchPhrase(c context.Context, phrase string) ([]Hit, error) {
	plan, err := PhrasePlan(s.docs, s.p, phrase)
	if err != nil {
		return nil, err
	}
	counted := engine.NewAggregate(plan, []string{ColDocID},
		[]engine.AggSpec{{Op: engine.CountAll, As: "occurrences"}}, engine.GroupCertain)
	sorted := engine.NewSort(counted,
		engine.SortSpec{Col: "occurrences", Desc: true}, engine.SortSpec{Col: ColDocID})
	rel, err := s.ctx.Exec(c, sorted)
	if err != nil {
		return nil, err
	}
	occIdx := rel.ColIndex("occurrences")
	docIdx := rel.ColIndex(ColDocID)
	hits := make([]Hit, rel.NumRows())
	for i := range hits {
		hits[i] = Hit{
			DocID: rel.Col(docIdx).Vec.Format(i),
			Score: float64parse(rel.Col(occIdx).Vec.Format(i)),
		}
	}
	return hits, nil
}

func stemAll(terms []string, p Params) ([]string, error) {
	st, err := stem.Get(p.Stemmer)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(terms))
	for i, t := range terms {
		out[i] = st.Stem(t)
	}
	return out, nil
}

func float64parse(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return v
}
