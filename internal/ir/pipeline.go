package ir

import (
	"fmt"

	"irdb/internal/engine"
	"irdb/internal/expr"
	"irdb/internal/relation"
	"irdb/internal/vector"
)

// Column names used throughout the pipeline, matching the paper's views.
const (
	ColDocID  = "docID"
	ColData   = "data"
	ColTerm   = "term"
	ColTermID = "termID"
	ColTF     = "tf"
	ColDF     = "df"
	ColIDF    = "idf"
	ColLen    = "len"
	ColWeight = "w"
	ColScore  = "score"
)

// termExpr is the paper's "stem(lcase(token),'sb-english')".
func termExpr(p Params) expr.Expr {
	return expr.NewCall("stem", expr.NewCall("lcase", expr.Column("token")), expr.Str(p.Stemmer))
}

// TermDocPlan mirrors the paper's term_doc view:
//
//	CREATE VIEW term_doc AS
//	SELECT stem(lcase(token),'sb-english') as term, docID
//	FROM tokenize( (SELECT docID, data FROM docs) );
//
// The result is materialized — it is query-independent.
func TermDocPlan(docs engine.Node, p Params) engine.Node {
	tok := engine.NewTokenize(docs, ColDocID, ColData, p.Tokenizer, p.WithCompounds)
	proj := engine.NewProject(tok,
		engine.ProjCol{Name: ColTerm, E: termExpr(p)},
		engine.ProjCol{Name: ColDocID, E: expr.Column(ColDocID)},
	)
	return engine.NewMaterialize(proj)
}

// DocLenPlan mirrors doc_len: document lengths in tokens.
func DocLenPlan(docs engine.Node, p Params) engine.Node {
	agg := engine.NewAggregate(TermDocPlan(docs, p), []string{ColDocID},
		[]engine.AggSpec{{Op: engine.CountAll, As: ColLen}}, engine.GroupCertain)
	return engine.NewMaterialize(agg)
}

// TermDictPlan mirrors termdict: distinct terms with dense integer IDs
// assigned by row_number() over a sorted term list (sorting makes IDs
// deterministic across runs).
func TermDictPlan(docs engine.Node, p Params) engine.Node {
	distinct := engine.NewDistinct(
		engine.NewProject(TermDocPlan(docs, p), engine.ProjCol{Name: ColTerm, E: expr.Column(ColTerm)}),
		engine.GroupCertain)
	sorted := engine.NewSort(distinct, engine.SortSpec{Col: ColTerm})
	return engine.NewMaterialize(engine.NewRowNumber(sorted, ColTermID))
}

// TFPlan mirrors tf: integer term frequencies per (termID, docID), built
// by joining term_doc with termdict and counting.
func TFPlan(docs engine.Node, p Params) engine.Node {
	join := engine.NewHashJoin(
		TermDocPlan(docs, p), TermDictPlan(docs, p),
		[]string{ColTerm}, []string{ColTerm}, engine.JoinLeft)
	agg := engine.NewAggregate(join, []string{ColTermID, ColDocID},
		[]engine.AggSpec{{Op: engine.CountAll, As: ColTF}}, engine.GroupCertain)
	return engine.NewMaterialize(agg)
}

// NumDocsPlan counts the collection size (the paper's
// "(SELECT count(*) FROM doc_len)").
func NumDocsPlan(docs engine.Node, p Params) engine.Node {
	return engine.NewMaterialize(engine.NewAggregate(DocLenPlan(docs, p), nil,
		[]engine.AggSpec{{Op: engine.CountAll, As: "n"}}, engine.GroupCertain))
}

// AvgDocLenPlan computes the average document length (the paper's
// "(SELECT avg(len) FROM doc_len)").
func AvgDocLenPlan(docs engine.Node, p Params) engine.Node {
	return engine.NewMaterialize(engine.NewAggregate(DocLenPlan(docs, p), nil,
		[]engine.AggSpec{{Op: engine.Avg, Col: ColLen, As: "avgdl"}}, engine.GroupCertain))
}

// crossOne joins big against the single-row plan single by a constant
// key, the engine's way of referencing a scalar subquery. Each side is
// projected onto the columns its consumer reads (cols of big, the scalar
// column of single) plus the key.
func crossOne(big engine.Node, cols []string, single engine.Node, scalar string) engine.Node {
	l := engine.NewProject(big, append(engine.ByName(cols...), engine.ProjCol{Name: "one", E: expr.Int(1)})...)
	r := engine.NewProject(single,
		engine.ProjCol{Name: scalar, E: expr.Column(scalar)},
		engine.ProjCol{Name: "one_r", E: expr.Int(1)})
	return engine.NewHashJoin(l, r, []string{"one"}, []string{"one_r"}, engine.JoinLeft)
}

// IDFPlan mirrors idf, BM25's Robertson-Sparck Jones inverse document
// frequency:
//
//	SELECT termID, log( (N - df + 0.5) / (df + 0.5) ) as idf
//
// where df is the number of documents containing the term.
func IDFPlan(docs engine.Node, p Params) engine.Node {
	df := engine.NewAggregate(TFPlan(docs, p), []string{ColTermID},
		[]engine.AggSpec{{Op: engine.CountAll, As: ColDF}}, engine.GroupCertain)
	joined := crossOne(df, []string{ColTermID, ColDF}, NumDocsPlan(docs, p), "n")
	ratio := expr.Arith{Op: expr.Div,
		L: expr.Arith{Op: expr.Add,
			L: expr.Arith{Op: expr.Sub, L: expr.Column("n"), R: expr.Column(ColDF)},
			R: expr.Float(0.5)},
		R: expr.Arith{Op: expr.Add, L: expr.Column(ColDF), R: expr.Float(0.5)},
	}
	arg := expr.Expr(ratio)
	if p.IDFPlusOne {
		arg = expr.Arith{Op: expr.Add, L: expr.Float(1), R: ratio}
	}
	idf := engine.NewProject(joined,
		engine.ProjCol{Name: ColTermID, E: expr.Column(ColTermID)},
		engine.ProjCol{Name: ColIDF, E: expr.NewCall("log", arg)},
	)
	return engine.NewMaterialize(idf)
}

// CollectionFreqPlan computes per-term collection frequencies and is the
// language-model analogue of df.
func CollectionFreqPlan(docs engine.Node, p Params) engine.Node {
	cf := engine.NewAggregate(TFPlan(docs, p), []string{ColTermID},
		[]engine.AggSpec{{Op: engine.Sum, Col: ColTF, As: "cf"}}, engine.GroupCertain)
	return engine.NewMaterialize(cf)
}

// CollectionSizePlan computes the total number of tokens in the
// collection (language-model normalizer).
func CollectionSizePlan(docs engine.Node, p Params) engine.Node {
	return engine.NewMaterialize(engine.NewAggregate(CollectionFreqPlan(docs, p), nil,
		[]engine.AggSpec{{Op: engine.Sum, Col: "cf", As: "csize"}}, engine.GroupCertain))
}

// WeightsPlan produces the query-independent (termID, docID, w) matrix of
// the configured model; scoring a query reduces to probing this
// materialized relation with the query's termIDs and summing w per
// document.
//
// For BM25 this folds the paper's tf_bm25 and idf views together:
//
//	w = idf(t) · tf / (tf + k1·(1 − b + b·len/avgdl))
//
// (The paper's final SQL sums tf_bm25.tf after joining idf; the idf
// factor is part of BM25's standard formulation, so we fold it into the
// weight.)
//
// The matrix is stored clustered by termID, so one query term's postings
// are one contiguous run of rows: the probe in RankPlan reads them in
// order instead of scattered over the whole relation. Clustering changes
// no score. The sort is stable, so each term's rows keep their relative
// order, and the join index lists a term's rows in ascending row order
// either way: every query meets the same (term, document) pairs in the
// same order, so documents are grouped and their weights summed in the
// same order as over the unsorted matrix.
func WeightsPlan(docs engine.Node, p Params) (engine.Node, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var w engine.Node
	switch p.Model {
	case BM25:
		w = bm25Weights(docs, p)
	case TFIDF:
		w = tfidfWeights(docs, p)
	case LMJelinekMercer:
		w = lmjmWeights(docs, p)
	default:
		return nil, fmt.Errorf("ir: unknown model %v", p.Model)
	}
	return engine.NewMaterialize(engine.NewSort(w, engine.SortSpec{Col: ColTermID})), nil
}

func bm25Weights(docs engine.Node, p Params) engine.Node {
	// tf ⋈ doc_len on docID, then bring in the avgdl scalar.
	tfLen := engine.NewHashJoin(TFPlan(docs, p), DocLenPlan(docs, p),
		[]string{ColDocID}, []string{ColDocID}, engine.JoinLeft)
	withAvg := crossOne(tfLen, []string{ColTermID, ColDocID, ColTF, ColLen}, AvgDocLenPlan(docs, p), "avgdl")
	// tfn = tf / (tf + k1*(1 - b + b*len/avgdl))
	tfn := expr.Arith{Op: expr.Div,
		L: expr.Column(ColTF),
		R: expr.Arith{Op: expr.Add,
			L: expr.Column(ColTF),
			R: expr.Arith{Op: expr.Mul,
				L: expr.Float(p.K1),
				R: expr.Arith{Op: expr.Add,
					L: expr.Float(1 - p.B),
					R: expr.Arith{Op: expr.Mul,
						L: expr.Float(p.B),
						R: expr.Arith{Op: expr.Div, L: expr.Column(ColLen), R: expr.Column("avgdl")},
					}}}},
	}
	tfBM25 := engine.NewProject(withAvg,
		engine.ProjCol{Name: ColTermID, E: expr.Column(ColTermID)},
		engine.ProjCol{Name: ColDocID, E: expr.Column(ColDocID)},
		engine.ProjCol{Name: "tfn", E: tfn},
	)
	withIDF := engine.NewHashJoin(tfBM25, IDFPlan(docs, p),
		[]string{ColTermID}, []string{ColTermID}, engine.JoinLeft)
	w := engine.NewProject(withIDF,
		engine.ProjCol{Name: ColTermID, E: expr.Column(ColTermID)},
		engine.ProjCol{Name: ColDocID, E: expr.Column(ColDocID)},
		engine.ProjCol{Name: ColWeight, E: expr.Arith{Op: expr.Mul, L: expr.Column("tfn"), R: expr.Column(ColIDF)}},
	)
	return w
}

// tfidfWeights: w = (1 + ln tf) · ln((N+1)/(df+0.5)). Log-scaled term
// frequency with a smoothed idf; no document-length normalization.
func tfidfWeights(docs engine.Node, p Params) engine.Node {
	df := engine.NewAggregate(TFPlan(docs, p), []string{ColTermID},
		[]engine.AggSpec{{Op: engine.CountAll, As: ColDF}}, engine.GroupCertain)
	withN := crossOne(df, []string{ColTermID, ColDF}, NumDocsPlan(docs, p), "n")
	idf2 := engine.NewProject(withN,
		engine.ProjCol{Name: ColTermID, E: expr.Column(ColTermID)},
		engine.ProjCol{Name: ColIDF, E: expr.NewCall("log",
			expr.Arith{Op: expr.Div,
				L: expr.Arith{Op: expr.Add, L: expr.Column("n"), R: expr.Float(1)},
				R: expr.Arith{Op: expr.Add, L: expr.Column(ColDF), R: expr.Float(0.5)},
			})},
	)
	joined := engine.NewHashJoin(TFPlan(docs, p), engine.NewMaterialize(idf2),
		[]string{ColTermID}, []string{ColTermID}, engine.JoinLeft)
	w := engine.NewProject(joined,
		engine.ProjCol{Name: ColTermID, E: expr.Column(ColTermID)},
		engine.ProjCol{Name: ColDocID, E: expr.Column(ColDocID)},
		engine.ProjCol{Name: ColWeight, E: expr.Arith{Op: expr.Mul,
			L: expr.Arith{Op: expr.Add, L: expr.Float(1), R: expr.NewCall("log", expr.Column(ColTF))},
			R: expr.Column(ColIDF)}},
	)
	return w
}

// lmjmWeights: Jelinek-Mercer smoothed language model in rank-equivalent
// sum-of-logs form, w = ln(1 + ((1-λ)·tf/len) / (λ·cf/C)).
func lmjmWeights(docs engine.Node, p Params) engine.Node {
	tfLen := engine.NewHashJoin(TFPlan(docs, p), DocLenPlan(docs, p),
		[]string{ColDocID}, []string{ColDocID}, engine.JoinLeft)
	withCF := engine.NewHashJoin(tfLen, CollectionFreqPlan(docs, p),
		[]string{ColTermID}, []string{ColTermID}, engine.JoinLeft)
	withC := crossOne(withCF, []string{ColTermID, ColDocID, ColTF, ColLen, "cf"}, CollectionSizePlan(docs, p), "csize")
	lambda := p.LambdaJM
	num := expr.Arith{Op: expr.Mul, L: expr.Float(1 - lambda),
		R: expr.Arith{Op: expr.Div, L: expr.Column(ColTF), R: expr.Column(ColLen)}}
	den := expr.Arith{Op: expr.Mul, L: expr.Float(lambda),
		R: expr.Arith{Op: expr.Div, L: expr.Column("cf"), R: expr.Column("csize")}}
	w := engine.NewProject(withC,
		engine.ProjCol{Name: ColTermID, E: expr.Column(ColTermID)},
		engine.ProjCol{Name: ColDocID, E: expr.Column(ColDocID)},
		engine.ProjCol{Name: ColWeight, E: expr.NewCall("log",
			expr.Arith{Op: expr.Add, L: expr.Float(1), R: expr.Arith{Op: expr.Div, L: num, R: den}})},
	)
	return w
}

// QueryLeaf is a query's leaf plan: the raw query as the single-row
// "query document" (docID, data) of section 2.1, identified by the
// analyzer and the query text.
func QueryLeaf(p Params, query string) *engine.Values {
	rel := relation.NewBuilder([]string{ColDocID, ColData}, []vector.Kind{vector.Int64, vector.String}).
		Add(0, query).Build()
	return engine.NewValues("q:"+p.spec()+":"+query, rel)
}

// QueryParam is the query leaf of a prepared plan: the relation-valued
// parameter ?name with the query document's columns, bound per search to
// a QueryLeaf.
func QueryParam(name string) *engine.Values {
	return engine.NewValuesParam(name, ColDocID, ColData)
}

// QTerms mirrors qterms over the query leaf q (a QueryLeaf or a
// QueryParam): tokenize and stem the query exactly like the documents,
// then map to termIDs through the term dictionary. Unknown terms drop out
// in the join, as in the paper's SQL.
func QTerms(docs engine.Node, p Params, q engine.Node) engine.Node {
	tok := engine.NewTokenize(q, ColDocID, ColData, p.Tokenizer, false)
	qterms := engine.NewProject(tok, engine.ProjCol{Name: ColTerm, E: termExpr(p)})
	// Probe the (small) query against the materialized dictionary.
	join := engine.NewHashJoin(qterms, TermDictPlan(docs, p),
		[]string{ColTerm}, []string{ColTerm}, engine.JoinLeft)
	return engine.NewProject(join, engine.ProjCol{Name: ColTermID, E: expr.Column(ColTermID)})
}

// RankPlan is the paper's "Rank by Text" block for the query leaf q (a
// QueryLeaf or a QueryParam): probe the weights matrix with the query's
// termIDs, sum the contributions per document, and expose the score as
// the tuple probability. The plan produces an unordered (docID) relation.
func RankPlan(docs engine.Node, p Params, q engine.Node) (engine.Node, error) {
	w, err := WeightsPlan(docs, p)
	if err != nil {
		return nil, err
	}
	// Probe side is the (tiny) query-term list; build side is the cached
	// weights matrix — Figure 1's "inverted index as a relational join".
	matched := engine.NewHashJoin(QTerms(docs, p, q), w,
		[]string{ColTermID}, []string{ColTermID}, engine.JoinLeft)
	scored := engine.NewAggregate(matched, []string{ColDocID},
		[]engine.AggSpec{{Op: engine.Sum, Col: ColWeight, As: ColScore}}, engine.GroupCertain)
	return engine.NewProbFromCol(scored, ColScore, false, true), nil
}
