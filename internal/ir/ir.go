// Package ir implements information retrieval on the relational engine —
// the IR-on-DB layer of section 2.1 of the paper. Index structures
// (term-document matrix, document lengths, term dictionary, term and
// collection frequencies) are ordinary relational plans built on demand
// from raw text and materialized through the catalog cache, exactly
// mirroring the paper's SQL views:
//
//	term_doc  — stemmed tokens per document
//	doc_len   — document lengths
//	termdict  — distinct terms numbered by row_number()
//	tf        — integer term frequencies per (termID, docID)
//	idf       — BM25 inverse document frequency per termID
//
// WeightsPlan folds them into one weight per (term, document) under one
// of three models: BM25 (the paper's), TF-IDF, or the Jelinek-Mercer
// smoothed language model.
//
// Because every view is "independent of query-terms", all of them sit
// behind Materialize nodes and are computed once per (collection,
// parameters) pair; only the final per-query scoring runs per query.
// RankPlan builds that scoring, the one score plan of the package: the
// Searcher ranks by it, and so does the strategy package's rank-text
// block. It takes the query leaf as an argument, so every caller builds
// it once over a relation-valued parameter and binds the query per
// search.
package ir

import (
	"fmt"

	"irdb/internal/stem"
	"irdb/internal/text"
)

// Model selects the ranking function.
type Model int

// Supported ranking models. BM25 is the model worked out in the paper;
// the others are the "alternative ranking functions [that] would easily
// adapt or reuse large parts of this implementation".
const (
	BM25 Model = iota
	TFIDF
	LMJelinekMercer
)

func (m Model) String() string {
	switch m {
	case BM25:
		return "bm25"
	case TFIDF:
		return "tfidf"
	case LMJelinekMercer:
		return "lm-jm"
	}
	return "?"
}

// Params configures on-demand index construction and ranking. The paper
// stresses these are "often hard to decide upfront" (stemming language,
// tokenization strategy), which is why indexing happens at query time.
type Params struct {
	// Stemmer is the registered stemmer name, e.g. "sb-english".
	Stemmer string
	// Tokenizer splits raw text; zero value is text.Default() semantics
	// only if set explicitly — use DefaultParams for the paper's setup.
	Tokenizer text.Tokenizer
	// WithCompounds also indexes joined adjacent token pairs, enabling
	// compound query terms (production strategy, section 3).
	WithCompounds bool

	Model Model

	// K1 and B are BM25's "two free parameters, k1 (saturation) and
	// b (doc-length normalization)".
	K1, B float64
	// IDFPlusOne selects idf = ln(1 + (N-df+0.5)/(df+0.5)) instead of the
	// paper's raw Robertson-Sparck Jones idf. The +1 variant never goes
	// negative (or zero on tiny collections), which the probabilistic
	// mixing layer requires; set false to reproduce the paper's SQL
	// exactly.
	IDFPlusOne bool
	// LambdaJM is the Jelinek-Mercer mixing weight (LMJelinekMercer).
	LambdaJM float64
}

// DefaultParams returns the configuration of the paper's running example:
// Snowball English stemming, lower-cased tokens, BM25 with the standard
// k1 = 1.2, b = 0.75.
func DefaultParams() Params {
	return Params{
		Stemmer:    "sb-english",
		Tokenizer:  text.Default(),
		Model:      BM25,
		K1:         1.2,
		B:          0.75,
		IDFPlusOne: true,
		LambdaJM:   0.3,
	}
}

// spec canonically identifies the index-relevant parameters; it is baked
// into plan fingerprints so different configurations never share cache
// tables.
func (p Params) spec() string {
	return fmt.Sprintf("ir{stem=%s,%s,compounds=%v}", p.Stemmer, p.Tokenizer.Spec(), p.WithCompounds)
}

// Validate reports configuration errors early.
func (p Params) Validate() error {
	if p.Stemmer == "" {
		return fmt.Errorf("ir: empty stemmer name (use \"none\" for no stemming)")
	}
	if _, err := stem.Get(p.Stemmer); err != nil {
		return err
	}
	if p.K1 < 0 || p.B < 0 || p.B > 1 {
		return fmt.Errorf("ir: BM25 parameters out of range: k1=%g b=%g", p.K1, p.B)
	}
	if p.LambdaJM < 0 || p.LambdaJM > 1 {
		return fmt.Errorf("ir: lambda out of range: %g", p.LambdaJM)
	}
	return nil
}
