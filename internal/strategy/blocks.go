package strategy

import (
	"fmt"
	"sort"
	"strings"

	"irdb/internal/engine"
	"irdb/internal/expr"
	"irdb/internal/ir"
	"irdb/internal/text"
	"irdb/internal/triple"
)

// blockSpec describes one block type: input arity and compilation.
// maxInputs < 0 means unbounded.
type blockSpec struct {
	minInputs int
	maxInputs int
	compile   func(c *lowering, b Block, inputs []engine.Node) (engine.Node, error)
}

// The block registry. Node-set blocks produce a single-column (subject)
// relation whose probability carries the ranking score; text blocks
// produce (docID, data).
var blockTypes = map[string]blockSpec{
	// select-type: nodes of a graph type — "first selects nodes of type
	// lot from the graph" (section 3 step 1).
	"select-type": {0, 0, func(c *lowering, b Block, _ []engine.Node) (engine.Node, error) {
		typeName, err := stringParam(b, "type")
		if err != nil {
			return nil, err
		}
		return triple.SubjectsOfType(typeName), nil
	}},

	// filter-property: nodes with a given (property, value) — the
	// category filter of the toy scenario.
	"filter-property": {0, 1, func(c *lowering, b Block, inputs []engine.Node) (engine.Node, error) {
		prop, err := stringParam(b, "property")
		if err != nil {
			return nil, err
		}
		value, err := stringParam(b, "value")
		if err != nil {
			return nil, err
		}
		sel := engine.NewSelect(triple.ScanAll(), expr.And{
			L: expr.Cmp{Op: expr.Eq, L: expr.Column(triple.ColProperty), R: expr.Str(prop)},
			R: expr.Cmp{Op: expr.Eq, L: expr.Column(triple.ColObject), R: expr.Str(value)},
		})
		matches := engine.NewMaterialize(engine.NewProject(sel,
			engine.ProjCol{Name: triple.ColSubject, E: expr.Column(triple.ColSubject)}))
		if len(inputs) == 0 {
			return matches, nil
		}
		// Restrict the input node set; input probabilities carry through.
		return engine.NewHashJoin(inputs[0], matches,
			[]string{triple.ColSubject}, []string{triple.ColSubject}, engine.JoinIndependent), nil
	}},

	// traverse: follow a graph property forward or backward; scores
	// propagate through the probabilistic join (Figure 3 step 3).
	"traverse": {1, 1, func(c *lowering, b Block, inputs []engine.Node) (engine.Node, error) {
		prop, err := stringParam(b, "property")
		if err != nil {
			return nil, err
		}
		dir := optStringParam(b, "direction", "forward")
		switch dir {
		case "forward":
			return triple.TraverseForward(inputs[0], prop), nil
		case "backward":
			return triple.TraverseBackward(inputs[0], prop), nil
		default:
			return nil, fmt.Errorf("traverse: direction must be forward or backward, got %q", dir)
		}
	}},

	// extract-text: (subject) → (docID, data) via a text property — the
	// sub-collection definition fed to ranking ("extracts the lot
	// descriptions").
	"extract-text": {1, 1, func(c *lowering, b Block, inputs []engine.Node) (engine.Node, error) {
		prop, err := stringParam(b, "property")
		if err != nil {
			return nil, err
		}
		return triple.DocsOf(inputs[0], prop), nil
	}},

	// rank-text: the "Rank by Text BM25" block of Figure 2. Input is a
	// (docID, data) collection; output is (subject) ranked by relevance
	// to the compiler's query, scored by ir.RankPlan under
	// ir.DefaultParams. Optional params: model (bm25, tfidf or lm-jm),
	// k1, b, stemmer, expand (synonyms), compounds, normalize.
	"rank-text": {1, 1, func(c *lowering, b Block, inputs []engine.Node) (engine.Node, error) {
		p := ir.DefaultParams()
		if m := optStringParam(b, "model", ""); m != "" {
			switch strings.ToLower(m) {
			case "bm25":
				p.Model = ir.BM25
			case "tfidf":
				p.Model = ir.TFIDF
			case "lm-jm":
				p.Model = ir.LMJelinekMercer
			default:
				return nil, fmt.Errorf("rank-text: unknown model %q", m)
			}
		}
		if k1, ok := floatParam(b, "k1"); ok {
			p.K1 = k1
		}
		if bb, ok := floatParam(b, "b"); ok {
			p.B = bb
		}
		if st := optStringParam(b, "stemmer", ""); st != "" {
			p.Stemmer = st
		}
		if boolParam(b, "compounds") {
			p.WithCompounds = true
		}
		c.leaves[b.ID] = queryLeaf(c.Synonyms, b, p)
		plan, err := ir.RankPlan(inputs[0], p, ir.QueryParam(b.ID))
		if err != nil {
			return nil, err
		}
		// JOIN INDEPENDENT with the per-document probabilities of the
		// input collection: text score × document probability. Per
		// section 2.3, an uncertain category filter upstream, say,
		// multiplies into the retrieval score — "structured search need
		// not be restricted to boolean facts".
		docProbs := engine.NewMaterialize(engine.NewDistinct(
			engine.NewProject(inputs[0], engine.ProjCol{Name: ir.ColDocID, E: expr.Column(ir.ColDocID)}),
			engine.GroupMax))
		plan = engine.NewProject(
			engine.NewHashJoin(plan, docProbs, []string{ir.ColDocID}, []string{ir.ColDocID}, engine.JoinIndependent),
			engine.ProjCol{Name: ir.ColDocID, E: expr.Column(ir.ColDocID)})
		if optBoolParam(b, "normalize", true) {
			// Scores become probabilities by max-normalization (relational
			// Bayes, MAX evidence), so mixing weights behave as a convex
			// combination.
			plan = engine.NewNormalize(plan, nil, engine.NormMax)
		}
		return engine.NewProject(plan, engine.ProjCol{Name: triple.ColSubject, E: expr.Column(ir.ColDocID)}), nil
	}},

	// mix: linear combination of ranked node sets with given weights —
	// Figure 3 step 4.
	"mix": {2, -1, func(c *lowering, b Block, inputs []engine.Node) (engine.Node, error) {
		weights, err := floatSliceParam(b, "weights")
		if err != nil {
			return nil, err
		}
		if len(weights) != len(inputs) {
			return nil, fmt.Errorf("mix: %d weights for %d inputs", len(weights), len(inputs))
		}
		var sum float64
		for _, w := range weights {
			if w < 0 {
				return nil, fmt.Errorf("mix: negative weight %g", w)
			}
			sum += w
		}
		if sum > 1+1e-9 {
			return nil, fmt.Errorf("mix: weights sum to %g > 1 (scores are probabilities)", sum)
		}
		// A left-deep fold: each step merges one more input into the
		// running union, so disjoint sums associate left to right.
		acc := engine.Node(engine.NewScaleProb(inputs[0], weights[0]))
		for i := 1; i < len(inputs); i++ {
			acc = engine.NewDistinct(engine.NewUnion(acc, engine.NewScaleProb(inputs[i], weights[i])), engine.GroupDisjoint)
		}
		return acc, nil
	}},

	// top-k: ranked cutoff.
	"top-k": {1, 1, func(c *lowering, b Block, inputs []engine.Node) (engine.Node, error) {
		k, ok := floatParam(b, "k")
		if !ok || k < 1 {
			return nil, fmt.Errorf("top-k: positive integer parameter k required")
		}
		return engine.NewTopN(inputs[0], int(k),
			engine.SortSpec{Col: "", Desc: true}, engine.SortSpec{Col: triple.ColSubject}), nil
	}},

	// min-score: drop results below a probability threshold.
	"min-score": {1, 1, func(c *lowering, b Block, inputs []engine.Node) (engine.Node, error) {
		min, ok := floatParam(b, "min")
		if !ok {
			return nil, fmt.Errorf("min-score: parameter min required")
		}
		return engine.NewSelect(inputs[0],
			expr.Cmp{Op: expr.Ge, L: expr.Prob{}, R: expr.Float(min)}), nil
	}},
}

// queryLeaf returns how rank-text block b turns a raw query into its
// query leaf under the analyzer p: the query itself, or, for an "expand"
// block, its tokens expanded with synonyms (and joined adjacent pairs for
// "compounds").
func queryLeaf(synonyms text.SynonymDict, b Block, p ir.Params) func(query string) *engine.Values {
	expand, compounds := boolParam(b, "expand"), boolParam(b, "compounds")
	return func(query string) *engine.Values {
		if expand {
			terms := p.Tokenizer.Tokens(query)
			expanded := synonyms.Expand(terms)
			if compounds {
				expanded = append(expanded, text.Compounds(terms)...)
			}
			query = strings.Join(expanded, " ")
		}
		return ir.QueryLeaf(p, query)
	}
}

// BlockTypeNames returns the registered block type names, sorted.
func BlockTypeNames() []string {
	out := make([]string, 0, len(blockTypes))
	for n := range blockTypes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Param helpers (JSON params arrive as map[string]any)

func stringParam(b Block, key string) (string, error) {
	v, ok := b.Params[key]
	if !ok {
		return "", fmt.Errorf("%s: required parameter %q missing", b.Type, key)
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("%s: parameter %q must be a string, got %T", b.Type, key, v)
	}
	return s, nil
}

func optStringParam(b Block, key, def string) string {
	if v, ok := b.Params[key].(string); ok {
		return v
	}
	return def
}

func floatParam(b Block, key string) (float64, bool) {
	switch v := b.Params[key].(type) {
	case float64:
		return v, true
	case int:
		return float64(v), true
	}
	return 0, false
}

func boolParam(b Block, key string) bool {
	v, _ := b.Params[key].(bool)
	return v
}

func optBoolParam(b Block, key string, def bool) bool {
	if v, ok := b.Params[key].(bool); ok {
		return v
	}
	return def
}

func floatSliceParam(b Block, key string) ([]float64, error) {
	v, ok := b.Params[key]
	if !ok {
		return nil, fmt.Errorf("%s: required parameter %q missing", b.Type, key)
	}
	switch xs := v.(type) {
	case []float64:
		return xs, nil
	case []any:
		out := make([]float64, len(xs))
		for i, x := range xs {
			f, ok := x.(float64)
			if !ok {
				return nil, fmt.Errorf("%s: %q[%d] must be a number, got %T", b.Type, key, i, x)
			}
			out[i] = f
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%s: parameter %q must be a number array, got %T", b.Type, key, v)
	}
}
