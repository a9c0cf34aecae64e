package text

import (
	"sort"
	"strings"
)

// SynonymDict maps a term to its synonyms. The production strategy of
// section 3 uses "query expansion with synonyms and compound terms";
// BenchmarkE7ProductionStrategyHot exercises this code path.
type SynonymDict map[string][]string

// Expand returns the query terms plus their synonyms, deduplicated,
// preserving first-appearance order (original terms first).
func (d SynonymDict) Expand(terms []string) []string {
	seen := make(map[string]bool, len(terms)*2)
	var out []string
	add := func(t string) {
		if t != "" && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for _, t := range terms {
		add(t)
	}
	for _, t := range terms {
		for _, s := range d[t] {
			add(s)
		}
	}
	return out
}

// Terms returns the dictionary's keys in sorted order.
func (d SynonymDict) Terms() []string {
	out := make([]string, 0, len(d))
	for t := range d {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Compounds returns every adjacent pair of query terms joined by a
// separator — the "compound terms" half of the paper's query expansion.
// For the query [wooden train set] it yields [wooden_train train_set].
func Compounds(terms []string) []string {
	if len(terms) < 2 {
		return nil
	}
	out := make([]string, 0, len(terms)-1)
	for i := 0; i+1 < len(terms); i++ {
		out = append(out, terms[i]+"_"+terms[i+1])
	}
	return out
}

// CompoundVariants adds, for every compound occurrence in the raw text,
// the joined form as an extra token, letting compound query terms match.
// It is applied to documents when a strategy enables compound indexing.
func CompoundVariants(tokens []Token) []Token {
	if len(tokens) < 2 {
		return tokens
	}
	out := make([]Token, 0, 2*len(tokens)-1)
	for i, t := range tokens {
		out = append(out, t)
		if i+1 < len(tokens) {
			out = append(out, Token{Term: t.Term + "_" + tokens[i+1].Term, Pos: t.Pos})
		}
	}
	return out
}

// NormalizeQuery lower-cases and collapses whitespace in a raw query
// string, the minimal cleaning applied before tokenization.
func NormalizeQuery(q string) string {
	return strings.Join(strings.Fields(strings.ToLower(q)), " ")
}
