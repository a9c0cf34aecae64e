// Package text provides tokenization, case folding, stop-word filtering
// and query expansion support. It plays the role of the two user-defined
// functions the paper added to MonetDB ("a text tokenizer and Snowball
// stemmers", section 2.1); stemming itself lives in package stem.
//
// Tokenization happens at query time, never at load time: the paper
// stresses that data "undergoes almost no pre-processing, so that the
// original text can be ranked at any time by e.g. custom distance
// functions, tokenization strategies, stemming choices".
package text

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
)

// Token is one token occurrence within a document.
type Token struct {
	Term string
	// Pos is the 0-based token position within the document, as stored in
	// the posting lists of Figure 1.
	Pos int
}

// Tokenizer splits raw text into index terms. The zero value splits on
// non-alphanumeric runes and keeps everything else verbatim.
type Tokenizer struct {
	// Lower folds tokens to lower case (the paper's lcase).
	Lower bool
	// DropStopwords removes tokens found in Stopwords.
	DropStopwords bool
	// Stopwords is consulted when DropStopwords is set; nil means the
	// builtin English list.
	Stopwords map[string]bool
	// MinLen drops tokens shorter than this many runes (0 keeps all).
	MinLen int
}

// Default returns the tokenizer configuration used throughout the paper's
// examples: lower-cased tokens, no stop-word removal (BM25 handles common
// terms through IDF).
func Default() Tokenizer { return Tokenizer{Lower: true} }

// Spec returns a canonical description of the configuration, used in plan
// digests so differently-configured tokenizations never share a cache
// entry. A custom stop-word list is part of it, as a sorted set.
func (t Tokenizer) Spec() string {
	spec := fmt.Sprintf("tok{lower=%v,nostop=%v,minlen=%d", t.Lower, t.DropStopwords, t.MinLen)
	if t.DropStopwords && t.Stopwords != nil {
		words := make([]string, 0, len(t.Stopwords))
		for w, stop := range t.Stopwords {
			if stop {
				words = append(words, w)
			}
		}
		sort.Strings(words)
		spec += fmt.Sprintf(",stop=%q", words)
	}
	return spec + "}"
}

// Tokens returns the terms of s in order, applying the configured folding
// and filtering.
func (t Tokenizer) Tokens(s string) []string {
	toks := t.TokensPos(s)
	out := make([]string, len(toks))
	for i, tok := range toks {
		out[i] = tok.Term
	}
	return out
}

// TokensPos returns the terms of s with their positions. Positions count
// accepted tokens only, after filtering, matching the posting-list
// positions of Figure 1.
func (t Tokenizer) TokensPos(s string) []Token {
	var out []Token
	var cur strings.Builder
	pos := 0
	flush := func() {
		if cur.Len() == 0 {
			return
		}
		term := cur.String()
		cur.Reset()
		if t.Lower {
			term = strings.ToLower(term)
		}
		if t.MinLen > 0 && len([]rune(term)) < t.MinLen {
			return
		}
		if t.DropStopwords {
			sw := t.Stopwords
			if sw == nil {
				sw = EnglishStopwords
			}
			if sw[term] {
				return
			}
		}
		out = append(out, Token{Term: term, Pos: pos})
		pos++
	}
	// Underscore is a token character so that compound terms
	// ("wooden_train", see text.Compounds) survive query tokenization.
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' {
			cur.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return out
}
