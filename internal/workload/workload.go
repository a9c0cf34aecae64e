// Package workload generates the synthetic datasets that stand in for the
// paper's proprietary collections (the 2.3 GB / 1.1M-document raw-text
// collection of section 2.1 and the customer auction database of section
// 3: 8M lots in 25k auctions).
//
// All generators are deterministic given a seed. Text follows a Zipfian
// term distribution — the property that actually drives retrieval cost
// (posting-list skew) and BM25 behaviour (IDF spread) — with document
// lengths varying around the configured mean, so length normalization has
// something to normalize.
package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// Vocabulary is a deterministic synthetic vocabulary with a Zipfian
// sampler over it.
type Vocabulary struct {
	words []string
	zipf  *rand.Zipf
	rng   *rand.Rand
}

// syllables used to assemble pronounceable synthetic words; real-looking
// morphology (plural/gerund suffixes) exercises the stemmers.
var syllables = []string{
	"ba", "be", "bi", "bo", "bu", "da", "de", "di", "do", "du",
	"ka", "ke", "ki", "ko", "ku", "la", "le", "li", "lo", "lu",
	"ma", "me", "mi", "mo", "mu", "na", "ne", "ni", "no", "nu",
	"ra", "re", "ri", "ro", "ru", "sa", "se", "si", "so", "su",
	"ta", "te", "ti", "to", "tu", "va", "ve", "vi", "vo", "vu",
}

var wordSuffixes = []string{"", "", "", "", "s", "ing", "ed", "er"}

// NewVocabulary builds a vocabulary of the given size with a Zipf sampler
// (exponent s ≈ 1.1, a typical text skew).
func NewVocabulary(size int, seed int64) *Vocabulary {
	if size < 1 {
		size = 1
	}
	rng := rand.New(rand.NewSource(seed))
	words := make([]string, size)
	seen := make(map[string]bool, size)
	for i := range words {
		for {
			n := 2 + rng.Intn(3) // 2-4 syllables
			var sb strings.Builder
			for k := 0; k < n; k++ {
				sb.WriteString(syllables[rng.Intn(len(syllables))])
			}
			sb.WriteString(wordSuffixes[rng.Intn(len(wordSuffixes))])
			w := sb.String()
			if !seen[w] {
				seen[w] = true
				words[i] = w
				break
			}
		}
	}
	return &Vocabulary{
		words: words,
		zipf:  rand.NewZipf(rng, 1.1, 1.0, uint64(size-1)),
		rng:   rng,
	}
}

// Size reports the vocabulary size.
func (v *Vocabulary) Size() int { return len(v.words) }

// Word returns the i-th most frequent word.
func (v *Vocabulary) Word(i int) string { return v.words[i] }

// Sample draws one word Zipf-distributed (low indexes are frequent).
func (v *Vocabulary) Sample() string { return v.words[v.zipf.Uint64()] }

// SampleRank draws a word's rank.
func (v *Vocabulary) SampleRank() int { return int(v.zipf.Uint64()) }

// Text produces a document of approximately meanLen tokens (±50%).
func (v *Vocabulary) Text(meanLen int) string {
	if meanLen < 1 {
		meanLen = 1
	}
	n := meanLen/2 + v.rng.Intn(meanLen) // [meanLen/2, 1.5·meanLen)
	if n < 1 {
		n = 1
	}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(v.Sample())
	}
	return sb.String()
}

// Doc is one generated document.
type Doc struct {
	ID   int64
	Data string
}

// GenDocs produces n documents of approximately meanLen tokens over a
// vocabulary of vocabSize terms — the stand-in for the paper's 1.1M-doc
// raw-text collection.
func GenDocs(n, meanLen, vocabSize int, seed int64) []Doc {
	v := NewVocabulary(vocabSize, seed)
	docs := make([]Doc, n)
	for i := range docs {
		docs[i] = Doc{ID: int64(i + 1), Data: v.Text(meanLen)}
	}
	return docs
}

// Queries samples n keyword queries of termsPer terms each. Terms are
// drawn from the document distribution but biased away from the very head
// (the paper's 3-term queries are content words, not stop words): ranks
// below minRank are rejected.
func Queries(n, termsPer, vocabSize int, seed int64) []string {
	v := NewVocabulary(vocabSize, seed)
	const minRank = 5
	out := make([]string, n)
	for i := range out {
		terms := make([]string, 0, termsPer)
		for len(terms) < termsPer {
			r := v.SampleRank()
			if r < minRank {
				continue
			}
			terms = append(terms, v.Word(r))
		}
		out[i] = strings.Join(terms, " ")
	}
	return out
}

// Synonyms builds a synonym dictionary over the most frequent maxTerms
// vocabulary words, mapping each to nPerTerm random less-frequent words —
// the dictionary driving query expansion in the production strategy.
func Synonyms(vocabSize, maxTerms, nPerTerm int, seed int64) map[string][]string {
	v := NewVocabulary(vocabSize, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	out := make(map[string][]string, maxTerms)
	for i := 0; i < maxTerms && i < v.Size(); i++ {
		syns := make([]string, 0, nPerTerm)
		for len(syns) < nPerTerm {
			j := rng.Intn(v.Size())
			if j != i {
				syns = append(syns, v.Word(j))
			}
		}
		out[v.Word(i)] = syns
	}
	return out
}

// sprintfID builds deterministic entity names ("lot000042").
func sprintfID(prefix string, i int) string { return fmt.Sprintf("%s%06d", prefix, i) }
