package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"irdb/internal/catalog"
	"irdb/internal/memory"
	"irdb/internal/relation"
	"irdb/internal/text"
	"irdb/internal/vector"
)

// tokenizeIDKinds are the id column representations Tokenize handles:
// plain strings (encoded on output), dict-encoded strings and integers
// (both copied as they are).
var tokenizeIDKinds = []string{"strings", "dict", "int64"}

// tokenizeInput is an n-row (docID, data) relation whose id column has
// the given representation. Ids repeat and come out of order, some
// documents have no tokens, and probabilities vary per row.
func tokenizeInput(n int, ids string) *relation.Relation {
	rng := rand.New(rand.NewSource(5))
	words := []string{"Train", "rails", "wooden", "toy", "glass", "venice", "the"}
	raw := make([]int64, n)
	data := make([]string, n)
	prob := make([]float64, n)
	for i := range raw {
		raw[i] = int64(rng.Intn(n/2 + 1))
		var doc []string
		for k := rng.Intn(6); k > 0; k-- {
			doc = append(doc, words[rng.Intn(len(words))])
		}
		data[i] = strings.Join(doc, " ")
		prob[i] = 0.1 + 0.9*rng.Float64()
	}
	var id vector.Vector = vector.FromInt64s(raw)
	if ids != "int64" {
		strs := make([]string, n)
		for i, x := range raw {
			strs[i] = fmt.Sprintf("d%06d", x)
		}
		id = vector.FromStrings(strs)
		if ids == "dict" {
			id = vector.EncodeStrings(id.(*vector.Strings))
		}
	}
	return relation.MustFromColumns([]relation.Column{
		{Name: "docID", Vec: id},
		{Name: "data", Vec: vector.FromStrings(data)},
	}, prob)
}

func tokenizePlan(in *relation.Relation) Node {
	return NewTokenize(NewValues("docs", in), "docID", "data", text.Default(), false)
}

// TestTokenizeIDs pins the id column's encoding: a plain string column
// comes out dict-encoded, a dict-encoded one keeps its dictionary, and an
// integer one stays integer. Whatever the representation, output row j
// carries the id, token, position and probability (bit for bit) of the
// input row that produced it.
func TestTokenizeIDs(t *testing.T) {
	tok := text.Default()
	for _, ids := range tokenizeIDKinds {
		t.Run(ids, func(t *testing.T) {
			in := tokenizeInput(3*tokenizeChunkRows+17, ids)
			out, err := NewCtx(catalog.New(0)).Exec(context.Background(), tokenizePlan(in))
			if err != nil {
				t.Fatal(err)
			}
			inID, outID := in.Col(0).Vec, out.Col(0).Vec
			switch ids {
			case "strings":
				if _, ok := outID.(*vector.DictStrings); !ok {
					t.Fatalf("id column is %T, want *vector.DictStrings", outID)
				}
			case "dict":
				d, ok := outID.(*vector.DictStrings)
				if !ok || d.Dict() != inID.(*vector.DictStrings).Dict() {
					t.Fatalf("id column is %T, want *vector.DictStrings over the input's dict", outID)
				}
			case "int64":
				if _, ok := outID.(*vector.Int64s); !ok {
					t.Fatalf("id column is %T, want *vector.Int64s", outID)
				}
			}
			data, _ := vector.AsStringColumn(in.Col(1).Vec)
			token, _ := vector.AsStringColumn(out.Col(1).Vec)
			pos := out.Col(2).Vec.(*vector.Int64s).Values()
			j := 0
			for row := 0; row < in.NumRows(); row++ {
				for _, tk := range tok.TokensPos(data.StringAt(row)) {
					if j >= out.NumRows() {
						t.Fatalf("output ends at row %d, before input row %d's tokens", j, row)
					}
					if outID.Format(j) != inID.Format(row) {
						t.Fatalf("row %d: id %q, want input row %d's %q", j, outID.Format(j), row, inID.Format(row))
					}
					if s, ok := outID.(vector.StringColumn); ok && s.StringAt(j) != inID.Format(row) {
						t.Fatalf("row %d: StringAt %q, want %q", j, s.StringAt(j), inID.Format(row))
					}
					if token.StringAt(j) != tk.Term || pos[j] != int64(tk.Pos) {
						t.Fatalf("row %d: token %q at %d, want %q at %d", j, token.StringAt(j), pos[j], tk.Term, tk.Pos)
					}
					if math.Float64bits(out.Prob()[j]) != math.Float64bits(in.Prob()[row]) {
						t.Fatalf("row %d: p = %v, want input row %d's %v", j, out.Prob()[j], row, in.Prob()[row])
					}
					j++
				}
			}
			if j != out.NumRows() {
				t.Fatalf("output has %d rows, the input tokenizes to %d", out.NumRows(), j)
			}
		})
	}
}

// wideVocabulary replaces every third row's text in a tokenizeInput
// relation with a word of its own, so the token dict grows far past its
// presized entries.
func wideVocabulary(in *relation.Relation) *relation.Relation {
	data, _ := vector.AsStringColumn(in.Col(1).Vec)
	strs := make([]string, in.NumRows())
	for i := range strs {
		strs[i] = data.StringAt(i)
		if i%3 == 0 {
			strs[i] = fmt.Sprintf("unique%d", i)
		}
	}
	return relation.MustFromColumns([]relation.Column{in.Col(0), {Name: "data", Vec: vector.FromStrings(strs)}}, in.Prob())
}

// TestTokenizeBudget: Tokenize charges the token dict's presized entries
// and, for plain string ids, an id dict entry, its frozen copy and a code
// per input row up front; then each input row's output rows before
// appending them (id code or width, token code, position, probability),
// each token dict entry past the presized ones as it is interned, and the
// token dict's frozen copy before it is made. Its peak is exactly that
// sum, over a small vocabulary and a wide one; a budget at the peak admits
// it with a result bit-identical to the unbudgeted one, and one below the
// output alone, or one byte below the peak, denies it.
func TestTokenizeBudget(t *testing.T) {
	bg := context.Background()
	n := 3*tokenizeChunkRows + 17
	for _, tc := range []string{"strings", "dict", "int64", "strings/wide", "int64/wide"} {
		ids, wide, _ := strings.Cut(tc, "/")
		t.Run(tc, func(t *testing.T) {
			in := tokenizeInput(n, ids)
			if wide != "" {
				in = wideVocabulary(in)
			}
			run := func(budget int64) (*relation.Relation, int64, error) {
				res := memory.NewPool(0).Reserve(budget)
				defer res.Release()
				rel, err := NewCtx(catalog.New(0)).Exec(memory.WithReservation(bg, res), tokenizePlan(in))
				return rel, res.Peak(), err
			}
			want, err := NewCtx(catalog.New(0)).Exec(bg, tokenizePlan(in))
			if err != nil {
				t.Fatal(err)
			}
			tokens := int64(want.Col(1).Vec.(*vector.DictStrings).Dict().Len())
			if wide != "" && tokens < 2*1024 {
				t.Fatalf("%d distinct tokens: the token dict does not grow past its presized entries", tokens)
			}
			idBytes, dicts := int64(4), max(tokens, 1024)*dictEntryBytes+tokens*frozenEntryBytes
			switch ids {
			case "strings":
				dicts += int64(n) * (dictEntryBytes + frozenEntryBytes + 4)
			case "int64":
				idBytes = 8
			}
			output := int64(want.NumRows()) * (idBytes + 4 + 8 + 8)
			_, peak, err := run(1 << 30)
			if err != nil {
				t.Fatal(err)
			}
			if wantPeak := dicts + output; peak != wantPeak {
				t.Fatalf("peak charge %d, want %d (%d for dictionaries, %d for output)", peak, wantPeak, dicts, output)
			}
			got, _, err := run(peak)
			if err != nil {
				t.Fatalf("under its own peak: %v", err)
			}
			mustEqualRelations(t, "budgeted", got, want)
			for _, budget := range []int64{output - 1, peak - 1} {
				if _, _, err := run(budget); !errors.Is(err, ErrBudgetExceeded) {
					t.Fatalf("budget %d: err = %v, want ErrBudgetExceeded", budget, err)
				}
			}
		})
	}
}

// TestTokenizeCancelled: Tokenize reads the context once per chunk of
// input rows, so a three-chunk input consumes two more checks than a
// one-chunk input before it completes, and every cancellation before that
// point returns context.Canceled rather than a partial result.
func TestTokenizeCancelled(t *testing.T) {
	checks := func(n int) int {
		plan := tokenizePlan(tokenizeInput(n, "strings"))
		for after := 0; after < 100; after++ {
			_, err := NewCtx(catalog.New(0)).Exec(&flipCtx{Context: context.Background(), after: after}, plan)
			if err == nil {
				return after
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("n=%d after=%d: err = %v, want context.Canceled", n, after, err)
			}
		}
		t.Fatalf("n=%d: never completed", n)
		return 0
	}
	if one, three := checks(tokenizeChunkRows), checks(3*tokenizeChunkRows); three-one != 2 {
		t.Fatalf("a three-chunk input reads the context %d times more than a one-chunk input, want 2", three-one)
	}
}
