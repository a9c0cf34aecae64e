package text

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestTokenizerBasic(t *testing.T) {
	tok := Default()
	got := tok.Tokens("A Book about History!")
	want := []string{"a", "book", "about", "history"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens = %v, want %v", got, want)
	}
}

func TestTokenizerPositions(t *testing.T) {
	tok := Default()
	got := tok.TokensPos("book  about,history")
	want := []Token{{"book", 0}, {"about", 1}, {"history", 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TokensPos = %v, want %v", got, want)
	}
}

func TestTokenizerNoLower(t *testing.T) {
	tok := Tokenizer{}
	got := tok.Tokens("Wooden Train")
	want := []string{"Wooden", "Train"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens = %v, want %v", got, want)
	}
}

func TestTokenizerStopwords(t *testing.T) {
	tok := Tokenizer{Lower: true, DropStopwords: true}
	got := tok.Tokens("a history of the toys")
	want := []string{"history", "toys"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens = %v, want %v", got, want)
	}
	// positions must count accepted tokens only
	pos := tok.TokensPos("a history of the toys")
	if pos[0].Pos != 0 || pos[1].Pos != 1 {
		t.Errorf("positions after filtering = %v", pos)
	}
}

func TestTokenizerCustomStopwords(t *testing.T) {
	tok := Tokenizer{Lower: true, DropStopwords: true, Stopwords: map[string]bool{"toy": true}}
	got := tok.Tokens("the toy train")
	want := []string{"the", "train"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens = %v, want %v", got, want)
	}
}

func TestTokenizerMinLen(t *testing.T) {
	tok := Tokenizer{Lower: true, MinLen: 3}
	got := tok.Tokens("go to the market")
	want := []string{"the", "market"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens = %v, want %v", got, want)
	}
}

func TestTokenizerUnicode(t *testing.T) {
	tok := Default()
	got := tok.Tokens("café menü 1930s")
	want := []string{"café", "menü", "1930s"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens = %v, want %v", got, want)
	}
}

func TestTokenizerEmptyAndPunctOnly(t *testing.T) {
	tok := Default()
	if got := tok.Tokens(""); len(got) != 0 {
		t.Errorf("Tokens(\"\") = %v", got)
	}
	if got := tok.Tokens("... --- !!!"); len(got) != 0 {
		t.Errorf("Tokens(punct) = %v", got)
	}
}

func TestSpecDistinguishesConfigs(t *testing.T) {
	a := Tokenizer{Lower: true}.Spec()
	b := Tokenizer{Lower: true, DropStopwords: true}.Spec()
	c := Tokenizer{Lower: true, MinLen: 2}.Spec()
	d := Tokenizer{Lower: true, DropStopwords: true, Stopwords: map[string]bool{"toy": true}}.Spec()
	e := Tokenizer{Lower: true, DropStopwords: true, Stopwords: map[string]bool{"car": true}}.Spec()
	if a == b || a == c || b == c || b == d || d == e {
		t.Errorf("Specs collide: %q %q %q %q %q", a, b, c, d, e)
	}
}

// Property: token count equals position of last token + 1; positions are
// strictly increasing from 0.
func TestTokenPositionsProperty(t *testing.T) {
	tok := Default()
	f := func(s string) bool {
		toks := tok.TokensPos(s)
		for i, tk := range toks {
			if tk.Pos != i || tk.Term == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSynonymExpand(t *testing.T) {
	d := SynonymDict{"car": {"auto", "automobile"}, "toy": {"plaything"}}
	got := d.Expand([]string{"toy", "car"})
	want := []string{"toy", "car", "plaything", "auto", "automobile"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Expand = %v, want %v", got, want)
	}
	// dedup: synonym equals an original term
	d2 := SynonymDict{"car": {"car", "auto"}}
	got2 := d2.Expand([]string{"car"})
	if !reflect.DeepEqual(got2, []string{"car", "auto"}) {
		t.Errorf("Expand dedup = %v", got2)
	}
}

func TestCompounds(t *testing.T) {
	got := Compounds([]string{"wooden", "train", "set"})
	want := []string{"wooden_train", "train_set"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Compounds = %v, want %v", got, want)
	}
	if Compounds([]string{"solo"}) != nil {
		t.Error("Compounds of single term should be nil")
	}
}

func TestCompoundVariants(t *testing.T) {
	in := []Token{{"wooden", 0}, {"train", 1}}
	got := CompoundVariants(in)
	want := []Token{{"wooden", 0}, {"wooden_train", 0}, {"train", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CompoundVariants = %v, want %v", got, want)
	}
}
