package stem

import (
	"strings"
	"testing"
	"testing/quick"

	"irdb/internal/expr"
	"irdb/internal/vector"
)

func TestRegistry(t *testing.T) {
	for _, name := range []string{"none", "s", "porter", "sb-english"} {
		s, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("Get(%q).Name() = %q", name, s.Name())
		}
	}
	// The error lists the registered names, sorted.
	if _, err := Get("sb-klingon"); err == nil || !strings.Contains(err.Error(), "(have none, porter, s, sb-dutch, sb-english)") {
		t.Errorf("Get of unknown stemmer: err = %v, want the sorted registered names", err)
	}
}

func TestIdentity(t *testing.T) {
	s, _ := Get("none")
	for _, w := range []string{"running", "flies", ""} {
		if got := s.Stem(w); got != w {
			t.Errorf("identity(%q) = %q", w, got)
		}
	}
}

func TestSStemmer(t *testing.T) {
	s, _ := Get("s")
	cases := map[string]string{
		"ponies":  "pony",
		"dishes":  "dishe",
		"cats":    "cat",
		"glass":   "glass",
		"corpus":  "corpus",
		"basis":   "basis",
		"is":      "is",
		"toys":    "toy",
		"queries": "query",
	}
	for in, want := range cases {
		if got := s.Stem(in); got != want {
			t.Errorf("s(%q) = %q, want %q", in, got, want)
		}
	}
}

// Classic Porter vectors from the algorithm definition (Porter, 1980).
func TestPorterKnownVectors(t *testing.T) {
	s, _ := Get("porter")
	cases := map[string]string{
		"caresses":   "caress",
		"ponies":     "poni",
		"ties":       "ti",
		"caress":     "caress",
		"cats":       "cat",
		"feed":       "feed",
		"agreed":     "agre",
		"plastered":  "plaster",
		"bled":       "bled",
		"motoring":   "motor",
		"sing":       "sing",
		"conflated":  "conflat",
		"troubled":   "troubl",
		"sized":      "size",
		"hopping":    "hop",
		"tanned":     "tan",
		"falling":    "fall",
		"hissing":    "hiss",
		"fizzed":     "fizz",
		"failing":    "fail",
		"filing":     "file",
		"happy":      "happi",
		"sky":        "sky",
		"relational": "relat",
		"rational":   "ration",
		"digitizer":  "digit",
		"triplicate": "triplic",
		"formative":  "form",
		"formalize":  "formal",
		"hopeful":    "hope",
		"goodness":   "good",
		"revival":    "reviv",
		"allowance":  "allow",
		"inference":  "infer",
		"airliner":   "airlin",
		"adjustment": "adjust",
		"effective":  "effect",
		"probate":    "probat",
		"rate":       "rate",
		"cease":      "ceas",
		"controll":   "control",
		"roll":       "roll",
	}
	for in, want := range cases {
		if got := s.Stem(in); got != want {
			t.Errorf("porter(%q) = %q, want %q", in, got, want)
		}
	}
}

// Snowball English (Porter2) vectors derivable from the published
// algorithm description.
func TestEnglishKnownVectors(t *testing.T) {
	s, _ := Get("sb-english")
	cases := map[string]string{
		// exceptional forms
		"skis": "ski", "skies": "sky", "dying": "die", "lying": "lie",
		"tying": "tie", "idly": "idl", "gently": "gentl", "ugly": "ugli",
		"early": "earli", "only": "onli", "singly": "singl",
		"sky": "sky", "news": "news", "atlas": "atlas", "cosmos": "cosmos",
		"bias": "bias", "andes": "andes",
		// stop-after-1a forms
		"inning": "inning", "proceed": "proceed", "exceed": "exceed",
		"succeed": "succeed", "herring": "herring",
		// regular morphology
		"caresses":    "caress",
		"ties":        "tie",
		"cries":       "cri",
		"gaps":        "gap",
		"gas":         "gas",
		"kiwis":       "kiwi",
		"agreed":      "agre",
		"feed":        "feed",
		"hopping":     "hop",
		"hoping":      "hope",
		"falling":     "fall",
		"generously":  "generous",
		"relational":  "relat",
		"conditional": "condit",
		"consign":     "consign",
		"consigned":   "consign",
		"consigning":  "consign",
		"consignment": "consign",
		"beautiful":   "beauti",
		"cry":         "cri",
		"by":          "by",
		"say":         "say",
		"searching":   "search",
		"retrieval":   "retriev",
		"databases":   "databas",
	}
	for in, want := range cases {
		if got := s.Stem(in); got != want {
			t.Errorf("sb-english(%q) = %q, want %q", in, got, want)
		}
	}
}

// Stemming the toy-scenario vocabulary of the paper must conflate the
// morphological variants a product search needs.
func TestEnglishConflatesVariants(t *testing.T) {
	s, _ := Get("sb-english")
	groups := [][]string{
		{"toy", "toys"},
		{"book", "books"},
		{"description", "descriptions"},
		{"train", "trains", "training"},
		{"auction", "auctions"},
	}
	for _, g := range groups {
		stem0 := s.Stem(g[0])
		for _, w := range g[1:] {
			if got := s.Stem(w); got != stem0 {
				t.Errorf("stem(%q) = %q, want %q (conflated with %q)", w, got, stem0, g[0])
			}
		}
	}
}

// Properties that must hold for every registered stemmer: stems are never
// longer than input plus one letter (the "add e" rules), stemming is
// deterministic, and words of length <= 2 are untouched by the Snowball
// stemmers.
func TestStemmerProperties(t *testing.T) {
	for _, name := range []string{"s", "porter", "sb-english"} {
		s, _ := Get(name)
		f := func(raw string) bool {
			w := strings.ToLower(raw)
			// Restrict to ASCII letters; others pass through by contract.
			for i := 0; i < len(w); i++ {
				if w[i] < 'a' || w[i] > 'z' {
					return true
				}
			}
			got := s.Stem(w)
			if len(got) > len(w)+1 {
				return false
			}
			return s.Stem(w) == got // deterministic
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestEnglishShortWordsUntouched(t *testing.T) {
	s, _ := Get("sb-english")
	for _, w := range []string{"a", "is", "it", "go"} {
		if got := s.Stem(w); got != w {
			t.Errorf("sb-english(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestEnglishApostrophes(t *testing.T) {
	s, _ := Get("sb-english")
	if got := s.Stem("product's"); got != "product" {
		t.Errorf("stem(product's) = %q, want product", got)
	}
	if got := s.Stem("'cause"); got != s.Stem("cause") {
		t.Errorf("leading apostrophe not stripped: %q", got)
	}
}

// TestStemUDFZeroRows: over zero rows there is no stemmer name to read,
// so stem() returns an empty string column instead of failing, while the
// argument kinds are still checked.
func TestStemUDFZeroRows(t *testing.T) {
	f, ok := expr.LookupFunc("stem")
	if !ok {
		t.Fatal("stem is not registered")
	}
	empty := vector.FromStrings(nil)
	out, err := f.Eval([]vector.Vector{empty, vector.FromStrings(nil)}, 0)
	if err != nil {
		t.Fatalf("zero rows: %v", err)
	}
	if out.Kind() != vector.String || out.Len() != 0 {
		t.Errorf("zero rows: got %v of length %d, want an empty string column", out.Kind(), out.Len())
	}
	if _, err := f.Eval([]vector.Vector{vector.FromInt64s(nil), vector.FromStrings(nil)}, 0); err == nil {
		t.Error("zero rows, int64 terms: want a kind error")
	}
	if _, err := f.Eval([]vector.Vector{empty, vector.FromInt64s(nil)}, 0); err == nil {
		t.Error("zero rows, int64 stemmer name: want a kind error")
	}
	if _, err := f.Eval([]vector.Vector{vector.FromStrings([]string{"runs"}), vector.FromStrings([]string{"sb-klingon"})}, 1); err == nil {
		t.Error("one row, unknown stemmer: want an error")
	}
	got, err := f.Eval([]vector.Vector{vector.FromStrings([]string{"ponies"}), vector.FromStrings([]string{"s"})}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := vector.AsStringColumn(got); s.StringAt(0) != "pony" {
		t.Errorf("one row: stem(ponies, s) = %q, want pony", s.StringAt(0))
	}
}
