// Package stem implements the Snowball stemmers the paper adds to MonetDB
// as user-defined functions (section 2.1): "The only additions needed to
// MonetDB to support on-demand indexing were two user-defined functions to
// implement a text tokenizer and Snowball stemmers for several languages."
//
// Provided stemmers:
//
//	"sb-english" — the Snowball English stemmer (Porter2), the name used
//	              in the paper's SQL: stem(lcase(token),'sb-english')
//	"porter"    — the classic Porter (1980) stemmer
//	"s"         — a minimal plural stripper (the "s-stemmer")
//	"none"      — identity
//
// All stemmers are pure functions on lower-case words; they are registered
// as the vectorized scalar function stem(term, 'name') usable in any
// engine expression.
package stem

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"irdb/internal/expr"
	"irdb/internal/vector"
)

// Stemmer reduces a word to its stem. Input must already be lower-cased.
type Stemmer interface {
	// Stem returns the stem of word.
	Stem(word string) string
	// Name returns the registry name.
	Name() string
}

var (
	mu       sync.RWMutex
	registry = map[string]Stemmer{}
)

// Register installs a stemmer under its name, replacing any previous one.
func Register(s Stemmer) {
	mu.Lock()
	defer mu.Unlock()
	registry[s.Name()] = s
}

// Get returns the named stemmer.
func Get(name string) (Stemmer, error) {
	mu.RLock()
	defer mu.RUnlock()
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("stem: unknown stemmer %q (have %s)", name, strings.Join(namesLocked(), ", "))
	}
	return s, nil
}

// Names returns the registered stemmer names, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// identity stems nothing.
type identity struct{}

func (identity) Stem(w string) string { return w }
func (identity) Name() string         { return "none" }

// sStemmer strips trivial plural suffixes: -ies→y (length>4), -es→e
// (length>3), -s (length>3, not -ss, -us, -is). A classic weak stemmer,
// useful as a cheap baseline in strategy ablations.
type sStemmer struct{}

func (sStemmer) Name() string { return "s" }

func (sStemmer) Stem(w string) string {
	switch {
	case len(w) > 4 && strings.HasSuffix(w, "ies"):
		return w[:len(w)-3] + "y"
	case len(w) > 3 && strings.HasSuffix(w, "es"):
		return w[:len(w)-1]
	case len(w) > 3 && strings.HasSuffix(w, "s") &&
		!strings.HasSuffix(w, "ss") && !strings.HasSuffix(w, "us") && !strings.HasSuffix(w, "is"):
		return w[:len(w)-1]
	default:
		return w
	}
}

func init() {
	Register(identity{})
	Register(sStemmer{})
	Register(NewPorter())
	Register(NewEnglish())

	// stem(term, 'name'): the vectorized UDF of section 2.1. The stemmer
	// name argument must be a constant (the same constraint MonetDB's UDF
	// has in the paper's SQL examples).
	expr.RegisterFunc(expr.Func{Name: "stem", Eval: func(args []vector.Vector, n int) (vector.Vector, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("stem: want 2 arguments (term, stemmer name), got %d", len(args))
		}
		names, ok := vector.AsStringColumn(args[1])
		if !ok {
			return nil, fmt.Errorf("stem: second argument must be a string stemmer name")
		}
		// Zero rows carry no name to resolve and no term to stem; the
		// empty term column still passes through the kind check below.
		stemFn := identity{}.Stem
		if names.Len() > 0 {
			s, err := Get(names.StringAt(0))
			if err != nil {
				return nil, err
			}
			stemFn = s.Stem
		}
		// MapStrings stems a dict-encoded term column once per distinct
		// token (stems that collide are re-interned so the output dict
		// stays injective) — O(vocabulary) stemmer calls instead of
		// O(tokens), and the output stays dict-encoded for the joins and
		// group-bys downstream.
		out, ok := vector.MapStrings(args[0], stemFn)
		if !ok {
			return nil, fmt.Errorf("stem: first argument is %v, want string", args[0].Kind())
		}
		return out, nil
	}})
}
