package relation

import (
	"hash/maphash"
	"strings"
	"testing"
	"testing/quick"

	"irdb/internal/vector"
)

func triples() *Relation {
	return NewBuilder(
		[]string{"subject", "property", "object"},
		[]vector.Kind{vector.String, vector.String, vector.String},
	).
		Add("p1", "category", "toy").
		Add("p1", "description", "wooden train set").
		Add("p2", "category", "book").
		AddP(0.8, "p2", "description", "a history of toys").
		Build()
}

func TestBuilderAndAccessors(t *testing.T) {
	r := triples()
	if r.NumRows() != 4 || r.NumCols() != 3 {
		t.Fatalf("shape = %dx%d, want 4x3", r.NumRows(), r.NumCols())
	}
	if got := r.ColumnNames(); strings.Join(got, ",") != "subject,property,object" {
		t.Errorf("ColumnNames = %v", got)
	}
	if r.ColIndex("object") != 2 || r.ColIndex("nope") != -1 {
		t.Error("ColIndex wrong")
	}
	if _, err := r.ColByName("nope"); err == nil {
		t.Error("ColByName(nope) should fail")
	}
	p := r.Prob()
	if p[0] != 1.0 || p[3] != 0.8 {
		t.Errorf("Prob = %v", p)
	}
	if r.Col(0).Vec.Kind() != vector.String {
		t.Error("Kind wrong")
	}
}

func TestFromColumnsValidation(t *testing.T) {
	c1 := Column{Name: "a", Vec: vector.FromInt64s([]int64{1, 2})}
	c2 := Column{Name: "b", Vec: vector.FromInt64s([]int64{1})}
	if _, err := FromColumns([]Column{c1, c2}, nil); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := FromColumns(nil, nil); err == nil {
		t.Error("zero columns accepted")
	}
	dup := Column{Name: "a", Vec: vector.FromInt64s([]int64{3, 4})}
	if _, err := FromColumns([]Column{c1, dup}, nil); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := FromColumns([]Column{c1}, []float64{0.5}); err == nil {
		t.Error("short prob column accepted")
	}
}

func TestGatherRows(t *testing.T) {
	r := triples()
	g := r.Gather([]int{3, 0})
	if g.NumRows() != 2 {
		t.Fatalf("NumRows = %d", g.NumRows())
	}
	if got := g.Col(0).Vec.Format(0); got != "p2" {
		t.Errorf("row 0 subject = %q", got)
	}
	if g.Prob()[0] != 0.8 || g.Prob()[1] != 1.0 {
		t.Errorf("Prob = %v", g.Prob())
	}
}

func TestSortedByColumnAndProb(t *testing.T) {
	r := triples()
	s := r.Gather(r.SortedSel([]SortKey{{Col: ProbCol, Desc: true}, {Col: 0}}))
	p := s.Prob()
	for i := 1; i < len(p); i++ {
		if p[i] > p[i-1] {
			t.Fatalf("prob not descending: %v", p)
		}
	}
	s2 := r.Gather(r.SortedSel([]SortKey{{Col: 1}, {Col: 0}}))
	props := s2.Col(1).Vec.(*vector.Strings).Values()
	for i := 1; i < len(props); i++ {
		if props[i] < props[i-1] {
			t.Fatalf("property not ascending: %v", props)
		}
	}
}

func TestSortedIsStable(t *testing.T) {
	r := NewBuilder([]string{"k", "v"}, []vector.Kind{vector.Int64, vector.Int64}).
		Add(1, 10).Add(1, 20).Add(0, 30).Add(1, 40).Build()
	s := r.Gather(r.SortedSel([]SortKey{{Col: 0}}))
	vs := s.Col(1).Vec.(*vector.Int64s).Values()
	want := []int64{30, 10, 20, 40}
	for i := range want {
		if vs[i] != want[i] {
			t.Fatalf("stable sort violated: %v", vs)
		}
	}
}

// The engine hashes and compares a relation's rows through its column
// vectors (HashRangeInto, EqualAt); rows equal on a key column must hash
// alike, also when hashed in separate row ranges or through a Slice view.
func TestHashRowsMatchesRowsEqual(t *testing.T) {
	r := triples()
	seed := maphash.MakeSeed()
	subj := r.Col(0).Vec
	h := make([]uint64, r.NumRows())
	subj.HashRangeInto(seed, h, 0, 1)
	subj.HashRangeInto(seed, h, 1, r.NumRows())
	// p1 appears at rows 0 and 1; p2 at rows 2 and 3.
	if h[0] != h[1] || h[2] != h[3] {
		t.Error("equal keys hashed differently")
	}
	if !subj.EqualAt(0, subj, 1) {
		t.Error("EqualAt(0,1) on subject = false")
	}
	if subj.EqualAt(0, subj, 2) {
		t.Error("EqualAt(0,2) on subject = true")
	}
	tail := r.Slice(2, 4).Col(0).Vec
	th := make([]uint64, 2)
	tail.HashRangeInto(seed, th, 0, 2)
	if th[0] != h[2] || th[1] != h[3] {
		t.Error("Slice view hashed its rows differently from the full relation")
	}
	if !tail.EqualAt(0, subj, 3) {
		t.Error("EqualAt across a Slice view = false on equal keys")
	}
}

func TestSetProbPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetProb with wrong length did not panic")
		}
	}()
	triples().SetProb([]float64{1})
}

func TestFormatContainsHeaderAndCap(t *testing.T) {
	r := triples()
	out := r.Format(2)
	if !strings.Contains(out, "subject") || !strings.Contains(out, "p") {
		t.Errorf("missing header: %s", out)
	}
	if !strings.Contains(out, "(4 rows total)") {
		t.Errorf("missing truncation note: %s", out)
	}
	if len(r.String()) == 0 {
		t.Error("String() empty")
	}
}

// Property: SortedSel is a permutation — same multiset of values.
func TestSortedIsPermutationProperty(t *testing.T) {
	f := func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		r := MustFromColumns([]Column{{Name: "x", Vec: vector.FromInt64s(vals)}}, nil)
		s := r.Gather(r.SortedSel([]SortKey{{Col: 0}}))
		count := map[int64]int{}
		for _, v := range vals {
			count[v]++
		}
		got := s.Col(0).Vec.(*vector.Int64s).Values()
		for _, v := range got {
			count[v]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
