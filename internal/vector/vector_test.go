package vector

import (
	"hash/maphash"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Int64: "BIGINT", Float64: "DOUBLE", String: "STRING", Bool: "BOOLEAN"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestNewOfKind(t *testing.T) {
	for _, k := range []Kind{Int64, Float64, String, Bool} {
		v := NewOfKind(k, 8)
		if v.Kind() != k {
			t.Errorf("NewOfKind(%v).Kind() = %v", k, v.Kind())
		}
		if v.Len() != 0 {
			t.Errorf("NewOfKind(%v).Len() = %d, want 0", k, v.Len())
		}
	}
}

func TestInt64sBasics(t *testing.T) {
	v := NewInt64s(0)
	v.Append(3)
	v.Append(-7)
	v.Append(3)
	if v.Len() != 3 {
		t.Fatalf("Len = %d, want 3", v.Len())
	}
	if v.Values()[1] != -7 {
		t.Errorf("At(1) = %d", v.Values()[1])
	}
	g := v.Gather([]int{2, 0, 0}).(*Int64s)
	if g.Values()[0] != 3 || g.Values()[1] != 3 || g.Values()[2] != 3 {
		t.Errorf("Gather produced %v", g.Values())
	}
	if !v.EqualAt(0, v, 2) {
		t.Error("EqualAt(0,2) = false, want true")
	}
	if v.EqualAt(0, v, 1) {
		t.Error("EqualAt(0,1) = true, want false")
	}
	if !v.LessAt(1, v, 0) {
		t.Error("LessAt(-7,3) = false, want true")
	}
	if v.Format(1) != "-7" {
		t.Errorf("Format(1) = %q", v.Format(1))
	}
}

func TestFloat64sBasics(t *testing.T) {
	v := FromFloat64s([]float64{0.5, 1.5})
	if v.Kind() != Float64 {
		t.Fatal("wrong kind")
	}
	v.AppendFrom(v, 0)
	if v.Len() != 3 || v.Values()[2] != 0.5 {
		t.Errorf("AppendFrom: %v", v.Values())
	}
	if !v.LessAt(0, v, 1) || v.LessAt(1, v, 0) {
		t.Error("LessAt ordering wrong")
	}
}

func TestStringsBasics(t *testing.T) {
	v := FromStrings([]string{"book", "cake", "book"})
	if !v.EqualAt(0, v, 2) || v.EqualAt(0, v, 1) {
		t.Error("EqualAt wrong")
	}
	if !v.LessAt(0, v, 1) {
		t.Error(`"book" should order before "cake"`)
	}
	if v.Format(1) != "cake" {
		t.Errorf("Format = %q", v.Format(1))
	}
	g := v.Gather([]int{1}).(*Strings)
	if g.Len() != 1 || g.Values()[0] != "cake" {
		t.Errorf("Gather: %v", g.Values())
	}
}

func TestBoolsBasics(t *testing.T) {
	v := FromBools([]bool{false, true})
	if !v.LessAt(0, v, 1) || v.LessAt(1, v, 0) || v.LessAt(0, v, 0) {
		t.Error("Bools ordering wrong (false < true)")
	}
	if v.Format(0) != "false" || v.Format(1) != "true" {
		t.Error("Bools format wrong")
	}
}

// Hash equality must follow value equality: equal values in equal positions
// accumulate equal hashes, and (with overwhelming probability) unequal rows
// differ. We check the deterministic half exhaustively and the
// probabilistic half on a fixed example.
func TestHashIntoConsistency(t *testing.T) {
	seed := maphash.MakeSeed()
	a := FromStrings([]string{"x", "y", "x"})
	sums := make([]uint64, 3)
	a.HashRangeInto(seed, sums, 0, len(sums))
	if sums[0] != sums[2] {
		t.Error("equal strings hashed differently")
	}
	if sums[0] == sums[1] {
		t.Error("x and y hashed equal (possible but wildly unlikely)")
	}

	ints := FromInt64s([]int64{42, 42, 7})
	isums := make([]uint64, 3)
	ints.HashRangeInto(seed, isums, 0, len(isums))
	if isums[0] != isums[1] {
		t.Error("equal ints hashed differently")
	}

	// Hashed in two ranges, as the engine's morsels do, equal plain strings
	// still get equal sums, and EqualAt agrees with the hashes.
	s := FromStrings([]string{"p1", "p1", "p2", "p2"})
	ssums := make([]uint64, 4)
	s.HashRangeInto(seed, ssums, 0, 1)
	s.HashRangeInto(seed, ssums, 1, 4)
	if ssums[0] != ssums[1] || ssums[2] != ssums[3] {
		t.Error("equal strings hashed differently across ranges")
	}
	if !s.EqualAt(0, s, 1) {
		t.Error("EqualAt(0,1) = false on equal strings")
	}
	if s.EqualAt(0, s, 2) {
		t.Error("EqualAt(0,2) = true on distinct strings")
	}

	// Every representation, hashed in split ranges over nonzero prior sums
	// (a second key column), matches one whole-column pass, and its hashes
	// agree with EqualAt. The fixed-width word hash is a bijection, so
	// unequal values never collide.
	for _, v := range []Vector{
		FromInt64s([]int64{42, -1, 42, 0, 7, -1}),
		FromFloat64s([]float64{1.5, -2, 1.5, 0, 3e300, -2}),
		FromBools([]bool{true, false, true, true, false, false}),
		EncodeStrings(FromStrings([]string{"p", "q", "p", "r", "s", "q"})),
		FromStrings([]string{"p", "q", "p", "r", "s", "q"}),
	} {
		n := v.Len()
		whole := make([]uint64, n)
		split := make([]uint64, n)
		for i := range whole {
			whole[i] = uint64(i % 2)
			split[i] = uint64(i % 2)
		}
		v.HashRangeInto(seed, whole, 0, len(whole))
		v.HashRangeInto(seed, split, 0, 1)
		v.HashRangeInto(seed, split, 1, 4)
		v.HashRangeInto(seed, split, 4, n)
		for i := range whole {
			if split[i] != whole[i] {
				t.Errorf("%T row %d: split-range hash %x, whole-column %x", v, i, split[i], whole[i])
			}
		}
		flat := make([]uint64, n)
		v.HashRangeInto(seed, flat, 0, len(flat))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if eq := v.EqualAt(i, v, j); eq != (flat[i] == flat[j]) {
					t.Errorf("%T rows %d,%d: EqualAt %v but hashes %x, %x", v, i, j, eq, flat[i], flat[j])
				}
			}
		}
	}

	// A Const hashes like its materialized column, in any split.
	for _, c := range []*Const{ConstInt64(-9, 5), ConstFloat64(2.25, 5), ConstBool(true, 5), ConstString("k", 5)} {
		want := make([]uint64, 5)
		c.Materialize().HashRangeInto(seed, want, 0, len(want))
		got := make([]uint64, 5)
		c.HashRangeInto(seed, got, 0, 2)
		c.HashRangeInto(seed, got, 2, 5)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("Const %v row %d: hash %x, materialized %x", c.Kind(), i, got[i], want[i])
			}
		}
	}
}

// HashRangeInto must compose across columns: rows equal on all columns get equal
// combined hashes.
func TestHashIntoComposition(t *testing.T) {
	seed := maphash.MakeSeed()
	c1 := FromInt64s([]int64{1, 1, 2})
	c2 := FromStrings([]string{"a", "a", "a"})
	sums := make([]uint64, 3)
	c1.HashRangeInto(seed, sums, 0, len(sums))
	c2.HashRangeInto(seed, sums, 0, len(sums))
	if sums[0] != sums[1] {
		t.Error("rows (1,a) and (1,a) hashed differently")
	}
	if sums[0] == sums[2] {
		t.Error("rows (1,a) and (2,a) hashed equal")
	}
}

func TestGatherPreservesValuesProperty(t *testing.T) {
	f := func(vals []int64, idx []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		v := FromInt64s(vals)
		sel := make([]int, len(idx))
		for i, x := range idx {
			sel[i] = int(x) % len(vals)
		}
		g := v.Gather(sel).(*Int64s)
		for i, s := range sel {
			if g.Values()[i] != vals[s] {
				return false
			}
		}
		return g.Len() == len(sel)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Exercise the generic Vector interface uniformly across all kinds:
// New, AppendFrom, Gather, EqualAt, LessAt, Format, HashRangeInto.
func TestVectorInterfaceAllKinds(t *testing.T) {
	seed := maphash.MakeSeed()
	sources := []Vector{
		FromInt64s([]int64{3, 1, 3}),
		FromFloat64s([]float64{3.5, 1.5, 3.5}),
		FromStrings([]string{"c", "a", "c"}),
		FromBools([]bool{true, false, true}),
	}
	for _, src := range sources {
		fresh := src.New(4)
		if fresh.Kind() != src.Kind() || fresh.Len() != 0 {
			t.Errorf("%v: New() wrong", src.Kind())
		}
		for i := 0; i < src.Len(); i++ {
			fresh.AppendFrom(src, i)
		}
		if fresh.Len() != src.Len() {
			t.Fatalf("%v: AppendFrom lost rows", src.Kind())
		}
		if !fresh.EqualAt(0, src, 0) || !fresh.EqualAt(0, fresh, 2) {
			t.Errorf("%v: EqualAt wrong after AppendFrom", src.Kind())
		}
		if fresh.EqualAt(0, fresh, 1) {
			t.Errorf("%v: unequal rows compare equal", src.Kind())
		}
		if !fresh.LessAt(1, fresh, 0) {
			t.Errorf("%v: LessAt ordering wrong", src.Kind())
		}
		g := fresh.Gather([]int{2, 1})
		if g.Len() != 2 || !g.EqualAt(0, fresh, 2) {
			t.Errorf("%v: Gather wrong", src.Kind())
		}
		if fresh.Format(0) == "" {
			t.Errorf("%v: empty Format", src.Kind())
		}
		sums := make([]uint64, fresh.Len())
		fresh.HashRangeInto(seed, sums, 0, len(sums))
		if sums[0] != sums[2] {
			t.Errorf("%v: equal values hash differently", src.Kind())
		}
		if sums[0] == sums[1] {
			t.Errorf("%v: distinct values collide (astronomically unlikely)", src.Kind())
		}
	}
}

func TestNewOfKindPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewOfKind(99) did not panic")
		}
	}()
	NewOfKind(Kind(99), 0)
}

func TestFloat64sFormatAndAppend(t *testing.T) {
	v := NewFloat64s(0)
	v.Append(2.25)
	if v.Format(0) != "2.25" {
		t.Errorf("Format = %q", v.Format(0))
	}
	if v.Values()[0] != 2.25 || v.Values()[0] != 2.25 {
		t.Error("accessors wrong")
	}
}

func TestBoolsAppendValues(t *testing.T) {
	v := NewBools(0)
	v.Append(true)
	v.Append(false)
	if !v.Values()[0] || v.Values()[1] || len(v.Values()) != 2 {
		t.Error("Bools accessors wrong")
	}
}

func TestStringsAppendFromAndValues(t *testing.T) {
	v := NewStrings(1)
	v.Append("x")
	w := NewStrings(0)
	w.AppendFrom(v, 0)
	if w.Values()[0] != "x" || len(w.Values()) != 1 {
		t.Error("Strings AppendFrom wrong")
	}
}

func TestDictBasics(t *testing.T) {
	d := NewDict(0)
	a := d.Put("alpha")
	b := d.Put("beta")
	a2 := d.Put("alpha")
	if a != a2 {
		t.Errorf("re-Put returned %d, want %d", a2, a)
	}
	if a == b {
		t.Error("distinct strings share an ID")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if got := d.Freeze().Get(int32(b)); got != "beta" {
		t.Errorf("Get(b) = %q", got)
	}
	if id, ok := d.Lookup("alpha"); !ok || id != a {
		t.Errorf("Lookup(alpha) = %d,%v", id, ok)
	}
	if id, ok := d.Lookup("gamma"); ok || id != -1 {
		t.Errorf("Lookup(gamma) = %d,%v, want -1,false", id, ok)
	}
}

func TestDictEncodeDecodeRoundTrip(t *testing.T) {
	f := func(raw []string) bool {
		dec := EncodeStrings(FromStrings(raw)).Decode()
		if dec.Len() != len(raw) {
			return false
		}
		for i, s := range raw {
			if dec.Values()[i] != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDictSortedStrings(t *testing.T) {
	d := NewDict(0)
	for _, s := range []string{"cake", "book", "history"} {
		d.Put(s)
	}
	// ID order must be insertion order.
	if f := d.Freeze(); f.Get(0) != "cake" || f.Get(2) != "history" {
		t.Error("IDs not in insertion order")
	}
}

// TestConstMaterializedBytes: a Const reports the size of its dense
// expansion without allocating it.
func TestConstMaterializedBytes(t *testing.T) {
	for _, c := range []*Const{ConstInt64(-9, 7), ConstFloat64(2.25, 7), ConstBool(true, 7), ConstString("key", 7), ConstString("", 0)} {
		if got, want := c.MaterializedBytes(), c.Materialize().EstimatedBytes(); got != want {
			t.Errorf("Const %v: MaterializedBytes = %d, Materialize().EstimatedBytes() = %d", c.Kind(), got, want)
		}
	}
}
