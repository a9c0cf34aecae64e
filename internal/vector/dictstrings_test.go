package vector

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func testStrings(n, card int) *Strings {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("value%04d", i%card)
	}
	return FromStrings(vals)
}

func TestEncodeStringsRoundTrip(t *testing.T) {
	sv := testStrings(1000, 37)
	dv := EncodeStrings(sv)
	if dv.Len() != sv.Len() {
		t.Fatalf("len = %d, want %d", dv.Len(), sv.Len())
	}
	if dv.Dict().Len() != 37 {
		t.Fatalf("dict len = %d, want 37", dv.Dict().Len())
	}
	for i := 0; i < sv.Len(); i++ {
		if dv.At(i) != sv.Values()[i] {
			t.Fatalf("row %d decodes to %q, want %q", i, dv.At(i), sv.Values()[i])
		}
	}
	for i, s := range dv.Decode().Values() {
		if s != sv.Values()[i] {
			t.Fatalf("decoded row %d = %q, want %q", i, s, sv.Values()[i])
		}
	}
}

func TestDictStringsEqualLessCrossRepresentation(t *testing.T) {
	sv := testStrings(200, 23)
	dv := EncodeStrings(sv)
	dv2 := EncodeStrings(testStrings(200, 23)) // same values, different dict
	for i := 0; i < 200; i += 7 {
		for j := 0; j < 200; j += 11 {
			want := sv.Values()[i] == sv.Values()[j]
			if got := dv.EqualAt(i, dv, j); got != want {
				t.Fatalf("same-dict EqualAt(%d,%d) = %v, want %v", i, j, got, want)
			}
			if got := dv.EqualAt(i, dv2, j); got != want {
				t.Fatalf("cross-dict EqualAt(%d,%d) = %v, want %v", i, j, got, want)
			}
			if got := dv.EqualAt(i, sv, j); got != want {
				t.Fatalf("dict-vs-plain EqualAt(%d,%d) = %v, want %v", i, j, got, want)
			}
			if got := sv.EqualAt(i, dv, j); got != want {
				t.Fatalf("plain-vs-dict EqualAt(%d,%d) = %v, want %v", i, j, got, want)
			}
			wantLess := sv.Values()[i] < sv.Values()[j]
			if got := dv.LessAt(i, dv, j); got != wantLess {
				t.Fatalf("same-dict LessAt(%d,%d) = %v, want %v", i, j, got, wantLess)
			}
			if got := dv.LessAt(i, dv2, j); got != wantLess {
				t.Fatalf("cross-dict LessAt(%d,%d) = %v, want %v", i, j, got, wantLess)
			}
			if got := dv.LessAt(i, sv, j); got != wantLess {
				t.Fatalf("dict-vs-plain LessAt(%d,%d) = %v, want %v", i, j, got, wantLess)
			}
		}
	}
}

func TestFrozenDictRankMatchesSortOrder(t *testing.T) {
	d := NewDict(0)
	words := []string{"pear", "apple", "fig", "banana", "apple2", ""}
	for _, w := range words {
		d.Put(w)
	}
	fd := d.Freeze()
	sorted := append([]string(nil), words...)
	sort.Strings(sorted)
	for code, w := range words {
		want := sort.SearchStrings(sorted, w)
		if got := fd.Rank(int32(code)); int(got) != want {
			t.Fatalf("rank(%q) = %d, want %d", w, got, want)
		}
	}
}

func TestDictStringsGatherSliceCopy(t *testing.T) {
	sv := testStrings(500, 13)
	dv := EncodeStrings(sv)
	sel := []int{4, 4, 99, 0, 499, 250}
	g := dv.Gather(sel).(*DictStrings)
	if g.Dict() != dv.Dict() {
		t.Fatal("Gather did not share the dict")
	}
	for i, s := range sel {
		if g.At(i) != sv.Values()[s] {
			t.Fatalf("gather row %d = %q, want %q", i, g.At(i), sv.Values()[s])
		}
	}
	sl := dv.Slice(100, 200).(*DictStrings)
	if sl.Len() != 100 || sl.At(0) != sv.Values()[100] {
		t.Fatal("Slice mismatch")
	}
	// code-copy into same-dict destination
	dst := dv.NewSized(500).(*DictStrings)
	dv.CopyRangeAt(dst, 0, 500, 0)
	for i := 0; i < 500; i++ {
		if dst.At(i) != sv.Values()[i] {
			t.Fatalf("CopyRangeAt row %d mismatch", i)
		}
	}
	// decode-copy into a plain destination
	plain := NewStrings(0).NewSized(500)
	dv.CopyRangeAt(plain, 0, 500, 0)
	for i := 0; i < 500; i++ {
		if plain.(*Strings).Values()[i] != sv.Values()[i] {
			t.Fatalf("decode CopyRangeAt row %d mismatch", i)
		}
	}
	// gather-at-offset into same-dict destination
	dst2 := dv.NewSized(len(sel)).(*DictStrings)
	dv.GatherRangeInto(dst2, sel, 0, len(sel), 0)
	for i, s := range sel {
		if dst2.At(i) != sv.Values()[s] {
			t.Fatalf("GatherRangeInto row %d mismatch", i)
		}
	}
}

// TestDictStringsHashSelfConsistent checks that equal values hash equal
// and distinct values (almost surely) hash distinct within one dict's
// domain — the property group-by and self-joins rely on.
func TestDictStringsHashSelfConsistent(t *testing.T) {
	sv := testStrings(300, 17)
	dv := EncodeStrings(sv)
	seed := maphash.MakeSeed()
	hs := make([]uint64, dv.Len())
	dv.HashRangeInto(seed, hs, 0, len(hs))
	// also via ranges, must agree with the full pass
	hr := make([]uint64, dv.Len())
	dv.HashRangeInto(seed, hr, 0, 150)
	dv.HashRangeInto(seed, hr, 150, dv.Len())
	for i := range hs {
		if hs[i] != hr[i] {
			t.Fatalf("range hash differs at %d", i)
		}
		for j := range hs {
			if (sv.Values()[i] == sv.Values()[j]) != (hs[i] == hs[j]) {
				t.Fatalf("hash equality mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMapStringsCollapsesAndStaysInjective(t *testing.T) {
	sv := FromStrings([]string{"The", "the", "THE", "cat", "Cat"})
	dv := EncodeStrings(sv) // 5 distinct codes
	out, ok := MapStrings(dv, func(s string) string {
		return fmt.Sprintf("%c", s[0]|0x20) // first letter, lowered: collapses
	})
	if !ok {
		t.Fatal("MapStrings failed")
	}
	od := out.(*DictStrings)
	if od.Dict().Len() != 2 {
		t.Fatalf("mapped dict has %d entries, want 2 (t, c)", od.Dict().Len())
	}
	want := []string{"t", "t", "t", "c", "c"}
	for i, w := range want {
		if od.At(i) != w {
			t.Fatalf("row %d = %q, want %q", i, od.At(i), w)
		}
	}
	// equality on the collapsed values must hold through codes
	if !od.EqualAt(0, od, 2) || od.EqualAt(0, od, 3) {
		t.Fatal("collapsed codes compare wrongly")
	}
}

func TestEncodeLookupMissingNeverMatches(t *testing.T) {
	build := EncodeStrings(FromStrings([]string{"a", "b", "c"}))
	probe := EncodeLookup(build.Dict(), FromStrings([]string{"b", "zzz", "a"}))
	if probe.Dict() != build.Dict() {
		t.Fatal("EncodeLookup did not bind the build dict")
	}
	if !probe.EqualAt(0, build, 1) {
		t.Fatal("interned probe value should match")
	}
	for j := 0; j < 3; j++ {
		if probe.EqualAt(1, build, j) {
			t.Fatal("missing probe value matched a build row")
		}
	}
}

// TestFrozenDictConcurrentReads hammers Lookup/Get/Rank on one frozen
// dict from many goroutines; run with -race this asserts the freeze is
// genuinely read-only while the source Dict keeps mutating.
func TestFrozenDictConcurrentReads(t *testing.T) {
	d := NewDict(0)
	const n = 2000
	for i := 0; i < n; i++ {
		d.Put(fmt.Sprintf("w%05d", i))
	}
	fd := d.Freeze()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for k := 0; k < 20000; k++ {
				i := rng.Intn(n)
				w := fmt.Sprintf("w%05d", i)
				code, ok := fd.Lookup(w)
				if !ok || fd.Get(code) != w {
					t.Errorf("lookup/get mismatch for %q", w)
					return
				}
				_ = fd.Rank(code)
				if _, ok := fd.Lookup("missing"); ok {
					t.Error("phantom entry")
					return
				}
			}
		}(g)
	}
	// The source dict keeps interning concurrently — the frozen view must
	// be unaffected (it owns its structures).
	for i := 0; i < 5000; i++ {
		d.Put(fmt.Sprintf("extra%05d", i))
	}
	wg.Wait()
	if fd.Len() != n {
		t.Fatalf("frozen view grew to %d entries", fd.Len())
	}
}
