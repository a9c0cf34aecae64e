package catalog

import (
	"context"
	"fmt"
	"testing"

	"irdb/internal/relation"
	"irdb/internal/vector"
)

// TestByteWeightedEviction: many small hot entries must survive the
// arrival of one huge materialization — the oversize result is refused
// admission instead of flushing the cache.
func TestByteWeightedEviction(t *testing.T) {
	c := NewCache(0)
	small := rel(10) // 10 rows * (8 bytes value + 8 bytes prob) = 160 bytes
	perEntry := small.EstimatedBytes()
	c.SetMaxBytes(perEntry * 8)
	for i := 0; i < 8; i++ {
		seed(c, kindRel, fmt.Sprintf("small%d", i), rel(10), 0)
	}
	st := c.Stats()
	if st.Entries != 8 || st.Evictions != 0 {
		t.Fatalf("after smalls: entries=%d evictions=%d, want 8, 0", st.Entries, st.Evictions)
	}
	if st.Bytes != perEntry*8 {
		t.Fatalf("bytes = %d, want %d", st.Bytes, perEntry*8)
	}

	// A relation bigger than the whole budget must not be admitted.
	seed(c, kindRel, "huge", rel(1000), 0)
	st = c.Stats()
	if st.Entries != 8 {
		t.Errorf("huge insert evicted smalls: entries = %d, want 8", st.Entries)
	}
	if st.Oversize != 1 {
		t.Errorf("oversize = %d, want 1", st.Oversize)
	}
	if _, ok := c.Get("huge"); ok {
		t.Error("oversize entry was cached")
	}

	// A fitting entry evicts only as many LRU bytes as it needs.
	seed(c, kindRel, "medium", rel(20), 0) // 2 small entries' worth
	st = c.Stats()
	if st.Bytes > perEntry*8 {
		t.Errorf("bytes = %d over budget %d", st.Bytes, perEntry*8)
	}
	if st.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", st.Evictions)
	}
	if _, ok := c.Get("medium"); !ok {
		t.Error("medium entry missing")
	}
	// The two oldest smalls went; the rest survive.
	for i := 2; i < 8; i++ {
		if _, ok := c.Get(fmt.Sprintf("small%d", i)); !ok {
			t.Errorf("small%d evicted, want resident", i)
		}
	}
}

// TestByteAccountingOnReplaceAndClear keeps the bytes gauge consistent
// across entry replacement and Clear.
func TestByteAccountingOnReplaceAndClear(t *testing.T) {
	c := NewCache(0)
	seed(c, kindRel, "k", rel(10), 0)
	b10 := c.Stats().Bytes
	seed(c, kindRel, "k", rel(30), 0)
	if got := c.Stats().Bytes; got != 3*b10 {
		t.Errorf("bytes after replace = %d, want %d", got, 3*b10)
	}
	c.Clear()
	if got := c.Stats().Bytes; got != 0 {
		t.Errorf("bytes after clear = %d, want 0", got)
	}
}

// sizedAux is a fake join index reporting a fixed footprint.
type sizedAux struct{ bytes int64 }

func (s sizedAux) EstimatedBytes() int64 { return s.bytes }

// TestAuxEntriesCountTowardByteBudget: auxiliary entries implementing
// Sized are weighed into the shared byte budget, evict LRU entries when
// they arrive, are themselves evictable, and show up separately in Stats.
func TestAuxEntriesCountTowardByteBudget(t *testing.T) {
	c := NewCache(0)
	per := rel(10).EstimatedBytes()
	c.SetMaxBytes(per * 4)
	for i := 0; i < 4; i++ {
		seed(c, kindRel, fmt.Sprintf("rel%d", i), rel(10), 0)
	}

	// An aux entry worth two relations must evict the two LRU relations.
	seed(c, kindAux, "idx", sizedAux{bytes: per * 2}, 0)
	st := c.Stats()
	if st.Entries != 2 || st.AuxEntries != 1 {
		t.Fatalf("entries=%d aux=%d, want 2, 1", st.Entries, st.AuxEntries)
	}
	if st.AuxBytes != per*2 {
		t.Errorf("aux bytes = %d, want %d", st.AuxBytes, per*2)
	}
	if st.Bytes+st.AuxBytes > per*4 {
		t.Errorf("total bytes %d over budget %d", st.Bytes+st.AuxBytes, per*4)
	}
	for _, k := range []string{"rel0", "rel1"} {
		if _, ok := c.Get(k); ok {
			t.Errorf("%s still resident, want evicted (LRU)", k)
		}
	}

	// Relations arriving later evict the now-LRU aux entry in turn.
	for i := 0; i < 4; i++ {
		seed(c, kindRel, fmt.Sprintf("new%d", i), rel(10), 0)
	}
	if _, ok := peek(c, kindAux, "idx"); ok {
		t.Error("aux entry survived a full budget of newer relations")
	}
	if st := c.Stats(); st.AuxBytes != 0 || st.AuxEntries != 0 {
		t.Errorf("aux accounting after eviction: entries=%d bytes=%d, want 0, 0", st.AuxEntries, st.AuxBytes)
	}

	// An aux entry bigger than the whole budget is refused admission.
	before := c.Stats().Oversize
	seed(c, kindAux, "huge", sizedAux{bytes: per * 100}, 0)
	if _, ok := peek(c, kindAux, "huge"); ok {
		t.Error("oversize aux entry was cached")
	}
	if got := c.Stats().Oversize; got != before+1 {
		t.Errorf("oversize = %d, want %d", got, before+1)
	}

	// Unweighable aux values (no EstimatedBytes) stay admissible at zero
	// weight — the pre-Sized behaviour.
	seed(c, kindAux, "opaque", 42, 0)
	if v, ok := peek(c, kindAux, "opaque"); !ok || v != 42 {
		t.Error("unweighable aux entry not stored")
	}
	if st := c.Stats(); st.AuxBytes != 0 {
		t.Errorf("unweighable aux entry contributed %d bytes", st.AuxBytes)
	}
}

// TestCapacityEvictionSkipsAuxEntries: entry-count pressure must evict
// only relation entries — aux entries do not count toward capacity, so a
// count-capped cache with relation churn must not collaterally flush its
// join indexes.
func TestCapacityEvictionSkipsAuxEntries(t *testing.T) {
	c := NewCache(2)
	seed(c, kindAux, "idx", sizedAux{bytes: 1000}, 0)
	for i := 0; i < 6; i++ {
		seed(c, kindRel, fmt.Sprintf("rel%d", i), rel(10), 0)
	}
	st := c.Stats()
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2 (capacity)", st.Entries)
	}
	if _, ok := peek(c, kindAux, "idx"); !ok {
		t.Error("aux entry evicted by capacity pressure, want resident")
	}
	if st.AuxEntries != 1 {
		t.Errorf("aux entries = %d, want 1", st.AuxEntries)
	}
	// Byte pressure, by contrast, still evicts the (now cold) aux entry.
	c.SetMaxBytes(rel(10).EstimatedBytes() * 2)
	if _, ok := peek(c, kindAux, "idx"); ok {
		t.Error("aux entry survived byte pressure it no longer fits under")
	}
}

// TestAuxBytesAccountingOnReplaceDropClear keeps the aux bytes gauge
// consistent across replacement, DropAux and Clear.
func TestAuxBytesAccountingOnReplaceDropClear(t *testing.T) {
	c := NewCache(0)
	seed(c, kindAux, "a", sizedAux{bytes: 100}, 0)
	seed(c, kindAux, "a", sizedAux{bytes: 300}, 0)
	if got := c.Stats().AuxBytes; got != 300 {
		t.Errorf("aux bytes after replace = %d, want 300", got)
	}
	seed(c, kindAux, "b", sizedAux{bytes: 50}, 0)
	c.DropAux("a")
	if got := c.Stats().AuxBytes; got != 50 {
		t.Errorf("aux bytes after drop = %d, want 50", got)
	}
	c.Clear()
	st := c.Stats()
	if st.AuxBytes != 0 || st.AuxEntries != 0 {
		t.Errorf("after clear: aux entries=%d bytes=%d, want 0, 0", st.AuxEntries, st.AuxBytes)
	}
}

// TestSetMaxBytesShrinkEvicts: lowering the budget evicts immediately.
func TestSetMaxBytesShrinkEvicts(t *testing.T) {
	c := NewCache(0)
	for i := 0; i < 4; i++ {
		seed(c, kindRel, fmt.Sprintf("k%d", i), rel(10), 0)
	}
	per := rel(10).EstimatedBytes()
	c.SetMaxBytes(2 * per)
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 2*per {
		t.Errorf("after shrink: entries=%d bytes=%d, want 2, %d", st.Entries, st.Bytes, 2*per)
	}
	// MRU entries are the survivors.
	for _, k := range []string{"k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted, want resident", k)
		}
	}

	// Shrinking below a single resident entry must evict it too: nothing
	// protects the last entry during a budget change.
	c.SetMaxBytes(per / 2)
	st = c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("after shrink below one entry: entries=%d bytes=%d, want 0, 0", st.Entries, st.Bytes)
	}
}

// TestCacheWeighsBaseDictsAsMarginal checks that a cached relation
// sharing a base table's frozen dict is weighed by its marginal bytes
// (codes, probs), not the dictionary: evicting it would not free the
// dict, and charging it would make every derived entry look oversize
// under a byte budget. A dict NOT pinned by any base table (e.g. a
// per-evaluation tokenizer dict) must still count in full.
func TestCacheWeighsBaseDictsAsMarginal(t *testing.T) {
	big := make([]string, 0, 2000)
	for i := 0; i < 2000; i++ {
		big = append(big, fmt.Sprintf("subject-with-a-long-name-%06d", i))
	}
	base, err := relation.EncodeStringCols(relation.MustFromColumns([]relation.Column{
		{Name: "s", Vec: vector.FromStrings(big)},
	}, nil), "s")
	if err != nil {
		t.Fatal(err)
	}
	cat := New(0)
	cat.Put("base", base)
	dictBytes := base.Col(0).Vec.(*vector.DictStrings).Dict().EstimatedBytes()

	// A tiny slice of the base table: marginal weight ≈ 10 codes + probs.
	derived := base.Gather([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if _, _, err := cat.Cache().GetOrComputeDeps(context.Background(), "tiny", nil, func(context.Context) (*relation.Relation, error) {
		return derived, nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := cat.Cache().Stats().Bytes; got >= dictBytes {
		t.Fatalf("cached slice weighs %d bytes, should be marginal (dict alone is %d)", got, dictBytes)
	}

	// An unpinned dict reachable only through the cached entry counts full.
	fresh := relation.MustFromColumns([]relation.Column{
		{Name: "s", Vec: vector.EncodeStrings(vector.FromStrings(big[:500]))},
	}, nil)
	before := cat.Cache().Stats().Bytes
	if _, _, err := cat.Cache().GetOrComputeDeps(context.Background(), "fresh", nil, func(context.Context) (*relation.Relation, error) {
		return fresh, nil
	}); err != nil {
		t.Fatal(err)
	}
	freshDict := fresh.Col(0).Vec.(*vector.DictStrings).Dict().EstimatedBytes()
	if got := cat.Cache().Stats().Bytes - before; got < freshDict {
		t.Fatalf("unpinned dict weighed %d bytes, want at least its dict (%d)", got, freshDict)
	}
}
