package catalog

import (
	"bytes"
	"testing"

	"irdb/internal/relation"
	"irdb/internal/vector"
)

func snapshotCatalog() *Catalog {
	c := New(0)
	c.Put("mixed", relation.NewBuilder(
		[]string{"s", "i", "f", "b"},
		[]vector.Kind{vector.String, vector.Int64, vector.Float64, vector.Bool}).
		AddP(0.5, "a", 1, 1.5, true).
		Add("b", 2, 2.5, false).
		Build())
	c.Put("empty", relation.NewBuilder([]string{"x"}, []vector.Kind{vector.String}).Build())
	return c
}

func TestSnapshotRoundTrip(t *testing.T) {
	src := snapshotCatalog()
	var buf bytes.Buffer
	if err := src.Save(&buf, SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}

	dst := New(0)
	dst.Put("leftover", relation.NewBuilder([]string{"y"}, []vector.Kind{vector.Int64}).Build())
	if _, err := dst.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// pre-existing tables are replaced wholesale
	if _, err := dst.Table("leftover"); err == nil {
		t.Error("LoadSnapshot kept pre-existing table")
	}
	names := dst.TableNames()
	if len(names) != 2 || names[0] != "empty" || names[1] != "mixed" {
		t.Fatalf("tables = %v", names)
	}
	rel, err := dst.Table("mixed")
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 2 || rel.NumCols() != 4 {
		t.Fatalf("shape = %dx%d", rel.NumRows(), rel.NumCols())
	}
	if rel.Prob()[0] != 0.5 || rel.Prob()[1] != 1.0 {
		t.Errorf("prob = %v", rel.Prob())
	}
	if rel.Col(0).Vec.Format(1) != "b" || rel.Col(3).Vec.Format(0) != "true" {
		t.Errorf("values wrong:\n%s", rel.Format(-1))
	}
	for i, k := range []vector.Kind{vector.String, vector.Int64, vector.Float64, vector.Bool} {
		if rel.Col(i).Vec.Kind() != k {
			t.Errorf("col %d kind = %v, want %v", i, rel.Col(i).Vec.Kind(), k)
		}
	}
	empty, err := dst.Table("empty")
	if err != nil || empty.NumRows() != 0 {
		t.Errorf("empty table: %v, rows=%d", err, empty.NumRows())
	}
}

func TestLoadSnapshotClearsCache(t *testing.T) {
	src := snapshotCatalog()
	var buf bytes.Buffer
	if err := src.Save(&buf, SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	dst := New(0)
	seed(dst.Cache(), kindRel, "stale", relation.NewBuilder([]string{"x"}, []vector.Kind{vector.Int64}).Build(), 0)
	if _, err := dst.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if dst.Cache().Stats().Entries != 0 {
		t.Error("cache not cleared on snapshot load")
	}
}

func TestLoadSnapshotRejectsGarbage(t *testing.T) {
	dst := snapshotCatalog()
	before := dst.TableNames()
	if _, err := dst.LoadSnapshot(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage accepted")
	}
	// failed load must not clobber existing tables
	after := dst.TableNames()
	if len(after) != len(before) {
		t.Errorf("failed load mutated catalog: %v -> %v", before, after)
	}
}

// TestSnapshotDictColumnsRoundTrip checks that dict-encoded columns
// survive a save/load cycle still encoded, with cross-table dict sharing
// intact (the triple store's subject/object columns rely on it for
// code-comparable joins after a restart).
func TestSnapshotDictColumnsRoundTrip(t *testing.T) {
	a := relation.NewBuilder([]string{"s", "o"}, []vector.Kind{vector.String, vector.String}).
		Add("n1", "n2").Add("n2", "n3").AddP(0.25, "n3", "n1").Build()
	b := relation.NewBuilder([]string{"s"}, []vector.Kind{vector.String}).
		Add("n2").Add("n9").Build()
	encoded, err := relation.EncodeStringsShared(
		[]*relation.Relation{a, b}, [][]string{{"s", "o"}, {"s"}})
	if err != nil {
		t.Fatal(err)
	}
	src := New(0)
	src.Put("edges", encoded[0])
	src.Put("nodes", encoded[1])
	if st := src.DictStats(); st.Dicts != 1 || st.EncodedColumns != 3 {
		t.Fatalf("pre-save DictStats = %+v, want 1 dict over 3 columns", st)
	}

	var buf bytes.Buffer
	if err := src.Save(&buf, SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	dst := New(0)
	if _, err := dst.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	edges, err := dst.Table("edges")
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := dst.Table("nodes")
	if err != nil {
		t.Fatal(err)
	}
	es, ok1 := edges.Col(0).Vec.(*vector.DictStrings)
	eo, ok2 := edges.Col(1).Vec.(*vector.DictStrings)
	ns, ok3 := nodes.Col(0).Vec.(*vector.DictStrings)
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("columns lost encoding: %T %T %T", edges.Col(0).Vec, edges.Col(1).Vec, nodes.Col(0).Vec)
	}
	if es.Dict() != eo.Dict() || es.Dict() != ns.Dict() {
		t.Fatal("cross-table dict sharing lost in round trip")
	}
	if es.At(2) != "n3" || eo.At(2) != "n1" || ns.At(1) != "n9" {
		t.Fatal("decoded values wrong after round trip")
	}
	if p := edges.Prob()[2]; p != 0.25 {
		t.Fatalf("prob = %v, want 0.25", p)
	}
	if st := dst.DictStats(); st.Dicts != 1 || st.EncodedColumns != 3 {
		t.Fatalf("post-load DictStats = %+v, want 1 dict over 3 columns", st)
	}
}
