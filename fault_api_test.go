package irdb

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSnapshotFacadeRoundTrip: SaveSnapshot/LoadSnapshot carry the whole
// triple store (dict encoding included) across DB instances, and a
// corrupted file is refused with ErrCorruptSnapshot, leaving the loading
// DB untouched and the incident counted in Stats.
func TestSnapshotFacadeRoundTrip(t *testing.T) {
	ctx := context.Background()
	src := openTestDB(t, 0)
	path := filepath.Join(t.TempDir(), "db.snap")
	if err := src.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if st := src.Stats(); st.Faults.SnapshotSaves != 1 {
		t.Errorf("SnapshotSaves = %d, want 1", st.Faults.SnapshotSaves)
	}

	const q = `SELECT [$2 = "type" and $3 = "lot"] (triples);`
	want, err := src.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	dst := openT(t)
	t.Cleanup(func() { dst.Close() })
	if err := dst.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	got, err := dst.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows after snapshot load = %d, want %d", got.NumRows(), want.NumRows())
	}

	// Corrupt the file mid-payload; loading must fail typed and mutate
	// nothing.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	broken := openT(t)
	t.Cleanup(func() { broken.Close() })
	before := len(broken.Stats().Tables)
	err = broken.LoadSnapshot(path)
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("err = %v, want ErrCorruptSnapshot", err)
	}
	if after := len(broken.Stats().Tables); after != before {
		t.Errorf("corrupt load mutated tables: %d -> %d", before, after)
	}
	if st := broken.Stats(); st.Faults.CorruptSnapshotLoads != 1 {
		t.Errorf("CorruptSnapshotLoads = %d, want 1", st.Faults.CorruptSnapshotLoads)
	}
}

// TestAdmissionWaitOverloaded: with the single slot held, a bounded
// admission wait fails fast with ErrOverloaded (counted in Stats), and
// the query succeeds once the slot frees.
func TestAdmissionWaitOverloaded(t *testing.T) {
	ctx := context.Background()
	db := openT(t, WithMaxInFlight(1), WithAdmissionWait(5*time.Millisecond))
	t.Cleanup(func() { db.Close() })
	if err := db.LoadTriples(testGraph(50)); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT [$2 = "type"] (triples);`

	_, release, err := db.gate.Enter(ctx) // occupy the only slot
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.Query(ctx, q)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if st := db.Stats(); st.Faults.Overloaded != 1 {
		t.Errorf("Overloaded = %d, want 1", st.Faults.Overloaded)
	}

	release()
	if _, err := db.Query(ctx, q); err != nil {
		t.Fatalf("query after slot freed: %v", err)
	}
}

// TestSearchShedsBeforeOptimizing: Search is admitted before it plans.
// With the only slot held by an open stream and a short admission wait,
// Search fails fast with ErrOverloaded and the optimizer never sees its
// plan; once the stream closes the same search succeeds.
func TestSearchShedsBeforeOptimizing(t *testing.T) {
	ctx := context.Background()
	db := openT(t, WithMaxInFlight(1), WithAdmissionWait(5*time.Millisecond))
	t.Cleanup(func() { db.Close() })
	if err := db.LoadTriples(testGraph(50)); err != nil {
		t.Fatal(err)
	}
	db.InstallBuiltinStrategies()
	stmt, err := db.Prepare(`SELECT [$2 = "type"] (triples);`)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := stmt.QueryStream(ctx) // holds the only slot until Close
	if err != nil {
		t.Fatal(err)
	}

	plans := db.Stats().Optimizer.Plans
	if _, err := db.Search(ctx, "auction-lots", "wooden train", 10); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Search with the slot held = %v, want ErrOverloaded", err)
	}
	if got := db.Stats().Optimizer.Plans; got != plans {
		t.Errorf("a shed Search optimized %d plan(s); admission must come first", got-plans)
	}

	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Search(ctx, "auction-lots", "wooden train", 10); err != nil {
		t.Fatalf("Search after the stream closed: %v", err)
	}
}

// TestCloseDrainsInFlight: Close blocks until running queries finish,
// then every later operation reports ErrClosed.
func TestCloseDrainsInFlight(t *testing.T) {
	db := openT(t)
	_, end, err := db.gate.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()

	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with a query still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	end()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return after the in-flight query ended")
	}
	if _, err := db.Query(context.Background(), "x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query on closed DB = %v, want ErrClosed", err)
	}
}
