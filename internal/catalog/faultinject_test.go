//go:build faultinject

package catalog

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"irdb/internal/fault"
	"irdb/internal/faultpoint"
	"irdb/internal/relation"
	"irdb/internal/vector"
)

// TestCrashMidSnapshotWriteKeepsOldSnapshot is the acceptance test for
// durable saves: a crash injected between the temp-file write and the
// rename — at every stage of the write path — must leave the previous
// snapshot intact, loadable with all checksums verified, and leave no
// temp-file litter behind.
func TestCrashMidSnapshotWriteKeepsOldSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cat.snap")

	v1 := New(0)
	v1.Put("t", relation.NewBuilder([]string{"s"}, []vector.Kind{vector.String}).
		Add("old-row-1").Add("old-row-2").Build())
	if err := v1.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	// The catalog has since grown; every attempt to persist the new state
	// crashes at a different point of the write path.
	v1.Put("extra", relation.NewBuilder([]string{"x"}, []vector.Kind{vector.Int64}).Add(1).Build())

	sites := []struct {
		site string
		spec faultpoint.Spec
	}{
		{faultpoint.SiteSnapshotWriteSection, faultpoint.Spec{Err: errors.New("injected: crash mid-section"), After: 1}},
		{faultpoint.SiteSnapshotFsync, faultpoint.Spec{Err: errors.New("injected: crash before fsync")}},
		{faultpoint.SiteSnapshotRename, faultpoint.Spec{Err: errors.New("injected: crash before rename")}},
	}
	for _, tc := range sites {
		t.Run(tc.site, func(t *testing.T) {
			faultpoint.Arm(tc.site, tc.spec)
			defer faultpoint.Reset()
			if err := v1.SaveFile(path); err == nil {
				t.Fatal("SaveFile succeeded with an armed crash site")
			}
			if faultpoint.Hits(tc.site) == 0 {
				t.Fatal("write path never reached the fault site")
			}

			// The old snapshot survives, checksums and all.
			dst := New(0)
			if err := dst.LoadFile(path); err != nil {
				t.Fatalf("old snapshot unreadable after crashed save: %v", err)
			}
			if names := dst.TableNames(); len(names) != 1 || names[0] != "t" {
				t.Fatalf("old snapshot content changed: tables = %v", names)
			}
			rel, _ := dst.Table("t")
			if rel.NumRows() != 2 || rel.Col(0).Vec.Format(0) != "old-row-1" {
				t.Fatal("old snapshot rows changed")
			}

			// No temp litter: the failed attempt cleaned up after itself.
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 1 {
				names := make([]string, len(ents))
				for i, e := range ents {
					names[i] = e.Name()
				}
				t.Fatalf("directory contents = %v, want only cat.snap", names)
			}
		})
	}

	// With all faults cleared the new state persists fine.
	if err := v1.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	dst := New(0)
	if err := dst.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if names := dst.TableNames(); len(names) != 2 {
		t.Fatalf("new snapshot tables = %v", names)
	}
}

// TestInjectedCacheComputeFault: the cache compute fault point fails the
// flight of either kind with the injected error (or contains the injected
// panic) and caches nothing; disarming restores normal operation.
func TestInjectedCacheComputeFault(t *testing.T) {
	for _, k := range kindCases {
		t.Run(k.name, func(t *testing.T) {
			want := k.val(1)
			compute := func(context.Context) (any, error) { return want, nil }

			c := NewCache(0)
			boom := errors.New("injected compute error")
			faultpoint.Arm(faultpoint.SiteCacheCompute, faultpoint.Spec{Err: boom, Count: 1})
			t.Cleanup(faultpoint.Reset)
			if _, _, err := c.getOrCompute(context.Background(), k.kind, "k", nil, compute); !errors.Is(err, boom) {
				t.Fatalf("err = %v, want injected error", err)
			}
			if entriesOf(c, k.kind) != 0 {
				t.Error("errored flight cached a result")
			}
			if got, _, err := c.getOrCompute(context.Background(), k.kind, "k", nil, compute); err != nil || got != want {
				t.Fatalf("compute after fired-out fault: v=%v err=%v", got, err)
			}

			faultpoint.Arm(faultpoint.SiteCacheCompute, faultpoint.Spec{Panic: "injected compute panic", Count: 1})
			_, _, err := c.getOrCompute(context.Background(), k.kind, "k2", nil, compute)
			if _, ok := fault.AsPanicError(err); !ok {
				t.Fatalf("err = %v, want *fault.PanicError", err)
			}
			if st := c.Stats(); st.Panics == 0 {
				t.Error("contained injected panic not counted")
			}
		})
	}
}
