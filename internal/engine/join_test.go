package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"irdb/internal/memory"
	"irdb/internal/relation"
)

// joinOutputCases are output lists over the join of L(a, b, x) and
// R(a, b, x) on a, whose full output is a, b, x, a_2, b_2, x_2.
var joinOutputCases = []struct {
	name string
	out  []JoinCol
}{
	{"left-only", []JoinCol{{Col: "a", Name: "a"}, {Col: "x", Name: "x"}}},
	{"left-without-keys", []JoinCol{{Col: "x", Name: "x"}}},
	{"right-only", []JoinCol{{Right: true, Col: "a", Name: "a_2"}, {Right: true, Col: "b", Name: "b_2"}}},
	{"right-without-keys", []JoinCol{{Right: true, Col: "x", Name: "x_2"}}},
	{"mixed", []JoinCol{{Col: "b", Name: "b"}, {Right: true, Col: "x", Name: "x_2"}}},
	{"mixed-reordered-without-keys", []JoinCol{{Right: true, Col: "x", Name: "x_2"}, {Col: "x", Name: "x"}, {Right: true, Col: "b", Name: "b_2"}}},
}

// joinOutputTables returns the join's inputs with the int key a scaled
// by scale (see keyFamilies): L splits into several morsels, and R's key
// takes the expected index path.
func joinOutputTables(t *testing.T, scale int64, dense bool) map[string]*relation.Relation {
	t.Helper()
	r := rand.New(rand.NewSource(43))
	tables := map[string]*relation.Relation{
		"L": scaleKeys(randRel(r, 3*minMorsel, 400), "a", scale),
		"R": scaleKeys(randRel(r, minMorsel, 400), "a", scale),
	}
	assertKeyPath(t, tables["R"], "a", denseJoinSlots, dense)
	return tables
}

func outNames(out []JoinCol) []string {
	names := make([]string, len(out))
	for i, oc := range out {
		names[i] = oc.Name
	}
	return names
}

// TestJoinOutputMatchesProject: a join with an output list equals a
// Project of the same names over the full join — columns, rows, order,
// values and probability bits — at parallelism 1, 2 and 8, for left-only,
// right-only and mixed lists, lists without the keys, both probability
// modes, and dense and hashed keys. Its plan-time schema is the list's
// names, and a rebuild keeps the list.
func TestJoinOutputMatchesProject(t *testing.T) {
	bg := context.Background()
	for _, keys := range keyFamilies {
		t.Run(keys.name, func(t *testing.T) {
			tables := joinOutputTables(t, keys.scale, keys.dense)
			for _, mode := range []JoinProb{JoinIndependent, JoinLeft} {
				full := NewHashJoin(NewScan("L"), NewScan("R"), []string{"a"}, []string{"a"}, mode)
				for _, tc := range joinOutputCases {
					narrow := newHashJoin(NewScan("L"), NewScan("R"), []string{"a"}, []string{"a"}, mode, tc.out)
					assertFresh(t, narrow)
					if names, ok := staticSchema(nil, narrow); !ok || !slices.Equal(names, outNames(tc.out)) {
						t.Fatalf("%s %s: static schema %v, want the list's names", mode, tc.name, names)
					}
					want, err := ctxAt(1, tables).Exec(bg, NewProject(full, ByName(outNames(tc.out)...)...))
					if err != nil {
						t.Fatal(err)
					}
					if want.NumRows() == 0 {
						t.Fatalf("%s %s: the join matched nothing", mode, tc.name)
					}
					for _, par := range []int{1, 2, 8} {
						label := fmt.Sprintf("%s %s par=%d", mode, tc.name, par)
						got, err := ctxAt(par, tables).Exec(bg, narrow)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						mustEqualRel(t, want, got, label)
						wp, gp := want.Prob(), got.Prob()
						for i := range wp {
							if math.Float64bits(wp[i]) != math.Float64bits(gp[i]) {
								t.Fatalf("%s: row %d probability bits %x, want %x", label, i, math.Float64bits(gp[i]), math.Float64bits(wp[i]))
							}
						}
					}
				}
			}
		})
	}
}

// TestJoinOutputBudget: a join charges its output per kept column. The
// full join's peak exceeds the narrowed one's by exactly the dropped
// columns' widths per output row, so a budget at the narrowed join's
// peak admits it and denies the full join, and one byte less denies the
// narrowed join too.
func TestJoinOutputBudget(t *testing.T) {
	bg := context.Background()
	out := []JoinCol{{Col: "b", Name: "b"}, {Right: true, Col: "x", Name: "x_2"}}
	for _, keys := range keyFamilies {
		t.Run(keys.name, func(t *testing.T) {
			tables := joinOutputTables(t, keys.scale, keys.dense)
			full := NewHashJoin(NewScan("L"), NewScan("R"), []string{"a"}, []string{"a"}, JoinIndependent)
			narrow := newHashJoin(NewScan("L"), NewScan("R"), []string{"a"}, []string{"a"}, JoinIndependent, out)
			// run executes plan under a budget and returns its peak charge.
			run := func(par int, plan Node, budget int64) (*relation.Relation, int64, error) {
				res := memory.NewPool(0).Reserve(budget)
				defer res.Release()
				rel, err := ctxAt(par, tables).Exec(memory.WithReservation(bg, res), plan)
				return rel, res.Peak(), err
			}
			// The dropped columns' widths: a, x of L and a, b of R.
			var dropped int64
			for _, d := range []struct{ table, col string }{{"L", "a"}, {"L", "x"}, {"R", "a"}, {"R", "b"}} {
				rel := tables[d.table]
				dropped += rel.ApproxColBytes(rel.ColIndex(d.col))
			}
			for _, par := range []int{1, 2, 8} {
				rel, narrowPeak, err := run(par, narrow, 1<<30)
				if err != nil {
					t.Fatal(err)
				}
				_, fullPeak, err := run(par, full, 1<<30)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := fullPeak-narrowPeak, dropped*int64(rel.NumRows()); got != want {
					t.Fatalf("par=%d: full join peak exceeds the narrowed one by %d bytes, want %d (%d rows × %d B dropped)",
						par, got, want, rel.NumRows(), dropped)
				}
				if _, _, err := run(par, narrow, narrowPeak); err != nil {
					t.Fatalf("par=%d: narrowed join under its own peak: %v", par, err)
				}
				if _, _, err := run(par, full, narrowPeak); !errors.Is(err, ErrBudgetExceeded) {
					t.Fatalf("par=%d: full join under the narrowed peak: err = %v, want ErrBudgetExceeded", par, err)
				}
				if _, _, err := run(par, narrow, narrowPeak-1); !errors.Is(err, ErrBudgetExceeded) {
					t.Fatalf("par=%d: narrowed join one byte under its peak: err = %v, want ErrBudgetExceeded", par, err)
				}
			}
		})
	}
}
