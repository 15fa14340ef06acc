package table

// Property tests: the columnar kernels must equal the retained
// row-at-a-time references cell for cell — and for floats bit for bit — on
// random tables covering random key cardinality, duplicate keys, unmatched
// join keys and all three column types.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randTable builds a table with Int64 key/aux, Float64 and String columns.
// Key cardinality is drawn from [1, 12] so duplicates and singleton groups
// both occur; n may be 0.
func randTable(rng *rand.Rand) *Table {
	tb := NewTable(MustSchema(
		Field{Name: "imsi", Type: Int64},
		Field{Name: "aux", Type: Int64},
		Field{Name: "dur", Type: Float64},
		Field{Name: "cell", Type: String},
	))
	n := rng.Intn(300)
	card := 1 + rng.Intn(12)
	for i := 0; i < n; i++ {
		tb.AppendRow(
			int64(rng.Intn(card)),
			int64(rng.Intn(4)),
			rng.NormFloat64(),
			fmt.Sprintf("c%d", rng.Intn(5)),
		)
	}
	return tb
}

// tablesEqual reports whether two tables agree on schema and every cell.
// Floats compare by bit pattern, so it rejects -0 vs 0 and reordered
// accumulation, not just large drift.
func tablesEqual(a, b *Table) error {
	if !a.Schema.Equal(b.Schema) {
		return fmt.Errorf("schema %s vs %s", a.Schema, b.Schema)
	}
	if a.NumRows() != b.NumRows() {
		return fmt.Errorf("rows %d vs %d", a.NumRows(), b.NumRows())
	}
	for c := range a.Cols {
		ca, cb := a.Cols[c], b.Cols[c]
		name := a.Schema.Fields[c].Name
		for i := 0; i < a.NumRows(); i++ {
			switch ca.Type {
			case Int64:
				if ca.Ints[i] != cb.Ints[i] {
					return fmt.Errorf("%s[%d]: %d vs %d", name, i, ca.Ints[i], cb.Ints[i])
				}
			case Float64:
				if math.Float64bits(ca.Floats[i]) != math.Float64bits(cb.Floats[i]) {
					return fmt.Errorf("%s[%d]: %v vs %v (bits differ)", name, i, ca.Floats[i], cb.Floats[i])
				}
			default:
				if ca.Strings[i] != cb.Strings[i] {
					return fmt.Errorf("%s[%d]: %q vs %q", name, i, ca.Strings[i], cb.Strings[i])
				}
			}
		}
	}
	return nil
}

// allAggs exercises every AggFunc, with Sum over both numeric types.
func allAggs() []Agg {
	return []Agg{
		{Func: Count, As: "n"},
		{Col: "dur", Func: Sum, As: "dur_sum"},
		{Col: "aux", Func: Sum, As: "aux_sum"},
	}
}

func TestGroupByMatchesLegacy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := randTable(rng)
		got, err := GroupBy(tb, "imsi", allAggs()...)
		if err != nil {
			t.Fatalf("GroupBy: %v", err)
		}
		want, err := legacyGroupBy(tb, "imsi", allAggs()...)
		if err != nil {
			t.Fatalf("legacyGroupBy: %v", err)
		}
		if err := tablesEqual(got, want); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestGroupBySortedFastPathMatchesLegacy pins the presorted-key fast path
// (runsIndex) against the reference, since random tables rarely arrive sorted.
func TestGroupBySortedFastPathMatchesLegacy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := randTable(rng)
		sorted, err := SortByInt(tb, "imsi")
		if err != nil {
			t.Fatal(err)
		}
		got, err := GroupBy(sorted, "imsi", allAggs()...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := legacyGroupBy(sorted, "imsi", allAggs()...)
		if err != nil {
			t.Fatal(err)
		}
		if err := tablesEqual(got, want); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestHashJoinMatchesLegacy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		left := randTable(rng)
		// Right side: overlapping but not identical key range, so matched,
		// unmatched and duplicate right keys all occur. Shares the "dur" and
		// "cell" names to exercise the "_r" collision suffix.
		right := NewTable(MustSchema(
			Field{Name: "imsi", Type: Int64},
			Field{Name: "dur", Type: Float64},
			Field{Name: "cell", Type: String},
			Field{Name: "plan", Type: Int64},
		))
		nr := rng.Intn(60)
		for i := 0; i < nr; i++ {
			right.AppendRow(
				int64(rng.Intn(16)-2), // keys in [-2, 13]: some never match
				rng.NormFloat64(),
				fmt.Sprintf("r%d", rng.Intn(3)),
				int64(rng.Intn(5)),
			)
		}
		got, err := HashJoin(left, right, "imsi", InnerJoin)
		if err != nil {
			t.Fatalf("HashJoin: %v", err)
		}
		want, err := legacyHashJoin(left, right, "imsi")
		if err != nil {
			t.Fatalf("legacyHashJoin: %v", err)
		}
		if err := tablesEqual(got, want); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFilterTakeMatchLegacy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := randTable(rng)
		durs := tb.MustCol("dur").Floats
		pred := func(i int) bool { return durs[i] >= 0 }
		if err := tablesEqual(tb.Filter(pred), legacyFilter(tb, pred)); err != nil {
			t.Logf("seed %d Filter: %v", seed, err)
			return false
		}
		var idx []int
		for i := tb.NumRows() - 1; i >= 0; i -= 2 { // out of order, with gaps
			idx = append(idx, i)
		}
		if err := tablesEqual(tb.Take(idx), legacyTake(tb, idx)); err != nil {
			t.Logf("seed %d Take: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestGroupByErrorsMatchLegacy pins the validation behavior to the legacy
// messages so callers' error handling is unaffected by the rewrite.
func TestGroupByErrorsMatchLegacy(t *testing.T) {
	tb := randTable(rand.New(rand.NewSource(1)))
	cases := []struct {
		key  string
		aggs []Agg
	}{
		{"nope", []Agg{{Func: Count, As: "n"}}},
		{"dur", []Agg{{Func: Count, As: "n"}}},
		{"imsi", []Agg{{Func: Count, As: ""}}},
		{"imsi", []Agg{{Col: "nope", Func: Sum, As: "s"}}},
		{"imsi", []Agg{{Col: "cell", Func: Sum, As: "s"}}},
	}
	for _, c := range cases {
		_, gotErr := GroupBy(tb, c.key, c.aggs...)
		_, wantErr := legacyGroupBy(tb, c.key, c.aggs...)
		if gotErr == nil || wantErr == nil {
			t.Fatalf("case %v: expected errors, got %v / %v", c, gotErr, wantErr)
		}
		if gotErr.Error() != wantErr.Error() {
			t.Errorf("case %v: error %q, legacy %q", c, gotErr, wantErr)
		}
	}
}
