package table

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func leftTable(t *testing.T) *Table {
	t.Helper()
	tb := NewTable(MustSchema(
		Field{Name: "imsi", Type: Int64},
		Field{Name: "dur", Type: Float64},
	))
	for _, r := range []struct {
		id  int64
		dur float64
	}{{1, 10}, {2, 20}, {3, 30}, {2, 25}} {
		if err := tb.AppendRow(r.id, r.dur); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func rightTable(t *testing.T) *Table {
	t.Helper()
	tb := NewTable(MustSchema(
		Field{Name: "imsi", Type: Int64},
		Field{Name: "age", Type: Int64},
		Field{Name: "dur", Type: Float64}, // name collision with left
	))
	for _, r := range []struct {
		id, age int64
		dur     float64
	}{{1, 30, 1}, {2, 40, 2}, {9, 50, 9}} {
		if err := tb.AppendRow(r.id, r.age, r.dur); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestHashJoinInner(t *testing.T) {
	out, err := HashJoin(leftTable(t), rightTable(t), "imsi", InnerJoin)
	if err != nil {
		t.Fatal(err)
	}
	// imsi 1 matches once, imsi 2 twice (two left rows), imsi 3 none.
	if out.NumRows() != 3 {
		t.Fatalf("inner join rows = %d, want 3", out.NumRows())
	}
	if !out.Schema.Has("dur_r") {
		t.Errorf("collision column not suffixed: %v", out.Schema.Names())
	}
	ages := out.MustCol("age").Ints
	for _, a := range ages {
		if a != 30 && a != 40 {
			t.Errorf("unexpected age %d in inner join", a)
		}
	}
}

func TestHashJoinErrors(t *testing.T) {
	l := leftTable(t)
	if _, err := HashJoin(l, l, "nope", InnerJoin); err == nil {
		t.Error("want error for missing key")
	}
	f := NewTable(MustSchema(Field{Name: "imsi", Type: Float64}))
	if _, err := HashJoin(f, l, "imsi", InnerJoin); err == nil {
		t.Error("want error for non-int key")
	}
	if _, err := HashJoin(l, l, "imsi", InnerJoin+1); err == nil {
		t.Error("want error for a join kind other than InnerJoin")
	}
}

// TestHashJoinCountProperty: inner-join row count equals the sum over keys
// of left-multiplicity x right-multiplicity.
func TestHashJoinCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(col string) *Table {
			tb := NewTable(MustSchema(
				Field{Name: "imsi", Type: Int64},
				Field{Name: col, Type: Float64},
			))
			n := rng.Intn(60)
			for i := 0; i < n; i++ {
				tb.AppendRow(int64(rng.Intn(8)), rng.Float64())
			}
			return tb
		}
		l, r := mk("a"), mk("b")
		out, err := HashJoin(l, r, "imsi", InnerJoin)
		if err != nil {
			return false
		}
		countOf := func(tb *Table) map[int64]int {
			m := map[int64]int{}
			for _, k := range tb.MustCol("imsi").Ints {
				m[k]++
			}
			return m
		}
		lc, rc := countOf(l), countOf(r)
		want := 0
		for k, n := range lc {
			want += n * rc[k]
		}
		return out.NumRows() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func groupInput(t *testing.T) *Table {
	t.Helper()
	tb := NewTable(MustSchema(
		Field{Name: "imsi", Type: Int64},
		Field{Name: "dur", Type: Float64},
		Field{Name: "kind", Type: Int64},
		Field{Name: "tag", Type: String},
	))
	rows := []struct {
		id   int64
		dur  float64
		kind int64
		tag  string
	}{
		{2, 5, 1, "x"}, {1, 10, 0, "a"}, {1, 20, 1, "a"}, {2, 7, 1, "y"}, {1, 30, 0, "b"},
	}
	for _, r := range rows {
		if err := tb.AppendRow(r.id, r.dur, r.kind, r.tag); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestGroupByAggregations(t *testing.T) {
	out, err := GroupBy(groupInput(t), "imsi",
		Agg{Col: "dur", Func: Sum, As: "sum"},
		Agg{Func: Count, As: "cnt"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("groups = %d, want 2", out.NumRows())
	}
	// Sorted by key: row 0 is imsi 1.
	if got := out.MustCol("imsi").Ints[0]; got != 1 {
		t.Fatalf("first group key = %d, want 1 (sorted)", got)
	}
	checks := []struct {
		col  string
		want float64
	}{
		{"sum", 60}, {"cnt", 3},
	}
	for _, c := range checks {
		if got := out.MustCol(c.col).Floats[0]; got != c.want {
			t.Errorf("%s(imsi=1) = %g, want %g", c.col, got, c.want)
		}
	}
	if got := out.MustCol("sum").Floats[1]; got != 12 {
		t.Errorf("sum(imsi=2) = %g, want 12", got)
	}
}

func TestGroupByErrors(t *testing.T) {
	in := groupInput(t)
	if _, err := GroupBy(in, "nope", Agg{Func: Count, As: "c"}); err == nil {
		t.Error("want error for unknown key")
	}
	if _, err := GroupBy(in, "dur", Agg{Func: Count, As: "c"}); err == nil {
		t.Error("want error for non-int key")
	}
	if _, err := GroupBy(in, "imsi", Agg{Col: "tag", Func: Sum, As: "s"}); err == nil {
		t.Error("want error for Sum on string")
	}
	if _, err := GroupBy(in, "imsi", Agg{Col: "dur", Func: Sum}); err == nil {
		t.Error("want error for empty output name")
	}
	if _, err := GroupBy(in, "imsi", Agg{Col: "nope", Func: Sum, As: "s"}); err == nil {
		t.Error("want error for unknown aggregation column")
	}
	if _, err := GroupBy(in, "imsi", Agg{Col: "dur", Func: Count + 1, As: "m"}); err == nil {
		t.Error("want error for an aggregation other than Sum or Count")
	}
}

// TestGroupBySumProperty: GroupBy sums match a hand-rolled map aggregation.
func TestGroupBySumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable(MustSchema(
			Field{Name: "imsi", Type: Int64},
			Field{Name: "v", Type: Float64},
		))
		manual := map[int64]float64{}
		n := rng.Intn(300)
		for i := 0; i < n; i++ {
			k := int64(rng.Intn(12))
			v := rng.NormFloat64()
			tb.AppendRow(k, v)
			manual[k] += v
		}
		out, err := GroupBy(tb, "imsi", Agg{Col: "v", Func: Sum, As: "s"})
		if err != nil {
			return false
		}
		if out.NumRows() != len(manual) {
			return false
		}
		keys := out.MustCol("imsi").Ints
		sums := out.MustCol("s").Floats
		for i, k := range keys {
			if math.Abs(sums[i]-manual[k]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSortByInt(t *testing.T) {
	tb := groupInput(t)
	sorted, err := SortByInt(tb, "imsi")
	if err != nil {
		t.Fatal(err)
	}
	ids := sorted.MustCol("imsi").Ints
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			t.Fatalf("not sorted: %v", ids)
		}
	}
	// Stability: within imsi=1 the original order 10,20,30 is preserved.
	durs := sorted.MustCol("dur").Floats
	if durs[0] != 10 || durs[1] != 20 || durs[2] != 30 {
		t.Errorf("sort not stable: %v", durs[:3])
	}
	if _, err := SortByInt(tb, "dur"); err == nil {
		t.Error("want error sorting by non-int column")
	}
}
