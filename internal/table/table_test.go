package table

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		Field{Name: "imsi", Type: Int64},
		Field{Name: "dur", Type: Float64},
		Field{Name: "text", Type: String},
	)
}

func TestNewSchemaRejectsDuplicates(t *testing.T) {
	_, err := NewSchema(Field{Name: "a", Type: Int64}, Field{Name: "a", Type: Float64})
	if err == nil {
		t.Fatal("want error for duplicate column name")
	}
}

func TestNewSchemaRejectsEmptyName(t *testing.T) {
	_, err := NewSchema(Field{Name: "", Type: Int64})
	if err == nil {
		t.Fatal("want error for empty column name")
	}
}

func TestSchemaIndexAndNames(t *testing.T) {
	s := testSchema(t)
	if got := s.Index("dur"); got != 1 {
		t.Errorf("Index(dur) = %d, want 1", got)
	}
	if got := s.Index("nope"); got != -1 {
		t.Errorf("Index(nope) = %d, want -1", got)
	}
	if !s.Has("imsi") || s.Has("nope") {
		t.Error("Has misreports membership")
	}
	want := []string{"imsi", "dur", "text"}
	for i, f := range s.Fields {
		if f.Name != want[i] {
			t.Errorf("Fields[%d].Name = %q, want %q", i, f.Name, want[i])
		}
	}
}

func TestSchemaEqualAndString(t *testing.T) {
	a := testSchema(t)
	b := testSchema(t)
	if !a.Equal(b) {
		t.Error("identical schemas not Equal")
	}
	c := MustSchema(Field{Name: "imsi", Type: Int64})
	if a.Equal(c) {
		t.Error("different schemas reported Equal")
	}
	if !strings.Contains(a.String(), "dur DOUBLE") {
		t.Errorf("String() = %q missing dur DOUBLE", a.String())
	}
}

func TestAppendRowAndAccessors(t *testing.T) {
	tb := NewTable(testSchema(t))
	if err := tb.AppendRow(int64(7), 1.5, "hi"); err != nil {
		t.Fatalf("AppendRow: %v", err)
	}
	if err := tb.AppendRow(8, 2, "yo"); err != nil { // int and int->float coercion
		t.Fatalf("AppendRow with coercion: %v", err)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", tb.NumRows())
	}
	if got := tb.MustCol("imsi").Ints[1]; got != 8 {
		t.Errorf("imsi[1] = %d, want 8", got)
	}
	if got := tb.MustCol("dur").Floats[1]; got != 2 {
		t.Errorf("dur[1] = %g, want 2", got)
	}
	if got := tb.MustCol("text").Strings[0]; got != "hi" {
		t.Errorf("text[0] = %q", got)
	}
	if err := tb.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	row := tb.Row(0)
	if row[0].(int64) != 7 || row[1].(float64) != 1.5 || row[2].(string) != "hi" {
		t.Errorf("Row(0) = %v", row)
	}
}

func TestAppendRowTypeErrors(t *testing.T) {
	tb := NewTable(testSchema(t))
	if err := tb.AppendRow("bad", 1.0, "x"); err == nil {
		t.Error("want error for string into Int64 column")
	}
	if err := tb.AppendRow(int64(1), "bad", "x"); err == nil {
		t.Error("want error for string into Float64 column")
	}
	if err := tb.AppendRow(int64(1), 1.0, 5); err == nil {
		t.Error("want error for int into String column")
	}
	if err := tb.AppendRow(int64(1)); err == nil {
		t.Error("want error for arity mismatch")
	}
}

func TestColumnFloatCoercion(t *testing.T) {
	c := &Column{Type: Int64}
	c.Ints = append(c.Ints, 42)
	if got := c.Float(0); got != 42 {
		t.Errorf("Float on Int64 = %g", got)
	}
}

// Float on a String column used to return a silent NaN that poisoned every
// downstream aggregate; misuse must be loud and name the column.
func TestColumnFloatOnStringPanics(t *testing.T) {
	tb := NewTable(MustSchema(Field{Name: "text", Type: String}))
	tb.AppendRow("x")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Float on String column did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, `"text"`) {
			t.Errorf("panic message %q does not name the column", msg)
		}
	}()
	tb.MustCol("text").Float(0)
}

func fillCalls(t *testing.T) *Table {
	t.Helper()
	tb := NewTable(testSchema(t))
	rows := []struct {
		id   int64
		dur  float64
		text string
	}{
		{1, 10, "a"}, {2, 20, "b"}, {1, 30, "c"}, {3, 40, "d"}, {2, 50, "e"},
	}
	for _, r := range rows {
		if err := tb.AppendRow(r.id, r.dur, r.text); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestFilterAndTake(t *testing.T) {
	tb := fillCalls(t)
	ids := tb.MustCol("imsi").Ints
	got := tb.Filter(func(i int) bool { return ids[i] == 1 })
	if got.NumRows() != 2 {
		t.Fatalf("Filter rows = %d, want 2", got.NumRows())
	}
	if got.MustCol("dur").Floats[1] != 30 {
		t.Errorf("filtered dur[1] = %g, want 30", got.MustCol("dur").Floats[1])
	}
	taken := tb.Take([]int{4, 0})
	if taken.NumRows() != 2 || taken.MustCol("dur").Floats[0] != 50 {
		t.Errorf("Take order wrong: %v", taken.MustCol("dur").Floats)
	}
}

func TestAppendTableSchemaMismatch(t *testing.T) {
	a := fillCalls(t)
	b := NewTable(MustSchema(Field{Name: "x", Type: Int64}))
	if err := a.AppendTable(b); err == nil {
		t.Error("want error appending mismatched schema")
	}
	c := fillCalls(t)
	if err := a.AppendTable(c); err != nil {
		t.Fatalf("AppendTable: %v", err)
	}
	if a.NumRows() != 10 {
		t.Errorf("rows after append = %d, want 10", a.NumRows())
	}
}

// TestConcat: the parts' rows in part order, every column allocated at
// exactly the summed row count, an empty part contributing nothing, one
// part handed back as it is, and a part of another schema or no parts at
// all rejected.
func TestConcat(t *testing.T) {
	a, b := fillCalls(t), fillCalls(t)
	b.MustCol("imsi").Ints[0] = 9
	empty := NewTable(a.Schema)
	got, err := Concat([]*Table{a, empty, b})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 10 {
		t.Fatalf("rows = %d, want 10", got.NumRows())
	}
	want := fillCalls(t)
	if err := want.AppendTable(b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !reflect.DeepEqual(got.Row(i), want.Row(i)) {
			t.Errorf("row %d = %v, want %v", i, got.Row(i), want.Row(i))
		}
	}
	for _, c := range got.Cols {
		if l, cp := c.Len(), max(cap(c.Ints), cap(c.Floats), cap(c.Strings)); cp != l {
			t.Errorf("column %q: cap %d, len %d", c.Name, cp, l)
		}
	}
	if one, err := Concat([]*Table{a}); err != nil || one != a {
		t.Errorf("Concat of one part = %p, %v; want the part itself", one, err)
	}
	other := NewTable(MustSchema(Field{Name: "x", Type: Int64}))
	if _, err := Concat([]*Table{a, other}); err == nil || !strings.Contains(err.Error(), "schema mismatch") {
		t.Errorf("mismatched schema: err = %v, want a schema mismatch", err)
	}
	if _, err := Concat(nil); err == nil {
		t.Error("Concat of no parts: want an error")
	}
}

// TestClipIsolatesGrowth: a clip shares the rows it was cut at, and appends
// on either side stay invisible to the other, even with spare capacity.
func TestClipIsolatesGrowth(t *testing.T) {
	tb := fillCalls(t)
	// Spare capacity in every column, which the clip must not write into.
	tb.MustCol("imsi").Ints = slices.Grow(tb.MustCol("imsi").Ints, 10)
	tb.MustCol("dur").Floats = slices.Grow(tb.MustCol("dur").Floats, 10)
	tb.MustCol("text").Strings = slices.Grow(tb.MustCol("text").Strings, 10)
	clip := tb.Clip()
	if clip.NumRows() != 5 || &clip.MustCol("dur").Floats[0] != &tb.MustCol("dur").Floats[0] {
		t.Fatal("clip copied or dropped rows")
	}
	if err := tb.AppendTable(fillCalls(t)); err != nil {
		t.Fatal(err)
	}
	if err := clip.AppendRow(int64(9), 90.0, "z"); err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 10 || clip.NumRows() != 6 {
		t.Fatalf("rows = %d / %d, want 10 / 6", tb.NumRows(), clip.NumRows())
	}
	if got := tb.MustCol("dur").Floats[5]; got != 10 {
		t.Errorf("the clip's append reached the source: dur[5] = %g, want 10", got)
	}
}

// TestFilterPartitionProperty: filter(p) rows + filter(!p) rows == all rows,
// preserving per-key multiplicity.
func TestFilterPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable(MustSchema(Field{Name: "imsi", Type: Int64}, Field{Name: "v", Type: Float64}))
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			tb.AppendRow(int64(rng.Intn(10)), rng.Float64())
		}
		vals := tb.MustCol("v").Floats
		pred := func(i int) bool { return vals[i] < 0.5 }
		yes := tb.Filter(pred)
		no := tb.Filter(func(i int) bool { return !pred(i) })
		return yes.NumRows()+no.NumRows() == tb.NumRows()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestFloatOnStringPanics: Float on a STRING column is a programming error
// and panics naming the column.
func TestFloatOnStringPanics(t *testing.T) {
	c := &Column{Name: "handset", Type: String, Strings: []string{"x"}}
	defer func() {
		if r := recover(); r != `table: Float on STRING column "handset"` {
			t.Errorf("panic = %v", r)
		}
	}()
	c.Float(0)
}
