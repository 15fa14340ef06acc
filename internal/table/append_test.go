package table

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// mustPanic runs fn and returns its panic message, failing the test if fn
// returns normally.
func mustPanic(t *testing.T, what string, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		msg = fmt.Sprint(r)
	}()
	fn()
	return ""
}

// TestRowAppenderRejectsMisfitRows: a value of the wrong type, a row one
// value short and a row one value long each panic naming the column, and
// AppendRow rejects the same rows with the same text and leaves the table
// unchanged.
func TestRowAppenderRejectsMisfitRows(t *testing.T) {
	for _, tc := range []struct {
		name   string
		append func(*Table)
		row    []any
		column string
	}{
		{"wrong type", func(tb *Table) { tb.Append().Int(7).Int(2).String("x").Done() }, []any{int64(7), "2", "x"}, `"dur"`},
		{"short row", func(tb *Table) { tb.Append().Int(7).Float(1.5).Done() }, []any{int64(7), 1.5}, `"text"`},
		{"long row", func(tb *Table) { tb.Append().Int(7).Float(1.5).String("x").Int(9).Done() }, []any{int64(7), 1.5, "x", int64(9)}, `"text"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			msg := mustPanic(t, tc.name, func() { tc.append(NewTable(testSchema(t))) })
			if !strings.Contains(msg, tc.column) {
				t.Errorf("panic %q does not name column %s", msg, tc.column)
			}
			tb := NewTable(testSchema(t))
			err := tb.AppendRow(tc.row...)
			if err == nil || !strings.Contains(err.Error(), tc.column) {
				t.Fatalf("AppendRow(%v) = %v, want an error naming %s", tc.row, err, tc.column)
			}
			if tc.name != "wrong type" && err.Error() != msg {
				t.Errorf("AppendRow error %q, appender panic %q: want one text", err, msg)
			}
			if tb.NumRows() != 0 || tb.Validate() != nil {
				t.Errorf("a rejected row left %d rows (%v)", tb.NumRows(), tb.Validate())
			}
		})
	}
}

// TestRowAppenderMatchesAppendRow: rows built through the typed appender
// equal the same rows through AppendRow, in every column.
func TestRowAppenderMatchesAppendRow(t *testing.T) {
	s := MustSchema(
		Field{Name: "imsi", Type: Int64},
		Field{Name: "dur", Type: Float64},
		Field{Name: "text", Type: String},
		Field{Name: "n", Type: Int64},
		Field{Name: "rate", Type: Float64},
	)
	typed, boxed := NewTable(s), NewTable(s)
	typed.Grow(10)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		id, dur, text, n, rate := rng.Int63(), rng.NormFloat64(), fmt.Sprint(rng.Intn(50)), rng.Int63n(9), rng.Float64()
		typed.Append().Int(id).Float(dur).String(text).Int(n).Float(rate).Done()
		if err := boxed.AppendRow(id, dur, text, n, rate); err != nil {
			t.Fatal(err)
		}
	}
	if err := typed.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(typed.Cols, boxed.Cols) {
		t.Error("typed appends and AppendRow built different tables")
	}
}
