package table

import (
	"errors"
	"fmt"
	"slices"
)

// Column is a typed dense column vector. Exactly one of the three slices is
// non-nil, matching the column's declared type. Name is the schema field
// name the column was created under (diagnostics only; the schema stays the
// source of truth for lookups).
type Column struct {
	Name    string
	Type    ColType
	Ints    []int64
	Floats  []float64
	Strings []string
}

// Len returns the number of values in the column.
func (c *Column) Len() int {
	switch c.Type {
	case Int64:
		return len(c.Ints)
	case Float64:
		return len(c.Floats)
	default:
		return len(c.Strings)
	}
}

// Float returns row i of the column coerced to float64 (Int64 columns are
// converted). Calling it on a String column is a programming error — it used
// to return a silent NaN that poisoned downstream aggregates — so it panics,
// naming the column.
func (c *Column) Float(i int) float64 {
	switch c.Type {
	case Int64:
		return float64(c.Ints[i])
	case Float64:
		return c.Floats[i]
	default:
		c.floatOnString()
		return 0
	}
}

// floatOnString is Float's panic, kept out of line so Float stays
// inlinable.
//
//go:noinline
func (c *Column) floatOnString() {
	panic(fmt.Sprintf("table: Float on STRING column %q", c.Name))
}

// Table is a columnar table: a schema plus one column vector per field, all
// of equal length.
type Table struct {
	Schema *Schema
	Cols   []*Column
}

// NewTable returns an empty table with the given schema.
func NewTable(s *Schema) *Table {
	t := &Table{Schema: s, Cols: make([]*Column, s.Len())}
	for i, f := range s.Fields {
		t.Cols[i] = &Column{Name: f.Name, Type: f.Type}
	}
	return t
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// Col returns the named column, or nil if absent.
func (t *Table) Col(name string) *Column {
	i := t.Schema.Index(name)
	if i < 0 {
		return nil
	}
	return t.Cols[i]
}

// MustCol returns the named column, panicking if absent. Use for statically
// known pipeline columns where absence is a programming error.
func (t *Table) MustCol(name string) *Column {
	c := t.Col(name)
	if c == nil {
		panic(fmt.Sprintf("table: no column %q in schema %s", name, t.Schema))
	}
	return c
}

// RowAppender appends one row to a table value by value, in schema order,
// without boxing a value into an interface:
//
//	t.Append().Int(id).Float(dur).String(text).Done()
//
// Each call checks that its column has the value's type, and Done checks
// that the row is complete. A wrong type, a short row or a long row is a
// programming error and panics naming the column, as MustCol does; the
// columns are then left unequal, which Validate reports.
type RowAppender struct {
	t *Table
	i int // next column
}

// Append starts a row.
func (t *Table) Append() RowAppender { return RowAppender{t: t} }

// Int appends v to the next column, which must be Int64.
func (r RowAppender) Int(v int64) RowAppender {
	c := r.next(Int64)
	c.Ints = append(c.Ints, v)
	r.i++
	return r
}

// Float appends v to the next column, which must be Float64.
func (r RowAppender) Float(v float64) RowAppender {
	c := r.next(Float64)
	c.Floats = append(c.Floats, v)
	r.i++
	return r
}

// String appends v to the next column, which must be String.
func (r RowAppender) String(v string) RowAppender {
	c := r.next(String)
	c.Strings = append(c.Strings, v)
	r.i++
	return r
}

// Done ends the row; every column must have received its value.
func (r RowAppender) Done() {
	if r.i != len(r.t.Cols) {
		panic(r.t.rowLenError(r.i).Error())
	}
}

// next returns the column the next value goes to, which must have type typ.
func (r RowAppender) next(typ ColType) *Column {
	if r.i < len(r.t.Cols) && r.t.Cols[r.i].Type == typ {
		return r.t.Cols[r.i]
	}
	if r.i >= len(r.t.Cols) {
		panic(r.t.rowLenError(r.i + 1).Error())
	}
	panic(r.t.typeError(r.i, goTypes[typ]).Error())
}

// goTypes names the Go type each column type stores.
var goTypes = [...]string{Int64: "int64", Float64: "float64", String: "string"}

// rowLenError describes a row of n values, n not the column count.
func (t *Table) rowLenError(n int) error {
	if n < len(t.Cols) {
		return fmt.Errorf("table: row has %d values, schema has %d columns: no value for column %q", n, len(t.Cols), t.Cols[n].Name)
	}
	last := ""
	if len(t.Cols) > 0 {
		last = t.Cols[len(t.Cols)-1].Name
	}
	return fmt.Errorf("table: row has %d values, schema has %d columns: a value past the last column %q", n, len(t.Cols), last)
}

// typeError describes a value of Go type got offered to column i.
func (t *Table) typeError(i int, got string) error {
	return fmt.Errorf("table: column %q wants %s, got %s", t.Cols[i].Name, goTypes[t.Cols[i].Type], got)
}

// AppendRow appends one row given values in schema order, through the
// typed appender and with its checks, as an error instead of a panic. Each
// value must be int64, float64 or string matching the column type; int
// values are accepted for Int64 columns, int and int64 values for Float64
// columns. A rejected row leaves the table unchanged. It boxes every value,
// so the pipeline appends through Append; this is the tests' convenience.
func (t *Table) AppendRow(values ...any) error {
	if len(values) != len(t.Cols) {
		return t.rowLenError(len(values))
	}
	for i, v := range values {
		ok := false
		switch v.(type) {
		case int, int64:
			ok = t.Cols[i].Type != String
		case float64:
			ok = t.Cols[i].Type == Float64
		case string:
			ok = t.Cols[i].Type == String
		}
		if !ok {
			return t.typeError(i, fmt.Sprintf("%T", v))
		}
	}
	r := t.Append()
	for _, v := range values {
		switch x := v.(type) {
		case int:
			r = r.number(int64(x))
		case int64:
			r = r.number(x)
		case float64:
			r = r.Float(x)
		case string:
			r = r.String(x)
		}
	}
	r.Done()
	return nil
}

// number appends an integer to the next column, converted for a Float64
// column.
func (r RowAppender) number(v int64) RowAppender {
	if r.i < len(r.t.Cols) && r.t.Cols[r.i].Type == Float64 {
		return r.Float(float64(v))
	}
	return r.Int(v)
}

// Grow makes room for n more rows in every column, so the next n rows
// append without reallocating.
func (t *Table) Grow(n int) {
	for _, c := range t.Cols {
		switch c.Type {
		case Int64:
			c.Ints = slices.Grow(c.Ints, n)
		case Float64:
			c.Floats = slices.Grow(c.Floats, n)
		default:
			c.Strings = slices.Grow(c.Strings, n)
		}
	}
}

// Validate checks that all columns have equal length and types matching the
// schema.
func (t *Table) Validate() error {
	n := t.NumRows()
	for i, c := range t.Cols {
		if c.Type != t.Schema.Fields[i].Type {
			return fmt.Errorf("table: column %q type %v does not match schema %v",
				t.Schema.Fields[i].Name, c.Type, t.Schema.Fields[i].Type)
		}
		if c.Len() != n {
			return fmt.Errorf("table: column %q has %d rows, want %d", t.Schema.Fields[i].Name, c.Len(), n)
		}
	}
	return nil
}

// Row materializes row i as a slice of any (for debugging and tests; the
// pipeline itself works columnar).
func (t *Table) Row(i int) []any {
	row := make([]any, len(t.Cols))
	for c, col := range t.Cols {
		switch col.Type {
		case Int64:
			row[c] = col.Ints[i]
		case Float64:
			row[c] = col.Floats[i]
		default:
			row[c] = col.Strings[i]
		}
	}
	return row
}

// Filter returns a new table containing the rows for which keep returns
// true. keep receives the row index, is evaluated exactly once per row, and
// reads values through the table's columns. The kept row indices are
// collected first, then every column is produced by one typed bulk gather
// into an exactly-sized array.
func (t *Table) Filter(keep func(row int) bool) *Table {
	n := t.NumRows()
	var idx []int32
	for i := 0; i < n; i++ {
		if keep(i) {
			idx = append(idx, int32(i))
		}
	}
	return takeRows(t, idx)
}

// Take returns a new table with the rows at the given indices, in order,
// copying each column with one typed bulk gather.
func (t *Table) Take(indices []int) *Table {
	return takeRows(t, indices)
}

// takeRows gathers the given rows of every column into a fresh table.
func takeRows[I rowIndex](t *Table, idx []I) *Table {
	out := NewTable(t.Schema)
	for c, col := range t.Cols {
		gatherInto(out.Cols[c], col, idx)
	}
	return out
}

// AppendTable appends all rows of src, whose schema must equal t's, with one
// typed bulk copy per column. It grows t's columns, so it suits a table
// that keeps taking rows (the event log, the maintained serving month); a
// table assembled from parts known up front is Concat's.
func (t *Table) AppendTable(src *Table) error {
	if err := appendable(t.Schema, src.Schema); err != nil {
		return err
	}
	for c, dst := range t.Cols {
		s := src.Cols[c]
		switch dst.Type {
		case Int64:
			dst.Ints = append(dst.Ints, s.Ints...)
		case Float64:
			dst.Floats = append(dst.Floats, s.Floats...)
		default:
			dst.Strings = append(dst.Strings, s.Strings...)
		}
	}
	return nil
}

// appendable is the schema check of every join: the rows of a table with
// schema src may follow the rows of one with schema dst.
func appendable(dst, src *Schema) error {
	if !dst.Equal(src) {
		return fmt.Errorf("table: append schema mismatch: %s vs %s", dst, src)
	}
	return nil
}

// Concat joins parts into one table, their rows in order. Every part's
// schema must equal the first's, as AppendTable requires. Each column of
// the result is allocated once, at the summed row count (cap == len), and
// filled with one typed copy per part, so a join of n parts moves every
// row once instead of regrowing the first part n-1 times. One part is
// returned as it is, sharing its storage; no parts is an error.
func Concat(parts []*Table) (*Table, error) {
	if len(parts) == 0 {
		return nil, errors.New("table: concat of no tables")
	}
	first := parts[0]
	if len(parts) == 1 {
		return first, nil
	}
	n := 0
	for _, p := range parts {
		if err := appendable(first.Schema, p.Schema); err != nil {
			return nil, err
		}
		n += p.NumRows()
	}
	out := NewTable(first.Schema)
	for c, col := range out.Cols {
		switch col.Type {
		case Int64:
			col.Ints = concatColumn(parts, c, n, func(c *Column) []int64 { return c.Ints })
		case Float64:
			col.Floats = concatColumn(parts, c, n, func(c *Column) []float64 { return c.Floats })
		default:
			col.Strings = concatColumn(parts, c, n, func(c *Column) []string { return c.Strings })
		}
	}
	return out, nil
}

// concatColumn copies column c of every part into one slice of n values.
func concatColumn[T any](parts []*Table, c, n int, values func(*Column) []T) []T {
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, values(p.Cols[c])...)
	}
	return out
}

// Clip returns a table holding t's current rows without copying them: every
// column is cut to [:n:n]. An append to the clip reallocates instead of
// writing into t's memory, and t's own appends land past the clip's end, so
// neither table ever sees the other grow.
func (t *Table) Clip() *Table {
	out := &Table{Schema: t.Schema, Cols: make([]*Column, len(t.Cols))}
	for i, c := range t.Cols {
		out.Cols[i] = &Column{Name: c.Name, Type: c.Type,
			Ints: slices.Clip(c.Ints), Floats: slices.Clip(c.Floats), Strings: slices.Clip(c.Strings)}
	}
	return out
}

// rowIndex is the index element type accepted by the gather kernels.
type rowIndex interface{ ~int | ~int32 }

// gatherSlice bulk-copies src values at the given row indices into a fresh
// exactly-sized slice.
func gatherSlice[T any, I rowIndex](src []T, idx []I) []T {
	out := make([]T, len(idx))
	for j, r := range idx {
		out[j] = src[r]
	}
	return out
}

// gatherInto fills dst (same type as src) with one typed bulk gather.
func gatherInto[I rowIndex](dst, src *Column, idx []I) {
	switch src.Type {
	case Int64:
		dst.Ints = gatherSlice(src.Ints, idx)
	case Float64:
		dst.Floats = gatherSlice(src.Floats, idx)
	default:
		dst.Strings = gatherSlice(src.Strings, idx)
	}
}
