package table

import (
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

// AppendInt appends an int64 value; the column must be Int64.
func (c *Column) AppendInt(v int64) { c.Ints = append(c.Ints, v) }

// AppendFloat appends a float64 value; the column must be Float64.
func (c *Column) AppendFloat(v float64) { c.Floats = append(c.Floats, v) }

// AppendString appends a string value; the column must be String.
func (c *Column) AppendString(v string) { c.Strings = append(c.Strings, v) }

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
		panic(fmt.Sprintf("table: Float on STRING column %q", c.Name))
	}
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

// AppendRow appends one row given values in schema order. Each value must be
// int64, float64 or string matching the column type; int values are accepted
// for Int64 columns and converted.
func (t *Table) AppendRow(values ...any) error {
	if len(values) != t.Schema.Len() {
		return fmt.Errorf("table: AppendRow got %d values, schema has %d columns", len(values), t.Schema.Len())
	}
	for i, v := range values {
		col := t.Cols[i]
		switch col.Type {
		case Int64:
			switch x := v.(type) {
			case int64:
				col.AppendInt(x)
			case int:
				col.AppendInt(int64(x))
			default:
				return fmt.Errorf("table: column %q wants int64, got %T", t.Schema.Fields[i].Name, v)
			}
		case Float64:
			switch x := v.(type) {
			case float64:
				col.AppendFloat(x)
			case int:
				col.AppendFloat(float64(x))
			case int64:
				col.AppendFloat(float64(x))
			default:
				return fmt.Errorf("table: column %q wants float64, got %T", t.Schema.Fields[i].Name, v)
			}
		case String:
			x, ok := v.(string)
			if !ok {
				return fmt.Errorf("table: column %q wants string, got %T", t.Schema.Fields[i].Name, v)
			}
			col.AppendString(x)
		}
	}
	return nil
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
// typed bulk copy per column.
func (t *Table) AppendTable(src *Table) error {
	if !t.Schema.Equal(src.Schema) {
		return fmt.Errorf("table: append schema mismatch: %s vs %s", t.Schema, src.Schema)
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
