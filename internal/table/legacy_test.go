package table

// The row-at-a-time operators the columnar kernels replaced, retained as
// test reference implementations (the internal/tree legacy_test.go
// pattern): equality and property tests assert Filter, Take, GroupBy and
// HashJoin match them cell for cell on arbitrary tables.

import (
	"fmt"
	"sort"
)

// appendFrom appends value at row i of src (same type) onto c.
func (c *Column) appendFrom(src *Column, i int) {
	switch c.Type {
	case Int64:
		c.Ints = append(c.Ints, src.Ints[i])
	case Float64:
		c.Floats = append(c.Floats, src.Floats[i])
	default:
		c.Strings = append(c.Strings, src.Strings[i])
	}
}

// appendRowFrom appends row i of src (same schema) to t.
func (t *Table) appendRowFrom(src *Table, i int) {
	for c := range t.Cols {
		t.Cols[c].appendFrom(src.Cols[c], i)
	}
}

// legacyFilter is the old row-at-a-time Table.Filter.
func legacyFilter(t *Table, keep func(row int) bool) *Table {
	out := NewTable(t.Schema)
	n := t.NumRows()
	for i := 0; i < n; i++ {
		if keep(i) {
			out.appendRowFrom(t, i)
		}
	}
	return out
}

// legacyTake is the old row-at-a-time Table.Take.
func legacyTake(t *Table, indices []int) *Table {
	out := NewTable(t.Schema)
	for _, i := range indices {
		out.appendRowFrom(t, i)
	}
	return out
}

// legacyGroupBy is the old bucket-map group-by: row indices bucketed into
// map[int64][]int, keys sorted, then per-group per-value aggregation.
func legacyGroupBy(t *Table, key string, aggs ...Agg) (*Table, error) {
	ki := t.Schema.Index(key)
	if ki < 0 {
		return nil, fmt.Errorf("table: group-by unknown key %q", key)
	}
	if t.Schema.Fields[ki].Type != Int64 {
		return nil, fmt.Errorf("table: group-by key %q must be BIGINT", key)
	}

	refs := make([]*Column, len(aggs))
	fields := []Field{{Name: key, Type: Int64}}
	for i, a := range aggs {
		if a.As == "" {
			return nil, fmt.Errorf("table: aggregation %d has empty output name", i)
		}
		switch a.Func {
		case Count:
		case Sum:
			ci := t.Schema.Index(a.Col)
			if ci < 0 {
				return nil, fmt.Errorf("table: aggregation on unknown column %q", a.Col)
			}
			if t.Cols[ci].Type == String {
				return nil, fmt.Errorf("table: sum on string column %q", a.Col)
			}
			refs[i] = t.Cols[ci]
		default:
			return nil, fmt.Errorf("table: unsupported aggregation %d", int(a.Func))
		}
		fields = append(fields, Field{Name: a.As, Type: Float64})
	}
	schema, err := NewSchema(fields...)
	if err != nil {
		return nil, err
	}

	keys := t.Cols[ki].Ints
	groups := make(map[int64][]int)
	order := make([]int64, 0)
	for i, k := range keys {
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	out := NewTable(schema)
	for _, k := range order {
		rows := groups[k]
		out.Cols[0].Ints = append(out.Cols[0].Ints, k)
		for ai, a := range aggs {
			dst := out.Cols[ai+1]
			src := refs[ai]
			if a.Func == Count {
				dst.Floats = append(dst.Floats, float64(len(rows)))
				continue
			}
			s := 0.0
			for _, r := range rows {
				s += src.Float(r)
			}
			dst.Floats = append(dst.Floats, s)
		}
	}
	return out, nil
}

// legacyHashJoin is the old per-cell append inner join.
func legacyHashJoin(left, right *Table, key string) (*Table, error) {
	lk := left.Schema.Index(key)
	rk := right.Schema.Index(key)
	if lk < 0 || rk < 0 {
		return nil, fmt.Errorf("table: join key %q missing (left=%v right=%v)", key, lk >= 0, rk >= 0)
	}
	if left.Schema.Fields[lk].Type != Int64 || right.Schema.Fields[rk].Type != Int64 {
		return nil, fmt.Errorf("table: join key %q must be BIGINT on both sides", key)
	}

	fields := append([]Field(nil), left.Schema.Fields...)
	rightOut := make([]int, 0, right.Schema.Len()-1)
	for i, f := range right.Schema.Fields {
		if i == rk {
			continue
		}
		name := f.Name
		if left.Schema.Has(name) {
			name += "_r"
		}
		fields = append(fields, Field{Name: name, Type: f.Type})
		rightOut = append(rightOut, i)
	}
	schema, err := NewSchema(fields...)
	if err != nil {
		return nil, err
	}
	out := NewTable(schema)

	rightKeys := right.Cols[rk].Ints
	index := make(map[int64][]int, len(rightKeys))
	for i, k := range rightKeys {
		index[k] = append(index[k], i)
	}

	leftKeys := left.Cols[lk].Ints
	nl := left.Schema.Len()
	for i, k := range leftKeys {
		matches := index[k]
		for _, m := range matches {
			for c := 0; c < nl; c++ {
				out.Cols[c].appendFrom(left.Cols[c], i)
			}
			for j, rc := range rightOut {
				out.Cols[nl+j].appendFrom(right.Cols[rc], m)
			}
		}
	}
	return out, nil
}
