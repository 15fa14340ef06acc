// Package table is the columnar container every layer shares: the
// simulator emits tables, the warehouse stores and reads them, the event
// log appends them and the feature folds scan them. Each column is a dense
// typed vector, which keeps the folds cache-friendly and makes the store
// package's binary layout a straight copy of column data.
//
// The paper's Spark SQL joins and monthly aggregations (Section 4.1) are
// realised in the features package, as one fold per raw table and a
// grouping graph fold, not as relational operators here. GroupBy, HashJoin
// and SortByInt remain only for the repository benchmark (see AggFunc).
package table

import (
	"fmt"
	"strings"
)

// ColType enumerates the supported column types.
type ColType int

const (
	// Int64 is a 64-bit signed integer column (IDs, counts, flags).
	Int64 ColType = iota
	// Float64 is a 64-bit float column (durations, rates, amounts).
	Float64
	// String is a UTF-8 string column (text, categorical codes).
	String
)

// String returns the SQL-ish name of the type.
func (t ColType) String() string {
	switch t {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case String:
		return "STRING"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// Field describes one column: a name and a type.
type Field struct {
	Name string
	Type ColType
}

// Schema is an ordered list of fields.
type Schema struct {
	Fields []Field
	index  map[string]int
}

// NewSchema builds a schema from fields, validating that names are unique
// and non-empty.
func NewSchema(fields ...Field) (*Schema, error) {
	s := &Schema{Fields: fields, index: make(map[string]int, len(fields))}
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("table: schema field %d has empty name", i)
		}
		if _, dup := s.index[f.Name]; dup {
			return nil, fmt.Errorf("table: duplicate column %q", f.Name)
		}
		s.index[f.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for statically known schemas.
func MustSchema(fields ...Field) *Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// Index returns the position of the named column, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Has reports whether the schema contains the named column.
func (s *Schema) Has(name string) bool { return s.Index(name) >= 0 }

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Fields) }

// Names returns the column names in order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		names[i] = f.Name
	}
	return names
}

// Equal reports whether two schemas have identical fields in order.
func (s *Schema) Equal(o *Schema) bool {
	if s.Len() != o.Len() {
		return false
	}
	for i := range s.Fields {
		if s.Fields[i] != o.Fields[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "(name TYPE, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", f.Name, f.Type)
	}
	b.WriteByte(')')
	return b.String()
}
