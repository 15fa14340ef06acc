package serve

import (
	"strconv"

	"telcochurn/internal/features"
	"telcochurn/internal/table"
)

// DecodeEventTables is churnd's fast path from a POST /v1/events body to
// the tables BuildEventTables assembles. It recognizes the shape
// json.Marshal writes for an EventBatch —
// {"events":[{"table":…,"imsi":…,"month":…,"day":…,"fields":{…}},…]},
// keys in that order, "fields" optional and its keys in any order, JSON
// whitespace between tokens — and appends every value straight into the
// typed table of its raw table, parsing a number with the strconv call
// coerce applies to a json.Number, so each value holds the bits the
// EventBatch path gives it. events is the batch's event count.
//
// ok is false for every body it does not fully accept: an escaped,
// upper-case, repeated, missing or unknown key, a key out of order, a
// null, boolean or nested value, a string with an escape or invalid UTF-8,
// a value BuildEventTables would refuse, an empty batch, or anything after
// the closing brace. Such a body goes unchanged to the EventBatch +
// BuildEventTables path, which stays the source of every error text.
func DecodeEventTables(body []byte) (tables map[string]*table.Table, events int, ok bool) {
	d := eventDecoder{Scanner: NewScanner(body)}
	if !d.Lit("{") || !d.Key("events") || !d.Lit("[") {
		return nil, 0, false
	}
	tables = map[string]*table.Table{}
	for {
		if !d.event(tables) {
			return nil, 0, false
		}
		events++
		if !d.Lit(",") {
			break
		}
	}
	if !d.Lit("]") || !d.Lit("}") || !d.End() {
		return nil, 0, false
	}
	return tables, events, true
}

// eventDecoder walks one body for DecodeEventTables. vals stages one
// record's fields by schema column, so they can be appended in schema
// order whatever order the body gives them in.
type eventDecoder struct {
	Scanner
	vals []token
}

// token is one field value's bytes: a JSON number, or a string's content
// without its quotes. kind is 0 for a column the record did not give.
type token struct {
	v    []byte
	kind byte // 'n' number, 's' string
}

// event consumes one record and appends it as a row of its table.
func (d *eventDecoder) event(tables map[string]*table.Table) bool {
	if !d.Lit("{") || !d.Key("table") {
		return false
	}
	name, ok := d.Str()
	if !ok {
		return false
	}
	var t *table.Table
	for _, s := range features.StreamableTables {
		if string(name) == s {
			if t = tables[s]; t == nil {
				schema, _ := features.RawSchema(s)
				t = table.NewTable(schema)
				tables[s] = t
			}
			break
		}
	}
	if t == nil {
		return false
	}
	schema := t.Schema
	var first [3]int64 // imsi, month, day
	for k, key := range [...]string{"imsi", "month", "day"} {
		if !d.Lit(",") || !d.Key(key) {
			return false
		}
		v, ok := d.Int()
		if !ok || v <= 0 {
			return false
		}
		first[k] = v
	}
	vals := append(d.vals[:0], make([]token, schema.Len())...)
	d.vals = vals
	if d.Lit(",") && !d.fields(schema, vals) {
		return false
	}
	if !d.Lit("}") {
		return false
	}
	r := t.Append()
	for j, f := range schema.Fields {
		v := vals[j]
		switch {
		case f.Name == "imsi":
			r = r.Int(first[0])
		case f.Name == "month":
			r = r.Int(first[1])
		case f.Name == "day":
			r = r.Int(first[2])
		case v.kind == 0 && f.Type == table.Int64:
			r = r.Int(0)
		case v.kind == 0 && f.Type == table.Float64:
			r = r.Float(0)
		case v.kind == 0:
			r = r.String("")
		case v.kind == 's' && f.Type == table.String:
			r = r.String(string(v.v))
		case v.kind == 'n' && f.Type == table.Int64:
			n, err := strconv.ParseInt(string(v.v), 10, 64)
			if err != nil {
				return false
			}
			r = r.Int(n)
		case v.kind == 'n' && f.Type == table.Float64:
			x, err := strconv.ParseFloat(string(v.v), 64)
			if err != nil {
				return false
			}
			r = r.Float(x)
		default:
			return false
		}
	}
	r.Done()
	return true
}

// fields consumes `"fields":{…}` into vals, by schema column. A key the
// schema lacks, a first-class key, a repeated key and a value that is
// neither a number nor a string are refused.
func (d *eventDecoder) fields(schema *table.Schema, vals []token) bool {
	if !d.Key("fields") || !d.Lit("{") {
		return false
	}
	if d.Lit("}") {
		return true
	}
	for {
		name, ok := d.Str()
		if !ok || !d.Lit(":") {
			return false
		}
		j := -1
		for k, f := range schema.Fields {
			if string(name) == f.Name {
				j = k
				break
			}
		}
		if j < 0 || firstClass(schema.Fields[j].Name) || vals[j].kind != 0 {
			return false
		}
		if vals[j], ok = d.value(); !ok {
			return false
		}
		if !d.Lit(",") {
			return d.Lit("}")
		}
	}
}

// value consumes a field value: a string or a number.
func (d *eventDecoder) value() (token, bool) {
	if d.space(); d.i < len(d.b) && d.b[d.i] == '"' {
		s, ok := d.Str()
		return token{v: s, kind: 's'}, ok
	}
	n, ok := d.Number()
	return token{v: n, kind: 'n'}, ok
}
