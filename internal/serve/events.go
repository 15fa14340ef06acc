package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"telcochurn/internal/features"
	"telcochurn/internal/table"
)

// Wire format for streamed raw events — the POST /v1/events request body
// and the churnctl ingest file format. One record names its raw table and
// carries the row's fields; imsi, month and day are first-class because
// every streamable table keys on them.

// Event is one raw BSS/OSS record on the wire.
type Event struct {
	// Table is the raw table the record belongs to (calls, messages,
	// recharges, complaints, web, search, locations).
	Table string `json:"table"`
	IMSI  int64  `json:"imsi"`
	Month int64  `json:"month"`
	Day   int64  `json:"day"`
	// Fields holds the remaining schema columns by name. Omitted numeric
	// columns default to zero, text columns to ""; unknown names are
	// rejected (they are always typos, never extensions), and so are
	// imsi, month and day, which only the keys above may carry.
	Fields map[string]any `json:"fields,omitempty"`
}

// EventBatch is the POST /v1/events request body.
type EventBatch struct {
	Events []Event `json:"events"`
}

// UnmarshalJSON decodes a batch keeping every Fields number exact, as a
// json.Number: decoded through float64, an integer column value above 2^53
// would be rounded. churnctl ingest decodes batches here, and so does churnd
// for a body DecodeEventTables declines.
func (b *EventBatch) UnmarshalJSON(data []byte) error {
	type plain EventBatch // without this method
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	return dec.Decode((*plain)(b))
}

// BuildEventTables validates a batch and assembles it into typed tables
// keyed by raw table name, rows in batch order — the shape the event log
// appends and the incremental maintainer folds.
func BuildEventTables(events []Event) (map[string]*table.Table, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("empty event batch")
	}
	out := map[string]*table.Table{}
	for i, ev := range events {
		if !slices.Contains(features.StreamableTables, ev.Table) {
			return nil, fmt.Errorf("event %d: table %q does not accept streamed events (streamable: %v)", i, ev.Table, features.StreamableTables)
		}
		schema, ok := features.RawSchema(ev.Table)
		if !ok {
			return nil, fmt.Errorf("event %d: unknown table %q", i, ev.Table)
		}
		if ev.IMSI <= 0 {
			return nil, fmt.Errorf("event %d: imsi must be positive, got %d", i, ev.IMSI)
		}
		if ev.Month <= 0 {
			return nil, fmt.Errorf("event %d: month must be positive, got %d", i, ev.Month)
		}
		if ev.Day <= 0 {
			return nil, fmt.Errorf("event %d: day must be positive, got %d", i, ev.Day)
		}
		// Every streamable schema has imsi, month and day columns, so the
		// schema's own index is the set of names a record may carry, less
		// those three: they fill from the record's own keys.
		for name := range ev.Fields {
			if !schema.Has(name) {
				return nil, fmt.Errorf("event %d: table %q has no column %q", i, ev.Table, name)
			}
			if firstClass(name) {
				return nil, fmt.Errorf("event %d: fields may not carry %q, the record's own key", i, name)
			}
		}
		t := out[ev.Table]
		if t == nil {
			t = table.NewTable(schema)
			out[ev.Table] = t
		}
		r := t.Append()
		for _, f := range schema.Fields {
			var err error
			switch f.Name {
			case "imsi":
				r = r.Int(ev.IMSI)
			case "month":
				r = r.Int(ev.Month)
			case "day":
				r = r.Int(ev.Day)
			default:
				r, err = coerce(r, ev.Fields[f.Name], f.Type)
			}
			if err != nil {
				return nil, fmt.Errorf("event %d: column %q: %w", i, f.Name, err)
			}
		}
		r.Done()
	}
	return out, nil
}

// firstClass reports whether a column fills from an Event's own key
// rather than from its Fields.
func firstClass(name string) bool {
	return name == "imsi" || name == "month" || name == "day"
}

// EventsFromTables flattens typed event tables back into wire records, in
// table-name order: the inverse of BuildEventTables, which lets generated
// events feed the direct-append and HTTP paths alike.
func EventsFromTables(tables map[string]*table.Table) []Event {
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Event
	for _, name := range names {
		t := tables[name]
		imsi, month, day := t.MustCol("imsi").Ints, t.MustCol("month").Ints, t.MustCol("day").Ints
		for i := 0; i < t.NumRows(); i++ {
			ev := Event{Table: name, IMSI: imsi[i], Month: month[i], Day: day[i], Fields: map[string]any{}}
			for _, f := range t.Schema.Fields {
				if firstClass(f.Name) {
					continue
				}
				col := t.MustCol(f.Name)
				switch f.Type {
				case table.Int64:
					ev.Fields[f.Name] = col.Ints[i]
				case table.Float64:
					ev.Fields[f.Name] = col.Floats[i]
				default:
					ev.Fields[f.Name] = col.Strings[i]
				}
			}
			out = append(out, ev)
		}
	}
	return out
}

// coerce appends a field value (a json.Number from a decoded batch, a
// float64, int64 or string from a batch built in Go, or nil when omitted)
// to the row's next column, of type typ, as the column's Go type. A JSON
// number fills an integer column only if it is an integer that fits in 64
// bits; a float column parses it as encoding/json would.
func coerce(r table.RowAppender, raw any, typ table.ColType) (table.RowAppender, error) {
	switch typ {
	case table.Int64:
		switch v := raw.(type) {
		case nil:
			return r.Int(0), nil
		case json.Number:
			n, err := strconv.ParseInt(string(v), 10, 64)
			if err != nil {
				return r, fmt.Errorf("want a 64-bit integer, got %s", v)
			}
			return r.Int(n), nil
		case int64:
			return r.Int(v), nil
		case float64:
			n := int64(v)
			if float64(n) != v {
				return r, fmt.Errorf("want an integer, got %v", v)
			}
			return r.Int(n), nil
		default:
			return r, fmt.Errorf("want an integer, got %T", raw)
		}
	case table.Float64:
		switch v := raw.(type) {
		case nil:
			return r.Float(0), nil
		case json.Number:
			f, err := strconv.ParseFloat(string(v), 64)
			if err != nil {
				return r, fmt.Errorf("want a number, got %s", v)
			}
			return r.Float(f), nil
		case float64:
			return r.Float(v), nil
		case int64:
			return r.Float(float64(v)), nil
		default:
			return r, fmt.Errorf("want a number, got %T", raw)
		}
	default:
		switch v := raw.(type) {
		case nil:
			return r.String(""), nil
		case string:
			return r.String(v), nil
		default:
			return r, fmt.Errorf("want a string, got %T", raw)
		}
	}
}
