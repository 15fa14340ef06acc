package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"

	"telcochurn/internal/table"
)

func sampleTable(t *testing.T) *table.Table {
	t.Helper()
	tb := table.NewTable(table.MustSchema(
		table.Field{Name: "imsi", Type: table.Int64},
		table.Field{Name: "dur", Type: table.Float64},
		table.Field{Name: "text", Type: table.String},
	))
	rows := []struct {
		id   int64
		dur  float64
		text string
	}{
		{1, 1.5, "hello"}, {-42, 0, ""}, {1 << 40, -3.25, "unicode ✓ 中文"},
	}
	for _, r := range rows {
		if err := tb.AppendRow(r.id, r.dur, r.text); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func openTemp(t *testing.T) *Warehouse {
	t.Helper()
	wh, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return wh
}

func TestRoundTrip(t *testing.T) {
	wh := openTemp(t)
	want := sampleTable(t)
	if err := wh.WritePartition("calls", 3, want); err != nil {
		t.Fatal(err)
	}
	got, err := wh.ReadPartition("calls", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Schema.Equal(want.Schema) {
		t.Fatalf("schema mismatch: %s vs %s", got.Schema, want.Schema)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), want.NumRows())
	}
	for c := range want.Cols {
		for i := 0; i < want.NumRows(); i++ {
			w := want.Row(i)[c]
			g := got.Row(i)[c]
			if w != g {
				t.Errorf("cell (%d,%d): %v != %v", i, c, g, w)
			}
		}
	}
}

func TestPartitionListing(t *testing.T) {
	wh := openTemp(t)
	tb := sampleTable(t)
	for _, m := range []int{3, 1, 7} {
		if err := wh.WritePartition("calls", m, tb); err != nil {
			t.Fatal(err)
		}
	}
	if err := wh.WritePartition("billing", 1, tb); err != nil {
		t.Fatal(err)
	}
	months, err := wh.Months("calls")
	if err != nil {
		t.Fatal(err)
	}
	if len(months) != 3 || months[0] != 1 || months[2] != 7 {
		t.Errorf("Months = %v, want [1 3 7]", months)
	}
	if m, _ := wh.Months("nope"); m != nil {
		t.Errorf("Months(nope) = %v, want nil", m)
	}
	tables, err := wh.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0] != "billing" || tables[1] != "calls" {
		t.Errorf("Tables = %v", tables)
	}
	if !wh.HasPartition("calls", 3) || wh.HasPartition("calls", 2) {
		t.Error("HasPartition misreports")
	}
}

func TestReadMonthsConcatenates(t *testing.T) {
	wh := openTemp(t)
	tb := sampleTable(t)
	wh.WritePartition("calls", 1, tb)
	wh.WritePartition("calls", 2, tb)
	got, err := wh.ReadMonths("calls", []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 2*tb.NumRows() {
		t.Errorf("concat rows = %d, want %d", got.NumRows(), 2*tb.NumRows())
	}
}

func TestWriteReplacesAtomically(t *testing.T) {
	wh := openTemp(t)
	tb := sampleTable(t)
	wh.WritePartition("calls", 1, tb)
	smaller := table.NewTable(tb.Schema)
	smaller.AppendRow(int64(5), 9.0, "only")
	if err := wh.WritePartition("calls", 1, smaller); err != nil {
		t.Fatal(err)
	}
	got, err := wh.ReadPartition("calls", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 1 {
		t.Errorf("rows after replace = %d, want 1", got.NumRows())
	}
	// No temp files left behind.
	entries, _ := os.ReadDir(filepath.Join(wh.Root(), "calls"))
	for _, e := range entries {
		if e.Name() != "month=1.tct" {
			t.Errorf("unexpected leftover file %q", e.Name())
		}
	}
}

func TestCorruptionDetected(t *testing.T) {
	wh := openTemp(t)
	tb := sampleTable(t)
	wh.WritePartition("calls", 1, tb)
	path := filepath.Join(wh.Root(), "calls", "month=1.tct")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the body.
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = wh.ReadPartition("calls", 1)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupted read error = %v, want ErrCorrupt", err)
	}
}

func TestTruncationDetected(t *testing.T) {
	wh := openTemp(t)
	wh.WritePartition("calls", 1, sampleTable(t))
	path := filepath.Join(wh.Root(), "calls", "month=1.tct")
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)/2], 0o644)
	if _, err := wh.ReadPartition("calls", 1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated read error = %v, want ErrCorrupt", err)
	}
}

func TestSchemaConsistencyEnforced(t *testing.T) {
	wh := openTemp(t)
	if err := wh.WritePartition("calls", 1, sampleTable(t)); err != nil {
		t.Fatal(err)
	}
	other := table.NewTable(table.MustSchema(table.Field{Name: "x", Type: table.Int64}))
	other.AppendRow(int64(1))
	if err := wh.WritePartition("calls", 2, other); err == nil {
		t.Error("want error writing a mismatched schema into an existing table")
	}
	// Replacing the only partition with a new schema is allowed (the table
	// is effectively being redefined).
	if err := wh.WritePartition("calls", 1, other); err != nil {
		t.Errorf("same-partition replace rejected: %v", err)
	}
}

func TestMissingPartition(t *testing.T) {
	wh := openTemp(t)
	if _, err := wh.ReadPartition("calls", 1); err == nil {
		t.Error("want error for missing partition")
	}
}

// TestRoundTripProperty: random tables of random shape survive the binary
// encoding bit-exactly.
func TestRoundTripProperty(t *testing.T) {
	wh := openTemp(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := table.NewTable(table.MustSchema(
			table.Field{Name: "a", Type: table.Int64},
			table.Field{Name: "b", Type: table.Float64},
			table.Field{Name: "c", Type: table.String},
		))
		n := rng.Intn(100)
		letters := []string{"", "x", "yy", "long string value", "中"}
		for i := 0; i < n; i++ {
			tb.AppendRow(rng.Int63()-rng.Int63(), rng.NormFloat64()*1e6, letters[rng.Intn(len(letters))])
		}
		if err := wh.WritePartition("prop", int(seed%97), tb); err != nil {
			return false
		}
		got, err := wh.ReadPartition("prop", int(seed%97))
		if err != nil {
			return false
		}
		if got.NumRows() != tb.NumRows() {
			return false
		}
		for i := 0; i < n; i++ {
			for c := range tb.Cols {
				if got.Row(i)[c] != tb.Row(i)[c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCorruptCountsRejected: a checksum only proves the writer wrote the
// bytes, so a CRC-valid partition or event-log segment whose stored counts
// exceed the bytes behind them must come back as ErrCorrupt — not a
// makeslice/slice-bounds panic, and not an allocation sized by the count
// (churnd replays the log at boot: a panic there is a crash loop, an
// ErrCorrupt tail is quarantined).
func TestCorruptCountsRejected(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.AppendUvarint(out, v)
		}
		return out
	}
	seal := func(magic string, body []byte) []byte {
		out := append([]byte(magic), body...)
		return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	}
	oneIntColumn := append(uv(1, 1), 'a', byte(table.Int64)) // ncols, len("a"), "a", type
	for _, tc := range []struct {
		name string
		body []byte // a table body: schema, row count, columns
	}{
		{"nrows 1<<62", append(oneIntColumn, uv(1<<62)...)},
		{"string length 1<<63", uv(1, 1<<63)},
		{"ncols 1<<40", uv(1 << 40)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wh := openTemp(t)
			if err := os.MkdirAll(filepath.Join(wh.Root(), "calls"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(wh.Root(), "calls", partName(1, 0, 1)), seal(magic, tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			log, err := wh.EventLog()
			if err != nil {
				t.Fatal(err)
			}
			seg := append(uv(1, 1, 5), "calls"...) // seq, ntables, len(name), name
			if err := os.WriteFile(filepath.Join(log.Dir(), segName(1)), seal(eventMagic, append(seg, tc.body...)), 0o644); err != nil {
				t.Fatal(err)
			}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, perr := wh.ReadPartition("calls", 1)
			_, _, serr := log.readSegment(1)
			runtime.ReadMemStats(&after)
			if !errors.Is(perr, ErrCorrupt) {
				t.Errorf("ReadPartition: %v, want ErrCorrupt", perr)
			}
			if !errors.Is(serr, ErrCorrupt) {
				t.Errorf("readSegment: %v, want ErrCorrupt", serr)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("decoding %d hostile bytes allocated %d", len(tc.body), got)
			}
			// The bad segment is the log's tail, so replay quarantines it.
			if err := log.Replay(0, func(uint64, string, *table.Table) error { return nil }); err != nil {
				t.Errorf("Replay: %v, want the tail quarantined", err)
			}
			if q := log.Quarantines(); len(q) != 1 || q[0].Seq != 1 {
				t.Errorf("quarantines = %+v, want segment 1", q)
			}
		})
	}

	// The segment's own table count is bounded the same way.
	wh := openTemp(t)
	log, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(log.Dir(), segName(1)), seal(eventMagic, uv(1, 1<<62)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := log.readSegment(1); !errors.Is(err, ErrCorrupt) {
		t.Errorf("ntables 1<<62: %v, want ErrCorrupt", err)
	}
}

// TestReadMonthsRejectsEmptyMonthList: no months is an error, not a nil
// table with a nil error, for the whole-warehouse reader and a shard's.
func TestReadMonthsRejectsEmptyMonthList(t *testing.T) {
	wh := openTemp(t)
	sw, _ := wh.Sharded(4)
	for _, r := range []interface {
		ReadMonths(string, []int) (*table.Table, error)
	}{wh, sw.ShardReader(2), sw.ShardReader(-1)} {
		if tb, err := r.ReadMonths("calls", nil); tb != nil || !errors.Is(err, ErrNoMonths) {
			t.Errorf("%T.ReadMonths(nil) = %v, %v; want ErrNoMonths", r, tb, err)
		}
	}
}
