package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"

	"telcochurn/internal/table"
)

// The fuzz targets take a frame's BODY and seal it (magic + CRC) themselves,
// so mutations reach the decoders instead of dying at the checksum. The
// contract for any sealed body: a typed ErrCorrupt, or tables that re-encode
// to exactly the same bytes (the reader takes only the writer's spelling,
// shortest varints included) — never a panic, and never an allocation the
// input's own length does not pay for.

func sealFrame(magic string, body []byte) []byte {
	out := append([]byte(magic), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
}

// frameBody strips the magic and the CRC trailer off a writer's output.
func frameBody(t testing.TB, magic string, write func(*bytes.Buffer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[len(magic) : buf.Len()-4]
}

func uvarints(vs ...uint64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

// hostileBodies are the CRC-valid count attacks of TestCorruptCountsRejected.
func hostileBodies() [][]byte {
	oneIntColumn := append(uvarints(1, 1), 'a', byte(table.Int64))
	return [][]byte{
		append(oneIntColumn, uvarints(1<<62)...), // nrows
		append(oneIntColumn, uvarints(1<<33)...),
		uvarints(1, 1<<63), // string length
		uvarints(1 << 40),  // ncols
		{},
	}
}

// decodeBounded runs decode and fails the test if it allocated more than a
// constant multiple of the input (a column header, schema entry and index
// slot per two input bytes is the densest legitimate case).
func decodeBounded(t *testing.T, n int, decode func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+512*n); got > limit {
		t.Fatalf("decoding %d bytes allocated %d (limit %d)", n, got, limit)
	}
}

// checkReencoded asserts enc is input, byte for byte.
func checkReencoded(t *testing.T, input, enc []byte) {
	t.Helper()
	if !bytes.Equal(enc, input) {
		t.Fatalf("re-encoding differs:\n in  %x\n out %x", input, enc)
	}
}

func FuzzReadTable(f *testing.F) {
	for _, tb := range []*table.Table{goldenTable(f), table.NewTable(table.MustSchema(table.Field{Name: "imsi", Type: table.Int64}))} {
		f.Add(frameBody(f, magic, func(b *bytes.Buffer) error { return writeTable(b, tb, nil) }))
	}
	for _, body := range hostileBodies() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// Unsealed, the bytes are just a bad file.
		if _, err := readTable(body); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("unsealed: %v is not ErrCorrupt", err)
		}
		data := sealFrame(magic, body)
		var tb *table.Table
		var err error
		decodeBounded(t, len(data), func() { tb, err = readTable(data) })
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%v is not ErrCorrupt", err)
			}
			return
		}
		if err := tb.Validate(); err != nil {
			t.Fatalf("decoded an invalid table: %v", err)
		}
		var enc bytes.Buffer
		if err := writeTable(&enc, tb, nil); err != nil {
			t.Fatal(err)
		}
		checkReencoded(t, data, enc.Bytes())
	})
}

func FuzzReadSegment(f *testing.F) {
	tb := goldenTable(f)
	batch := map[string]*table.Table{"calls": tb, "sms": tb}
	f.Add(frameBody(f, eventMagic, func(b *bytes.Buffer) error { return writeSegment(b, 1, []string{"calls", "sms"}, batch) }))
	for _, body := range hostileBodies() {
		f.Add(append(append(uvarints(1, 1, 5), "calls"...), body...)) // seq, ntables, name, table body
	}
	f.Add(uvarints(1, 1<<62)) // ntables
	f.Add(uvarints(2, 0))     // a segment that claims another sequence number
	// Found by this target: a zero-column table claiming a row, then a table
	// named "00" — it used to decode, and re-encode to different bytes.
	f.Add([]byte{1, 2, 0, 0, 1, 2, '0', '0', 0, 0})
	f.Fuzz(func(t *testing.T, body []byte) {
		data := sealFrame(eventMagic, body)
		var names []string
		var tables []*table.Table
		var err error
		decodeBounded(t, len(data), func() { names, tables, err = decodeSegment(data, 1) })
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%v is not ErrCorrupt", err)
			}
			return
		}
		batch := map[string]*table.Table{}
		for i, name := range names {
			batch[name] = tables[i]
		}
		var enc bytes.Buffer
		if err := writeSegment(&enc, 1, names, batch); err != nil {
			t.Fatal(err)
		}
		if len(batch) == len(names) { // a repeated name cannot be re-encoded from a map
			checkReencoded(t, data, enc.Bytes())
		}
	})
}
