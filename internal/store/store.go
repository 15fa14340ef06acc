// Package store persists table.Table values as partitioned binary columnar
// files on local disk. It is the repository's stand-in for the paper's HDFS
// layer (Figure 2): raw BSS/OSS tables land here partitioned by month, the
// ETL layer reads them back for feature engineering, and intermediate
// results (the paper's reusable Hive tables) can be cached between runs.
//
// Layout:
//
//	<root>/<tableName>/month=<n>.tct                  (plain: the 1-shard case)
//	<root>/<tableName>/month=<n>.shard=<s>of<N>.tct   (hash-sharded, see sharded.go)
//
// Format: every file is an internal/codec frame — an ASCII magic, a body of
// varints, 8-byte little-endian floats and length-prefixed strings, and a
// trailing CRC32 of the body — written through codec.Writer and decoded
// through codec.Reader, which bounds every stored count by the bytes behind
// it. A .tct (telco columnar table) body is
//
//	schema block | row count | per-column data blocks
//
// and an event-log segment (eventlog.go) packs several such bodies into one
// frame. Every file reaches disk through one function, commit.
package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"telcochurn/internal/codec"
	"telcochurn/internal/table"
)

const magic = "TCT1"

// ErrCorrupt is returned when a file fails checksum or structural checks.
// It is codec's sentinel, so errors.Is matches whichever layer found the
// damage.
var ErrCorrupt = codec.ErrCorrupt

// ErrNoMonths is returned by ReadMonths for an empty month list: there is
// no table, not even an empty one, to hand back.
var ErrNoMonths = errors.New("store: no months to read")

// Op identifies a warehouse I/O operation for fault hooks.
type Op string

// Warehouse I/O operations observable through a Hook.
const (
	OpReadPartition  Op = "read-partition"
	OpWritePartition Op = "write-partition"
	// Event-log operations (see eventlog.go). The hook's name argument is
	// the pseudo-table "events" and month carries the segment sequence
	// number, so injectors address segments the way they address partitions.
	OpAppendEvents Op = "append-events"
	OpReplayEvents Op = "replay-events"
)

// Hook intercepts warehouse I/O before it touches disk. A nil return lets
// the operation proceed; an error fails it as if the disk had failed. A
// returned *Crash makes write operations simulate a process death at the
// crash point instead: the write is abandoned exactly as an OS crash would
// leave it (possibly a stray temp file) and the *Crash is returned. The
// atomicity contract — a partition is either the complete old table, the
// complete new table, or absent, never a torn mix — must hold at every
// crash point; internal/faults drives this hook to prove it.
type Hook func(op Op, name string, month int) error

// Crash is a simulated process death inside a warehouse write, for crash
// injection (returned by a Hook). It is an error so injectors can thread it
// through the regular hook signature.
type Crash struct {
	// Point selects where in the write the process "dies".
	Point CrashPoint
}

// CrashPoint enumerates the places a warehouse write can die.
type CrashPoint int

const (
	// CrashMidWrite dies with the temp file half-written (torn bytes that
	// must never become a readable partition).
	CrashMidWrite CrashPoint = iota
	// CrashBeforeRename dies with the temp file complete but not committed.
	CrashBeforeRename
	// CrashAfterRename dies just after the atomic commit: the new partition
	// is visible and must be complete and readable.
	CrashAfterRename
)

func (c *Crash) Error() string {
	switch c.Point {
	case CrashMidWrite:
		return "store: simulated crash mid-write"
	case CrashBeforeRename:
		return "store: simulated crash before rename"
	default:
		return "store: simulated crash after rename"
	}
}

// Warehouse is a directory of partitioned tables.
type Warehouse struct {
	root string
	hook Hook
	sync SyncPolicy
	pend syncState
}

// SetHook installs a fault-injection hook on every partition and event-log
// read/write. Install it before concurrent use (it is read without locking
// on the I/O paths); passing nil removes it.
func (w *Warehouse) SetHook(h Hook) { w.hook = h }

// runHook invokes the hook, if any, for an operation about to run.
func (w *Warehouse) runHook(op Op, name string, month int) error {
	if w.hook == nil {
		return nil
	}
	return w.hook(op, name, month)
}

// Open returns a warehouse rooted at dir, creating it if needed.
func Open(dir string) (*Warehouse, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open warehouse: %w", err)
	}
	return &Warehouse{root: dir}, nil
}

// Root returns the warehouse directory.
func (w *Warehouse) Root() string { return w.root }

// commit is the warehouse's one write protocol — partitions, shard files
// and event-log segments all land through it: run the fault hook, write a
// temp file in the destination directory, then rename it over dst. A reader
// can therefore only ever observe the complete old file, the complete new
// file, or no file — never a torn mix (rename within one directory is
// atomic on POSIX filesystems). Without replace, dst must not exist: the
// temp file is hard-linked to dst, which fails with fs.ErrExist rather than
// replace a file another writer committed, and the temp name is then
// removed. The warehouse SyncPolicy decides whether the commit also
// survives power loss: in always mode the temp file is fsynced before the
// rename and the directory after it; in interval mode the pair is queued
// for the next SyncNow flush.
//
// A *Crash from the hook simulates the process dying at cr.Point instead,
// leaving the filesystem exactly as a real crash would — a torn or complete
// temp file that no reader ever opens, or (after-rename) the committed new
// file, never fsynced — and is returned so callers observe the "crash".
// committed reports whether dst now holds the new file, which it can even
// when err is set: a crash or a failed sync after the commit point.
func (w *Warehouse) commit(op Op, name string, month int, dir, dst string, replace bool, write func(io.Writer) error) (committed bool, err error) {
	var cr *Crash
	if err := w.runHook(op, name, month); err != nil && !errors.As(err, &cr) {
		return false, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return false, err
	}
	err = write(tmp)
	if cr != nil && (err != nil || cr.Point != CrashAfterRename) {
		if err == nil && cr.Point == CrashMidWrite {
			// Tear the temp file in half, as a crash between write syscalls
			// would. It must stay invisible to every read path.
			if info, serr := tmp.Stat(); serr == nil {
				tmp.Truncate(info.Size() / 2)
			}
		}
		tmp.Close()
		return false, cr
	}
	if err == nil && cr == nil && w.sync.Mode == SyncAlways {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil && replace {
		err = os.Rename(tmp.Name(), dst)
	} else if err == nil {
		// Once the link exists the commit has happened; a temp name left
		// behind is debris like a crashed write's, never read.
		if err = os.Link(tmp.Name(), dst); err == nil {
			os.Remove(tmp.Name())
		}
	}
	if cr != nil {
		return err == nil, cr // died just after the commit, before any directory fsync
	}
	if err != nil {
		os.Remove(tmp.Name())
		return false, err
	}
	return true, w.commitSync(dir, dst)
}

// WritePartition stores t as partition month of the named table in the
// plain single-file layout, replacing any existing partition atomically. It
// is the 1-shard case of ShardedWarehouse.WritePartition.
func (w *Warehouse) WritePartition(name string, month int, t *table.Table) error {
	return (&ShardedWarehouse{w: w, shards: 1}).WritePartition(name, month, t)
}

// ReadPartition loads partition month of the named table, whatever its
// on-disk layout: the plain single file, or a committed shard set
// concatenated in ascending shard order (see sharded.go for the resolution
// rule).
func (w *Warehouse) ReadPartition(name string, month int) (*table.Table, error) {
	return w.read(name, []int{month}, -1, 1)
}

// HasPartition reports whether the partition has a committed layout — a
// plain file or a complete shard set.
func (w *Warehouse) HasPartition(name string, month int) bool {
	lay, err := w.layout(name)
	return err == nil && lay[month] != nil
}

// Months lists the committed partition months for the named table,
// ascending. A month counts whether it is stored plain or as a complete
// shard set; an incomplete shard set is an uncommitted write and is skipped.
func (w *Warehouse) Months(name string) ([]int, error) {
	lay, err := w.layout(name)
	if err != nil || len(lay) == 0 {
		return nil, err
	}
	return sortedMonths(lay), nil
}

// Tables lists table names present in the warehouse. Dot-prefixed
// directories are warehouse internals (the event log lives in ".events")
// and are not tables.
func (w *Warehouse) Tables() ([]string, error) {
	entries, err := os.ReadDir(w.root)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// ReadMonths reads the given partitions of a table and joins them, in the
// given order, with one table.Concat. All partitions must share a schema.
// It is safe for concurrent use, as the features.TableReader contract asks
// (a fault hook, if installed, must be too).
func (w *Warehouse) ReadMonths(name string, months []int) (*table.Table, error) {
	return (&ShardReader{w: w, shard: -1, shards: 1}).ReadMonths(name, months)
}

// ---- binary encoding ----

// writeTable frames the rows of t that rows selects (nil: all of them) as
// a .tct file.
func writeTable(w io.Writer, t *table.Table, rows []int) error {
	cw := codec.NewWriter(w, magic)
	writeTableBody(cw, t, rows)
	_, err := cw.Close()
	return err
}

// writeTableBody encodes the schema block, row count and column blocks —
// the framing-free middle of a .tct file — of the rows of t that rows
// selects, in that order (nil: all rows): the bytes of t.Take(rows), with
// no copy made. Partition files wrap one body in magic + CRC; event-log
// segments pack several bodies into one frame.
func writeTableBody(cw *codec.Writer, t *table.Table, rows []int) {
	cw.Uvarint(uint64(t.Schema.Len()))
	for _, field := range t.Schema.Fields {
		cw.Str(field.Name)
		cw.Uvarint(uint64(field.Type))
	}
	n := t.NumRows()
	if rows != nil {
		n = len(rows)
	}
	cw.Uvarint(uint64(n))
	for _, col := range t.Cols {
		switch col.Type {
		case table.Int64:
			if rows == nil {
				for _, v := range col.Ints {
					cw.Int(v)
				}
			}
			for _, i := range rows {
				cw.Int(col.Ints[i])
			}
		case table.Float64:
			if rows == nil {
				for _, v := range col.Floats {
					cw.Float(v)
				}
			}
			for _, i := range rows {
				cw.Float(col.Floats[i])
			}
		case table.String:
			if rows == nil {
				for _, v := range col.Strings {
					cw.Str(v)
				}
			}
			for _, i := range rows {
				cw.Str(col.Strings[i])
			}
		}
	}
}

// readTableFile reads and decodes one .tct file. An open failure passes
// through unwrapped so callers can test fs.ErrNotExist and add their own
// context.
func readTableFile(path string) (*table.Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return readTable(data)
}

// readTable decodes the bytes of one .tct file.
func readTable(data []byte) (*table.Table, error) {
	rd, err := codec.NewReaderBytes(data, magic)
	if err != nil {
		return nil, err
	}
	t := readTableBody(rd)
	if err := rd.Close(); err != nil {
		return nil, err
	}
	return t, nil
}

// readTableBody decodes one schema + rows + columns body from the reader's
// current position, the inverse of writeTableBody. A failure is recorded on
// rd (and the returned table is then not to be used).
func readTableBody(rd *codec.Reader) *table.Table {
	schema, err := table.NewSchema(readFields(rd)...)
	if err != nil {
		rd.Fail(err.Error())
		return nil
	}
	// Every value takes at least one byte, so a row takes one per column.
	nrows := rd.Count(max(schema.Len(), 1))
	if nrows > 0 && schema.Len() == 0 {
		rd.Fail("rows without columns")
	}
	if rd.Err() != nil {
		return nil
	}
	t := table.NewTable(schema)
	for _, col := range t.Cols {
		switch col.Type {
		case table.Int64:
			col.Ints = make([]int64, nrows)
			rd.IntsInto(col.Ints)
		case table.Float64:
			col.Floats = make([]float64, nrows)
			rd.FloatsInto(col.Floats)
		case table.String:
			col.Strings = make([]string, nrows)
			for i := range col.Strings {
				col.Strings[i] = rd.Str()
			}
		}
	}
	return t
}

// readFields decodes a body's leading column list: a count, then a name
// and a type per column (at least two bytes each).
func readFields(rd *codec.Reader) []table.Field {
	fields := make([]table.Field, rd.Count(2))
	for i := range fields {
		name, typ := rd.Str(), rd.Uvarint()
		if typ > uint64(table.String) {
			rd.Fail(fmt.Sprintf("bad column type %d", typ))
		}
		fields[i] = table.Field{Name: name, Type: table.ColType(typ)}
	}
	return fields
}
