// Package store persists table.Table values as partitioned binary columnar
// files on local disk. It is the repository's stand-in for the paper's HDFS
// layer (Figure 2): raw BSS/OSS tables land here partitioned by month, the
// ETL layer reads them back for feature engineering, and intermediate
// results (the paper's reusable Hive tables) can be cached between runs.
//
// Layout:
//
//	<root>/<tableName>/month=<n>.tct                  (plain, single shard)
//	<root>/<tableName>/month=<n>.shard=<s>of<N>.tct   (hash-sharded, see sharded.go)
//
// Each .tct (telco columnar table) file is:
//
//	magic "TCT1" | schema block | row count | per-column data blocks
//
// Integers use varint encoding; floats are fixed 8-byte little endian;
// strings are length-prefixed. A CRC32 of everything after the magic is
// appended so corrupt files are detected on read.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"telcochurn/internal/table"
)

const magic = "TCT1"

// ErrCorrupt is returned when a file fails checksum or structural checks.
var ErrCorrupt = errors.New("store: corrupt table file")

// Op identifies a warehouse I/O operation for fault hooks.
type Op string

// Warehouse I/O operations observable through a Hook.
const (
	OpReadPartition  Op = "read-partition"
	OpWritePartition Op = "write-partition"
	OpStageDay       Op = "stage-day"
	OpReadStagedDay  Op = "read-staged-day"
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

// SetHook installs a fault-injection hook on every partition and staging
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

func (w *Warehouse) partitionPath(name string, month int) string {
	return filepath.Join(w.root, name, fmt.Sprintf("month=%d.tct", month))
}

// WritePartition stores t as partition month of the named table, replacing
// any existing partition atomically (write temp + rename). All partitions
// of a table must share a schema: a write whose schema differs from an
// existing partition's is rejected, so a warehouse can never hold a table
// that ReadMonths cannot concatenate.
func (w *Warehouse) WritePartition(name string, month int, t *table.Table) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("store: refusing to write invalid table: %w", err)
	}
	if err := w.checkPartitionSchema(name, month, t); err != nil {
		return err
	}
	if err := w.runHook(OpWritePartition, name, month); err != nil {
		var cr *Crash
		if errors.As(err, &cr) {
			return w.crashingWrite(cr, filepath.Join(w.root, name), w.partitionPath(name, month), t)
		}
		return err
	}
	if err := w.atomicWrite(filepath.Join(w.root, name), w.partitionPath(name, month), t); err != nil {
		return err
	}
	// The plain file now wins every read; drop shard sets it supersedes.
	w.removeShardFiles(name, month, 0)
	return nil
}

// atomicWrite is the warehouse commit protocol for tables: write a temp
// file in the destination directory, then rename over the target.
func (w *Warehouse) atomicWrite(dir, dst string, t *table.Table) error {
	return w.atomicWriteFile(dir, dst, func(f *os.File) error { return writeTable(f, t) })
}

// atomicWriteFile is the generic commit protocol: write a temp file in the
// destination directory via the callback, then rename over the target. A
// reader can therefore only ever observe the complete old file, the
// complete new file, or no file — never a torn mix (rename within one
// directory is atomic on POSIX filesystems). The warehouse SyncPolicy
// decides whether the commit also survives power loss: in always mode the
// temp file is fsynced before the rename and the directory after it; in
// interval mode the pair is queued for the next SyncNow flush.
func (w *Warehouse) atomicWriteFile(dir, dst string, write func(*os.File) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if w.sync.Mode == SyncAlways {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmpName)
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, dst); err != nil {
		os.Remove(tmpName)
		return err
	}
	return w.commitSync(dir, dst)
}

// crashingWrite simulates a process dying at cr.Point during atomicWrite,
// leaving the filesystem exactly as a real crash would: a torn or complete
// temp file that no reader ever opens, or (after-rename) the committed new
// partition. It always returns cr so callers observe the "crash".
func (w *Warehouse) crashingWrite(cr *Crash, dir, dst string, t *table.Table) error {
	return crashingWriteFile(cr, dir, dst, func(f *os.File) error { return writeTable(f, t) })
}

// crashingWriteFile is crashingWrite for arbitrary file contents (partition
// tables and event-log segments share it).
func crashingWriteFile(cr *Crash, dir, dst string, write func(*os.File) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		return cr
	}
	if cr.Point == CrashMidWrite {
		// Tear the temp file in half, as a crash between write syscalls
		// would. It must stay invisible to every read path.
		if info, err := tmp.Stat(); err == nil {
			tmp.Truncate(info.Size() / 2)
		}
		tmp.Close()
		return cr
	}
	tmp.Close()
	if cr.Point == CrashAfterRename {
		os.Rename(tmp.Name(), dst)
	}
	return cr
}

// ReadPartition loads partition month of the named table, whatever its
// on-disk layout: the plain single file, or a committed shard set
// concatenated in ascending shard order (see sharded.go for the resolution
// rule).
func (w *Warehouse) ReadPartition(name string, month int) (*table.Table, error) {
	if err := w.runHook(OpReadPartition, name, month); err != nil {
		return nil, err
	}
	t, err := w.readMonth(name, month)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		return nil, fmt.Errorf("store: read %s month=%d: %w", name, month, err)
	}
	return t, nil
}

// HasPartition reports whether the partition has a committed layout — a
// plain file or a complete shard set.
func (w *Warehouse) HasPartition(name string, month int) bool {
	lay, err := w.layoutOf(name, month)
	return err == nil && lay.committed()
}

// Months lists the committed partition months for the named table,
// ascending. A month counts whether it is stored plain or as a complete
// shard set; an incomplete shard set is an uncommitted write and is skipped.
func (w *Warehouse) Months(name string) ([]int, error) {
	entries, err := os.ReadDir(filepath.Join(w.root, name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	plain := map[int]bool{}
	sets := map[int]map[int]int{} // month -> shard count -> files present
	for _, e := range entries {
		p, ok := parsePartName(e.Name())
		if !ok {
			continue
		}
		if p.of == 1 {
			plain[p.month] = true
		} else {
			if sets[p.month] == nil {
				sets[p.month] = map[int]int{}
			}
			sets[p.month][p.of]++
		}
	}
	var months []int
	for m := range plain {
		months = append(months, m)
	}
	for m, byOf := range sets {
		if plain[m] {
			continue
		}
		for of, n := range byOf {
			if n == of {
				months = append(months, m)
				break
			}
		}
	}
	sort.Ints(months)
	return months, nil
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

// ReadMonths reads and concatenates the given partitions of a table, in the
// given order. All partitions must share a schema.
func (w *Warehouse) ReadMonths(name string, months []int) (*table.Table, error) {
	var out *table.Table
	for _, m := range months {
		t, err := w.ReadPartition(name, m)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = t
			continue
		}
		if err := out.AppendTable(t); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ---- binary encoding ----

type crcWriter struct {
	w   *bufio.Writer
	crc hash.Hash32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc.Write(p)
	return cw.w.Write(p)
}

func writeTable(f *os.File, t *table.Table) error {
	bw := bufio.NewWriterSize(f, 1<<16)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	cw := &crcWriter{w: bw, crc: crc32.NewIEEE()}
	writeTableBody(cw, t)

	// Trailing CRC of everything after the magic.
	var scratch [4]byte
	binary.LittleEndian.PutUint32(scratch[:], cw.crc.Sum32())
	if _, err := bw.Write(scratch[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// writeTableBody encodes the schema block, row count and column blocks —
// the framing-free middle of a .tct file. Partition files wrap one body in
// magic + CRC; event-log segments pack several bodies into one frame.
func writeTableBody(w io.Writer, t *table.Table) {
	writeUvarint(w, uint64(t.Schema.Len()))
	for _, field := range t.Schema.Fields {
		writeString(w, field.Name)
		writeUvarint(w, uint64(field.Type))
	}
	writeUvarint(w, uint64(t.NumRows()))

	var scratch [8]byte
	for _, col := range t.Cols {
		switch col.Type {
		case table.Int64:
			for _, v := range col.Ints {
				writeVarint(w, v)
			}
		case table.Float64:
			for _, v := range col.Floats {
				binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
				w.Write(scratch[:])
			}
		case table.String:
			for _, v := range col.Strings {
				writeString(w, v)
			}
		}
	}
}

func readTable(f *os.File) (*table.Table, error) {
	data, err := io.ReadAll(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return nil, err
	}
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return nil, ErrCorrupt
	}
	body := data[len(magic) : len(data)-4]
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}

	r := &sliceReader{b: body}
	t, err := readTableBody(r)
	if err != nil {
		return nil, err
	}
	if r.pos != len(r.b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.b)-r.pos)
	}
	return t, nil
}

// readTableBody decodes one schema + rows + columns body from the reader's
// current position, the inverse of writeTableBody.
func readTableBody(r *sliceReader) (*table.Table, error) {
	fields, err := readFields(r)
	if err != nil {
		return nil, err
	}
	schema, err := table.NewSchema(fields...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// Every value takes at least one byte, so a row takes one per column.
	nrows, err := r.count(max(len(fields), 1))
	if err != nil {
		return nil, err
	}

	t := table.NewTable(schema)
	for _, col := range t.Cols {
		switch col.Type {
		case table.Int64:
			col.Ints = make([]int64, nrows)
			for i := 0; i < nrows; i++ {
				v, err := r.varint()
				if err != nil {
					return nil, err
				}
				col.Ints[i] = v
			}
		case table.Float64:
			col.Floats = make([]float64, nrows)
			for i := 0; i < nrows; i++ {
				raw, err := r.bytes(8)
				if err != nil {
					return nil, err
				}
				col.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw))
			}
		case table.String:
			col.Strings = make([]string, nrows)
			for i := 0; i < nrows; i++ {
				s, err := r.str()
				if err != nil {
					return nil, err
				}
				col.Strings[i] = s
			}
		}
	}
	return t, nil
}

// readFields decodes a body's leading column list: a count, then a name
// and a type per column (at least two bytes each).
func readFields(r *sliceReader) ([]table.Field, error) {
	ncols, err := r.count(2)
	if err != nil {
		return nil, err
	}
	fields := make([]table.Field, ncols)
	for i := range fields {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		typ, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if typ > uint64(table.String) {
			return nil, fmt.Errorf("%w: bad column type %d", ErrCorrupt, typ)
		}
		fields[i] = table.Field{Name: name, Type: table.ColType(typ)}
	}
	return fields, nil
}

func writeUvarint(w io.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeVarint(w io.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n])
}

func writeString(w io.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	io.WriteString(w, s)
}

type sliceReader struct {
	b   []byte
	pos int
}

func (r *sliceReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrCorrupt)
	}
	r.pos += n
	return v, nil
}

func (r *sliceReader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	r.pos += n
	return v, nil
}

// count reads the stored number of items that each occupy at least perItem
// bytes and rejects one the remaining input cannot hold: on-disk counts
// size allocations, and a checksum only proves the writer wrote them, not
// that they are sane.
func (r *sliceReader) count(perItem int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64((len(r.b)-r.pos)/perItem) {
		return 0, fmt.Errorf("%w: count %d exceeds the %d bytes left", ErrCorrupt, n, len(r.b)-r.pos)
	}
	return int(n), nil
}

func (r *sliceReader) bytes(n int) ([]byte, error) {
	if n > len(r.b)-r.pos {
		return nil, fmt.Errorf("%w: truncated", ErrCorrupt)
	}
	b := r.b[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *sliceReader) str() (string, error) {
	n, err := r.count(1)
	if err != nil {
		return "", err
	}
	b, err := r.bytes(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}
