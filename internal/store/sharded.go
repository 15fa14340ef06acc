package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"telcochurn/internal/codec"
	"telcochurn/internal/table"
)

// Sharded warehouse layout. A partition month is stored either as the plain
// single file ("month=3.tct", the 1-shard case) or as a complete set of
// per-shard files split by table.ShardOf(imsi, N):
//
//	month=3.shard=0of4.tct ... month=3.shard=3of4.tct
//
// Read resolution is decided in one place, layout: plain file wins;
// otherwise the largest COMPLETE shard set wins; an incomplete set is an
// uncommitted write and reads as absent. Writers exploit that order for
// crash safety — a sharded
// rewrite removes the plain file only after its whole set is committed, so
// at every crash point readers see either the complete old partition or the
// complete new set, never a mix of layouts and never a torn file.

// shardKey is the column every raw table is hash-partitioned on — the
// paper's universal subscriber key.
const shardKey = "imsi"

// partName formats a partition file name: plain layout when of <= 1, shard
// layout otherwise.
func partName(month, shard, of int) string {
	if of <= 1 {
		return fmt.Sprintf("month=%d.tct", month)
	}
	return fmt.Sprintf("month=%d.shard=%dof%d.tct", month, shard, of)
}

// partInfo is a parsed partition file name. Plain files parse as shard 0 of 1.
type partInfo struct {
	month int
	shard int
	of    int
}

// parsePartName parses "month=M.tct" and "month=M.shard=SofN.tct".
func parsePartName(base string) (partInfo, bool) {
	if !strings.HasPrefix(base, "month=") || !strings.HasSuffix(base, ".tct") {
		return partInfo{}, false
	}
	stem := strings.TrimSuffix(strings.TrimPrefix(base, "month="), ".tct")
	monthStr, shardStr, sharded := strings.Cut(stem, ".shard=")
	m, err := strconv.Atoi(monthStr)
	if err != nil {
		return partInfo{}, false
	}
	if !sharded {
		return partInfo{month: m, shard: 0, of: 1}, true
	}
	sStr, ofStr, ok := strings.Cut(shardStr, "of")
	if !ok {
		return partInfo{}, false
	}
	s, err1 := strconv.Atoi(sStr)
	of, err2 := strconv.Atoi(ofStr)
	if err1 != nil || err2 != nil || of < 2 || s < 0 || s >= of {
		return partInfo{}, false
	}
	return partInfo{month: m, shard: s, of: of}, true
}

// layout resolves a table directory, in one scan, to its committed months:
// month -> the ordered files whose concatenation is that month. One file is
// the plain layout; N > 1 files are shards 0..N-1 of the winning set. Every
// reader of "what is on disk for this month" — Months, HasPartition, whole
// and per-shard reads, the schema probe, DetectShards —
// takes its answer from here, so the rule above exists once.
func (w *Warehouse) layout(name string) (map[int][]string, error) {
	dir := filepath.Join(w.root, name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	present := map[[2]int]int{} // (month, shard count) -> files seen
	wins := map[int]int{}       // month -> shard count of the winning layout
	for _, e := range entries {
		p, ok := parsePartName(e.Name())
		if !ok {
			continue
		}
		k := [2]int{p.month, p.of}
		if present[k]++; present[k] != p.of {
			continue // set not (yet) complete
		}
		if cur := wins[p.month]; p.of == 1 || (cur != 1 && p.of > cur) {
			wins[p.month] = p.of
		}
	}
	lay := make(map[int][]string, len(wins))
	for m, of := range wins {
		files := make([]string, of)
		for s := range files {
			files[s] = filepath.Join(dir, partName(m, s, of))
		}
		lay[m] = files
	}
	return lay, nil
}

// sortedMonths lists a layout's committed months, ascending.
func sortedMonths(lay map[int][]string) []int {
	months := make([]int, 0, len(lay))
	for m := range lay {
		months = append(months, m)
	}
	sort.Ints(months)
	return months
}

// read loads the given months of a table for one shard of a shards-way
// view, or whole months when shard < 0, whatever layout is committed on
// disk. The layout is resolved once for the call, after the first month's
// hook; every part — each month and each file of a month — is then read and
// joined by one table.Concat, in month order. A set at the view's own count
// is read directly — one file per month, the out-of-core fast path.
// Anything else is the month's files in order (so a sharded month reads
// shard-major, row order preserved within each shard) and, for a shard
// read, each file filtered by hash, which keeps plain warehouses and
// mid-re-shard months readable shard by shard at the cost of a full scan.
func (w *Warehouse) read(name string, months []int, shard, shards int) (*table.Table, error) {
	if shard >= shards {
		return nil, fmt.Errorf("store: shard %d out of range [0,%d)", shard, shards)
	}
	if len(months) == 0 {
		return nil, ErrNoMonths
	}
	var (
		lay   map[int][]string
		parts []*table.Table
	)
	for i, month := range months {
		if err := w.runHook(OpReadPartition, name, month); err != nil {
			return nil, err
		}
		var err error
		if i == 0 {
			lay, err = w.layout(name)
		}
		if err == nil {
			parts, err = w.readMonth(parts, name, month, lay[month], shard, shards)
		}
		if err != nil {
			return nil, readError(name, fmt.Sprintf("month=%d", month), shard, shards, err)
		}
	}
	t, err := table.Concat(parts)
	if err != nil {
		return nil, readError(name, fmt.Sprintf("months %v", months), shard, shards, err)
	}
	return t, nil
}

// readMonth appends one month's parts for the shard (shard < 0: the whole
// month) to parts, reading the month's committed files.
func (w *Warehouse) readMonth(parts []*table.Table, name string, month int, files []string, shard, shards int) ([]*table.Table, error) {
	switch {
	case files == nil:
		return nil, &fs.PathError{Op: "open", Path: filepath.Join(w.root, name, partName(month, 0, 1)), Err: fs.ErrNotExist}
	case shard >= 0 && shards > 1 && len(files) == shards:
		files = files[shard : shard+1]
		shards = 1 // the file is the shard: no filter
	}
	for _, f := range files {
		t, err := readTableFile(f)
		if err != nil {
			return nil, err
		}
		if shard >= 0 && shards > 1 {
			col := t.Col(shardKey)
			if col == nil || col.Type != table.Int64 {
				return nil, fmt.Errorf("store: table %q has no BIGINT %q column to shard by", name, shardKey)
			}
			t = t.Filter(func(i int) bool { return table.ShardOf(col.Ints[i], shards) == shard })
		}
		parts = append(parts, t)
	}
	return parts, nil
}

// readError places a read failure: a missing file passes through unwrapped
// (callers test fs.ErrNotExist and add their own context), anything else is
// wrapped with the table, the months and, for a shard read, the shard.
func readError(name, where string, shard, shards int, err error) error {
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return err
	case shard < 0:
		return fmt.Errorf("store: read %s %s: %w", name, where, err)
	default:
		return fmt.Errorf("store: read %s %s shard=%d/%d: %w", name, where, shard, shards, err)
	}
}

// partitionSchema reads just the schema block from the head of one partition
// file — a bounded read, not the whole table — so the write path's schema
// probe stays cheap at out-of-core scale. The checksum is not verified;
// corruption is still caught by real reads.
func partitionSchema(path string) (*table.Schema, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	head := make([]byte, 1<<16)
	n, err := io.ReadFull(f, head)
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		return nil, err
	}
	rd, err := codec.NewHeadReader(head[:n], magic)
	if err != nil {
		return nil, err
	}
	fields := readFields(rd)
	if err := rd.Err(); err != nil {
		return nil, err
	}
	return table.NewSchema(fields...)
}

// checkPartitionSchema rejects a write whose schema differs from an existing
// partition's (the first committed month other than the one being written),
// so a warehouse never holds a table that ReadMonths cannot concatenate.
func (w *Warehouse) checkPartitionSchema(name string, month int, t *table.Table) error {
	lay, _ := w.layout(name)
	for _, probe := range sortedMonths(lay) {
		if probe == month {
			continue
		}
		existing, err := partitionSchema(lay[probe][0])
		if err == nil && !existing.Equal(t.Schema) {
			return fmt.Errorf("store: schema mismatch for table %q: partition month=%d has %s, new partition has %s",
				name, probe, existing, t.Schema)
		}
		break
	}
	return nil
}

// DetectShards reports the shard count of the named table's newest committed
// month — 1 for the plain layout or an empty table — so tools can open a
// warehouse at the shard count it was written with.
func (w *Warehouse) DetectShards(name string) (int, error) {
	lay, err := w.layout(name)
	if err != nil || len(lay) == 0 {
		return 1, err
	}
	months := sortedMonths(lay)
	return len(lay[months[len(months)-1]]), nil
}

// ShardedWarehouse is a fixed-shard-count view of a warehouse: writes split
// every table by hash of the imsi column into per-shard partition files, and
// ReadShard serves one slice of a month whatever layout is on disk. A
// 1-shard view writes the plain layout; Warehouse.WritePartition is exactly
// that.
type ShardedWarehouse struct {
	w      *Warehouse
	shards int
}

// Sharded returns a view of the warehouse at the given shard count.
func (w *Warehouse) Sharded(shards int) (*ShardedWarehouse, error) {
	if shards < 1 {
		return nil, fmt.Errorf("store: shard count %d must be >= 1", shards)
	}
	return &ShardedWarehouse{w: w, shards: shards}, nil
}

// Shards returns the view's shard count.
func (sw *ShardedWarehouse) Shards() int { return sw.shards }

// WritePartition stores t as partition month of the named table, split into
// per-shard files by hash of the imsi column (one plain file at one shard).
// Each file commits atomically (temp + rename) through the fault-hook seam;
// superseded layouts are removed only after the full set is committed.
// Rewriting an existing month at the same shard count is atomic per shard
// file, not across the set — run re-shards against quiesced months. All
// partitions of a table must share a schema: a write whose schema differs
// from an existing partition's is rejected, so a warehouse can never hold a
// table that ReadMonths cannot concatenate.
func (sw *ShardedWarehouse) WritePartition(name string, month int, t *table.Table) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("store: refusing to write invalid table: %w", err)
	}
	var idx [][]int
	if sw.shards > 1 {
		ki := t.Schema.Index(shardKey)
		if ki < 0 || t.Schema.Fields[ki].Type != table.Int64 {
			return fmt.Errorf("store: sharded write of %q needs a BIGINT %q column", name, shardKey)
		}
		idx = make([][]int, sw.shards)
		for s := range idx {
			idx[s] = []int{} // an empty shard selects no rows, not all of them
		}
		for i, k := range t.Cols[ki].Ints {
			s := table.ShardOf(k, sw.shards)
			idx[s] = append(idx[s], i)
		}
	}
	if err := sw.w.checkPartitionSchema(name, month, t); err != nil {
		return err
	}
	dir := filepath.Join(sw.w.root, name)
	for s := 0; s < sw.shards; s++ {
		// Each shard file encodes its rows straight from t's columns, so
		// the write path holds no copy of a shard.
		var rows []int // nil: the plain layout's one file holds every row
		if idx != nil {
			rows = idx[s]
		}
		dst := filepath.Join(dir, partName(month, s, sw.shards))
		if _, err := sw.w.commit(OpWritePartition, name, month, dir, dst, true, func(f io.Writer) error { return writeTable(f, t, rows) }); err != nil {
			return err
		}
	}
	// Commit point for layout changes: now that the new layout is complete,
	// drop the plain file it replaces (a plain write just committed its own)
	// and every shard set of another count, so a superseded layout stops
	// shadowing per-shard reads. Removal failures are ignored — a leftover
	// file loses to the resolution rule.
	if sw.shards > 1 {
		os.Remove(filepath.Join(dir, partName(month, 0, 1)))
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if p, ok := parsePartName(e.Name()); ok && p.month == month && p.of > 1 && p.of != sw.shards {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	return nil
}

// ReadShard loads shard's slice of one month (see Warehouse.read for how
// each on-disk layout is served).
func (sw *ShardedWarehouse) ReadShard(name string, month, shard int) (*table.Table, error) {
	if shard < 0 {
		return nil, fmt.Errorf("store: shard %d out of range [0,%d)", shard, sw.shards)
	}
	return sw.w.read(name, []int{month}, shard, sw.shards)
}

// ShardReader is a features.TableReader over a warehouse: ReadMonths
// returns one shard's rows of each table, or whole months when the shard is
// negative (which is also what Warehouse.ReadMonths is). core.RetrySource,
// fault injection and degraded-mode loading compose over it the same way
// either side of that line.
type ShardReader struct {
	w      *Warehouse
	shard  int
	shards int
}

// ShardReader returns the reader for one shard of the view; shard < 0 reads
// whole months.
func (sw *ShardedWarehouse) ShardReader(shard int) *ShardReader {
	return &ShardReader{w: sw.w, shard: shard, shards: sw.shards}
}

// ReadMonths reads the reader's slice of the given partitions, joined in
// month order (see Warehouse.read). It is safe for concurrent use.
func (r *ShardReader) ReadMonths(name string, months []int) (*table.Table, error) {
	return r.w.read(name, months, r.shard, r.shards)
}
