package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"telcochurn/internal/table"
)

// Sharded warehouse layout. A partition month is stored either as the plain
// single file ("month=3.tct", the TCPA-era layout every existing warehouse
// uses) or as a complete set of per-shard files split by
// table.ShardOf(imsi, N):
//
//	month=3.shard=0of4.tct ... month=3.shard=3of4.tct
//
// Read resolution, everywhere, is: plain file wins; otherwise the largest
// COMPLETE shard set wins; an incomplete set is an uncommitted write and
// reads as absent. Writers exploit that order for crash safety — a sharded
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

// monthLayout is the committed on-disk layout of one partition month.
type monthLayout struct {
	plain bool // the plain single file exists
	of    int  // shard count of the largest complete shard set; 0 if none
}

func (l monthLayout) committed() bool { return l.plain || l.of > 0 }

// layoutOf scans the table directory and resolves one month's committed
// layout per the plain-wins / complete-set-wins rule above.
func (w *Warehouse) layoutOf(name string, month int) (monthLayout, error) {
	entries, err := os.ReadDir(filepath.Join(w.root, name))
	if err != nil {
		if os.IsNotExist(err) {
			return monthLayout{}, nil
		}
		return monthLayout{}, err
	}
	var lay monthLayout
	seen := map[int]int{}
	for _, e := range entries {
		p, ok := parsePartName(e.Name())
		if !ok || p.month != month {
			continue
		}
		if p.of == 1 {
			lay.plain = true
		} else if seen[p.of]++; seen[p.of] == p.of && p.of > lay.of {
			lay.of = p.of
		}
	}
	return lay, nil
}

// readMonth loads one committed month whatever its layout: the plain file,
// or the winning shard set concatenated ascending (the partition's row order
// is then shard-major, row order preserved within each shard). Unhooked;
// ReadPartition adds the fault hook and error context.
func (w *Warehouse) readMonth(name string, month int) (*table.Table, error) {
	t, err := readTableFile(filepath.Join(w.root, name, partName(month, 0, 1)))
	if err == nil || !errors.Is(err, fs.ErrNotExist) {
		return t, err
	}
	lay, lerr := w.layoutOf(name, month)
	if lerr != nil {
		return nil, lerr
	}
	if lay.of == 0 {
		return nil, err // the plain path's fs.ErrNotExist
	}
	var out *table.Table
	for s := 0; s < lay.of; s++ {
		st, err := readTableFile(filepath.Join(w.root, name, partName(month, s, lay.of)))
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = st
			continue
		}
		if err := out.AppendTable(st); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readTableFile opens and decodes one partition file. Errors pass through
// unwrapped so callers can test fs.ErrNotExist and add their own context.
func readTableFile(path string) (*table.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readTable(f)
}

// partitionSchema reads just the schema block from the head of one committed
// partition — a bounded read, not the whole table — so the write path's
// schema probe stays cheap at out-of-core scale. The checksum is not
// verified; corruption is still caught by real reads.
func (w *Warehouse) partitionSchema(name string, month int) (*table.Schema, error) {
	lay, err := w.layoutOf(name, month)
	if err != nil {
		return nil, err
	}
	var base string
	switch {
	case lay.plain:
		base = partName(month, 0, 1)
	case lay.of > 0:
		base = partName(month, 0, lay.of)
	default:
		return nil, fs.ErrNotExist
	}
	f, err := os.Open(filepath.Join(w.root, name, base))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	head := make([]byte, 1<<16)
	n, err := io.ReadFull(f, head)
	if err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		return nil, err
	}
	head = head[:n]
	if len(head) < len(magic) || string(head[:len(magic)]) != magic {
		return nil, ErrCorrupt
	}
	r := &sliceReader{b: head[len(magic):]}
	fields, err := readFields(r)
	if err != nil {
		return nil, err
	}
	return table.NewSchema(fields...)
}

// checkPartitionSchema rejects a write whose schema differs from an existing
// partition's, so a warehouse never holds a table that ReadMonths cannot
// concatenate.
func (w *Warehouse) checkPartitionSchema(name string, month int, t *table.Table) error {
	months, err := w.Months(name)
	if err != nil || len(months) == 0 {
		return nil
	}
	probe := months[0]
	if probe == month && len(months) > 1 {
		probe = months[1]
	}
	if probe == month {
		return nil
	}
	existing, err := w.partitionSchema(name, probe)
	if err == nil && !existing.Equal(t.Schema) {
		return fmt.Errorf("store: schema mismatch for table %q: partition month=%d has %s, new partition has %s",
			name, probe, existing, t.Schema)
	}
	return nil
}

// removeShardFiles deletes month's shard-layout files except a kept set of
// keepOf shards (0 keeps none). Called after a layout-changing rewrite so
// the superseded layout stops shadowing per-shard reads; removal failures
// are ignored — a leftover file loses to the plain-wins resolution rule.
func (w *Warehouse) removeShardFiles(name string, month, keepOf int) {
	entries, err := os.ReadDir(filepath.Join(w.root, name))
	if err != nil {
		return
	}
	for _, e := range entries {
		p, ok := parsePartName(e.Name())
		if ok && p.month == month && p.of > 1 && p.of != keepOf {
			os.Remove(filepath.Join(w.root, name, e.Name()))
		}
	}
}

// DetectShards reports the shard count of the named table's newest committed
// month — 1 for the plain layout or an empty table — so tools can open a
// warehouse at the shard count it was written with.
func (w *Warehouse) DetectShards(name string) (int, error) {
	months, err := w.Months(name)
	if err != nil || len(months) == 0 {
		return 1, err
	}
	lay, err := w.layoutOf(name, months[len(months)-1])
	if err != nil {
		return 1, err
	}
	if !lay.plain && lay.of > 1 {
		return lay.of, nil
	}
	return 1, nil
}

// ShardedWarehouse is a fixed-shard-count view of a warehouse: writes split
// every table by hash of the imsi column into per-shard partition files, and
// ReadShard serves one slice of a month whatever layout is on disk. A
// 1-shard view writes the plain layout, bit-identical to a legacy warehouse.
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

// Warehouse returns the underlying warehouse.
func (sw *ShardedWarehouse) Warehouse() *Warehouse { return sw.w }

// Shards returns the view's shard count.
func (sw *ShardedWarehouse) Shards() int { return sw.shards }

// WritePartition stores t as partition month of the named table, split into
// per-shard files by hash of the imsi column. Each shard file commits
// atomically (temp + rename) through the same fault-hook seam as a plain
// write; superseded layouts are removed only after the full set is
// committed. Rewriting an existing month at the same shard count is atomic
// per shard file, not across the set — run re-shards against quiesced
// months.
func (sw *ShardedWarehouse) WritePartition(name string, month int, t *table.Table) error {
	if sw.shards == 1 {
		return sw.w.WritePartition(name, month, t)
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("store: refusing to write invalid table: %w", err)
	}
	ki := t.Schema.Index(shardKey)
	if ki < 0 || t.Schema.Fields[ki].Type != table.Int64 {
		return fmt.Errorf("store: sharded write of %q needs a BIGINT %q column", name, shardKey)
	}
	if err := sw.w.checkPartitionSchema(name, month, t); err != nil {
		return err
	}
	keys := t.Cols[ki].Ints
	idx := make([][]int, sw.shards)
	for i, k := range keys {
		s := table.ShardOf(k, sw.shards)
		idx[s] = append(idx[s], i)
	}
	dir := filepath.Join(sw.w.root, name)
	for s := 0; s < sw.shards; s++ {
		// One shard slice is materialized at a time, so the write path's
		// peak memory is the input table plus 1/N of it.
		part := t.Take(idx[s])
		dst := filepath.Join(dir, partName(month, s, sw.shards))
		if err := sw.w.runHook(OpWritePartition, name, month); err != nil {
			var cr *Crash
			if errors.As(err, &cr) {
				return sw.w.crashingWrite(cr, dir, dst, part)
			}
			return err
		}
		if err := sw.w.atomicWrite(dir, dst, part); err != nil {
			return err
		}
	}
	// Commit point for layout changes: drop the plain file and any
	// different-count shard sets now that the new set is complete.
	os.Remove(filepath.Join(dir, partName(month, 0, 1)))
	sw.w.removeShardFiles(name, month, sw.shards)
	return nil
}

// ReadShard loads shard's slice of one month. A committed shard set at the
// view's own count is read directly — one file, the out-of-core fast path.
// Plain or different-count layouts are read whole and filtered by hash,
// which keeps legacy warehouses and mid-re-shard months readable shard by
// shard at the cost of a full partition scan.
func (sw *ShardedWarehouse) ReadShard(name string, month, shard int) (*table.Table, error) {
	if shard < 0 || shard >= sw.shards {
		return nil, fmt.Errorf("store: shard %d out of range [0,%d)", shard, sw.shards)
	}
	if err := sw.w.runHook(OpReadPartition, name, month); err != nil {
		return nil, err
	}
	t, err := sw.readShard(name, month, shard)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		return nil, fmt.Errorf("store: read %s month=%d shard=%d/%d: %w", name, month, shard, sw.shards, err)
	}
	return t, nil
}

func (sw *ShardedWarehouse) readShard(name string, month, shard int) (*table.Table, error) {
	lay, err := sw.w.layoutOf(name, month)
	if err != nil {
		return nil, err
	}
	if !lay.plain && lay.of == sw.shards && sw.shards > 1 {
		return readTableFile(filepath.Join(sw.w.root, name, partName(month, shard, sw.shards)))
	}
	whole, err := sw.w.readMonth(name, month)
	if err != nil {
		return nil, err
	}
	if sw.shards == 1 {
		return whole, nil
	}
	col := whole.Col(shardKey)
	if col == nil || col.Type != table.Int64 {
		return nil, fmt.Errorf("store: table %q has no BIGINT %q column to shard by", name, shardKey)
	}
	keys := col.Ints
	return whole.Filter(func(i int) bool { return table.ShardOf(keys[i], sw.shards) == shard }), nil
}

// ShardReader is a features.TableReader view of a single shard: ReadMonths
// returns only that shard's rows of each table. core.RetrySource, fault
// injection and degraded-mode loading compose over it exactly as over a
// whole warehouse.
type ShardReader struct {
	sw    *ShardedWarehouse
	shard int
}

// ShardReader returns the reader for one shard of the view.
func (sw *ShardedWarehouse) ShardReader(shard int) *ShardReader {
	return &ShardReader{sw: sw, shard: shard}
}

// Shard reports which slice this reader serves.
func (r *ShardReader) Shard() int { return r.shard }

// ReadMonths reads the shard's slice of the given partitions, concatenated
// in month order.
func (r *ShardReader) ReadMonths(name string, months []int) (*table.Table, error) {
	var out *table.Table
	for _, m := range months {
		t, err := r.sw.ReadShard(name, m, r.shard)
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

// Block is one stored chunk of a table: the rows of a single partition file,
// with its position in the (month, shard) grid. Shards is the shard count of
// the block's month (1 = plain layout).
type Block struct {
	Month  int
	Shard  int
	Shards int
	Table  *table.Table
}

// BlockReader streams a table's committed partitions one file at a time in
// (month ascending, shard ascending) order, so consumers can scan
// arbitrarily large tables without materializing any whole month. The layout
// of every requested month is resolved at open time.
type BlockReader struct {
	w    *Warehouse
	name string
	refs []partInfo
	next int
}

// OpenBlocks opens a block stream over the given months of a table (nil
// months = every committed month, ascending). A requested month with no
// committed layout fails with fs.ErrNotExist.
func (w *Warehouse) OpenBlocks(name string, months []int) (*BlockReader, error) {
	if months == nil {
		var err error
		months, err = w.Months(name)
		if err != nil {
			return nil, err
		}
	}
	br := &BlockReader{w: w, name: name}
	for _, m := range months {
		lay, err := w.layoutOf(name, m)
		if err != nil {
			return nil, err
		}
		switch {
		case lay.plain:
			br.refs = append(br.refs, partInfo{month: m, shard: 0, of: 1})
		case lay.of > 0:
			for s := 0; s < lay.of; s++ {
				br.refs = append(br.refs, partInfo{month: m, shard: s, of: lay.of})
			}
		default:
			return nil, fmt.Errorf("store: open blocks %s month=%d: %w", name, m, fs.ErrNotExist)
		}
	}
	return br, nil
}

// Next returns the next block, or (nil, io.EOF) when the stream is drained.
// Each block read runs the partition read hook, like ReadPartition.
func (br *BlockReader) Next() (*Block, error) {
	if br.next >= len(br.refs) {
		return nil, io.EOF
	}
	ref := br.refs[br.next]
	br.next++
	if err := br.w.runHook(OpReadPartition, br.name, ref.month); err != nil {
		return nil, err
	}
	t, err := readTableFile(filepath.Join(br.w.root, br.name, partName(ref.month, ref.shard, ref.of)))
	if err != nil {
		return nil, fmt.Errorf("store: read %s month=%d shard=%d/%d: %w", br.name, ref.month, ref.shard, ref.of, err)
	}
	return &Block{Month: ref.month, Shard: ref.shard, Shards: ref.of, Table: t}, nil
}
