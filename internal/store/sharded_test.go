package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"telcochurn/internal/table"
)

// wideTable builds a table with n customer-keyed rows, ids starting at base.
func wideTable(t *testing.T, base int64, n int) *table.Table {
	t.Helper()
	tb := table.NewTable(table.MustSchema(
		table.Field{Name: "imsi", Type: table.Int64},
		table.Field{Name: "dur", Type: table.Float64},
	))
	for i := 0; i < n; i++ {
		if err := tb.AppendRow(base+int64(i), float64(i)+0.5); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// rowSet canonicalizes a table into id->values rows for order-free equality.
func rowSet(t *testing.T, tb *table.Table) map[int64]float64 {
	t.Helper()
	out := make(map[int64]float64, tb.NumRows())
	ids := tb.MustCol("imsi").Ints
	durs := tb.MustCol("dur").Floats
	for i, id := range ids {
		out[id] = durs[i]
	}
	if len(out) != tb.NumRows() {
		t.Fatal("duplicate ids in fixture")
	}
	return out
}

func TestShardOfRangeAndStability(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 16} {
		counts := make([]int, shards)
		for id := int64(0); id < 4000; id++ {
			s := table.ShardOf(id, shards)
			if s < 0 || s >= shards {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", id, shards, s)
			}
			if s != table.ShardOf(id, shards) {
				t.Fatalf("ShardOf not deterministic for id=%d", id)
			}
			counts[s]++
		}
		for s, c := range counts {
			if shards > 1 && (c < 4000/shards/2 || c > 4000/shards*2) {
				t.Fatalf("shards=%d: shard %d got %d of 4000 ids — badly skewed", shards, s, c)
			}
		}
	}
}

func TestShardedWriteReadRoundTrip(t *testing.T) {
	wh := openTemp(t)
	sw, err := wh.Sharded(4)
	if err != nil {
		t.Fatal(err)
	}
	want := wideTable(t, 100, 57)
	if err := sw.WritePartition("calls", 2, want); err != nil {
		t.Fatal(err)
	}

	// The whole month reads back as the same row set via the plain API.
	got, err := wh.ReadPartition("calls", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rowSet(t, got), rowSet(t, want)) {
		t.Fatal("sharded month does not read back to the written rows")
	}

	// Shards are disjoint, hash-correct, and union to the whole.
	total := 0
	for s := 0; s < 4; s++ {
		part, err := sw.ReadShard("calls", 2, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range part.MustCol("imsi").Ints {
			if table.ShardOf(id, 4) != s {
				t.Fatalf("id %d in shard %d, want shard %d", id, s, table.ShardOf(id, 4))
			}
		}
		total += part.NumRows()
	}
	if total != want.NumRows() {
		t.Fatalf("shards union to %d rows, want %d", total, want.NumRows())
	}

	if months, _ := wh.Months("calls"); !reflect.DeepEqual(months, []int{2}) {
		t.Fatalf("Months = %v, want [2]", months)
	}
	if !wh.HasPartition("calls", 2) || wh.HasPartition("calls", 3) {
		t.Fatal("HasPartition misreports sharded layout")
	}
	if n, _ := wh.DetectShards("calls"); n != 4 {
		t.Fatalf("DetectShards = %d, want 4", n)
	}
}

func TestShardedEmptyShardAndMoreShardsThanCustomers(t *testing.T) {
	wh := openTemp(t)
	sw, err := wh.Sharded(8)
	if err != nil {
		t.Fatal(err)
	}
	// 3 customers over 8 shards: most shards are empty, and empty must be
	// readable (not missing — empty != absent distinguishes a committed
	// no-rows shard from an uncommitted partition).
	want := wideTable(t, 7, 3)
	if err := sw.WritePartition("calls", 1, want); err != nil {
		t.Fatal(err)
	}
	nonEmpty, total := 0, 0
	for s := 0; s < 8; s++ {
		part, err := sw.ReadShard("calls", 1, s)
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		if part.NumRows() > 0 {
			nonEmpty++
		}
		total += part.NumRows()
	}
	if total != 3 || nonEmpty > 3 {
		t.Fatalf("read back %d rows in %d shards, want 3 rows in <=3 shards", total, nonEmpty)
	}
}

func TestShardedAllInOneShard(t *testing.T) {
	wh := openTemp(t)
	sw, err := wh.Sharded(4)
	if err != nil {
		t.Fatal(err)
	}
	// Collect ids that all hash to one shard.
	target := table.ShardOf(1, 4)
	tb := table.NewTable(table.MustSchema(
		table.Field{Name: "imsi", Type: table.Int64},
		table.Field{Name: "dur", Type: table.Float64},
	))
	n := 0
	for id := int64(1); n < 20; id++ {
		if table.ShardOf(id, 4) == target {
			if err := tb.AppendRow(id, float64(id)); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	if err := sw.WritePartition("calls", 1, tb); err != nil {
		t.Fatal(err)
	}
	full, err := sw.ReadShard("calls", 1, target)
	if err != nil {
		t.Fatal(err)
	}
	if full.NumRows() != 20 {
		t.Fatalf("loaded shard has %d rows, want 20", full.NumRows())
	}
	for s := 0; s < 4; s++ {
		if s == target {
			continue
		}
		empty, err := sw.ReadShard("calls", 1, s)
		if err != nil || empty.NumRows() != 0 {
			t.Fatalf("shard %d: rows=%v err=%v, want empty", s, empty.NumRows(), err)
		}
	}
}

func TestShardReadsLegacyPlainLayout(t *testing.T) {
	wh := openTemp(t)
	want := wideTable(t, 1000, 33)
	if err := wh.WritePartition("calls", 5, want); err != nil {
		t.Fatal(err)
	}
	// A sharded view over a TCPA-era plain warehouse filters by hash.
	sw, err := wh.Sharded(4)
	if err != nil {
		t.Fatal(err)
	}
	merged := map[int64]float64{}
	for s := 0; s < 4; s++ {
		part, err := sw.ReadShard("calls", 5, s)
		if err != nil {
			t.Fatal(err)
		}
		for id, v := range rowSet(t, part) {
			merged[id] = v
		}
	}
	if !reflect.DeepEqual(merged, rowSet(t, want)) {
		t.Fatal("sharded view of plain layout loses rows")
	}
	if n, _ := wh.DetectShards("calls"); n != 1 {
		t.Fatalf("DetectShards on plain layout = %d, want 1", n)
	}
}

func TestReshardReplacesLayout(t *testing.T) {
	wh := openTemp(t)
	want := wideTable(t, 500, 41)
	sw4, _ := wh.Sharded(4)
	if err := sw4.WritePartition("calls", 1, want); err != nil {
		t.Fatal(err)
	}
	sw8, _ := wh.Sharded(8)
	if err := sw8.WritePartition("calls", 1, want); err != nil {
		t.Fatal(err)
	}
	if n, _ := wh.DetectShards("calls"); n != 8 {
		t.Fatalf("DetectShards after re-shard = %d, want 8", n)
	}
	entries, err := os.ReadDir(filepath.Join(wh.Root(), "calls"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 8 {
		t.Fatalf("re-shard left %d files, want 8", len(entries))
	}
	got, err := wh.ReadPartition("calls", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rowSet(t, got), rowSet(t, want)) {
		t.Fatal("re-sharded month does not read back")
	}
	// Writing plain over a sharded month supersedes the set too.
	if err := wh.WritePartition("calls", 1, want); err != nil {
		t.Fatal(err)
	}
	if n, _ := wh.DetectShards("calls"); n != 1 {
		t.Fatalf("DetectShards after plain rewrite = %d, want 1", n)
	}
}

func TestIncompleteShardSetReadsAsAbsent(t *testing.T) {
	wh := openTemp(t)
	sw, _ := wh.Sharded(4)
	want := wideTable(t, 100, 30)
	if err := sw.WritePartition("calls", 1, want); err != nil {
		t.Fatal(err)
	}
	// Delete one shard file: the set is no longer committed.
	if err := os.Remove(filepath.Join(wh.Root(), "calls", "month=1.shard=2of4.tct")); err != nil {
		t.Fatal(err)
	}
	if _, err := wh.ReadPartition("calls", 1); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("ReadPartition on incomplete set: %v, want fs.ErrNotExist", err)
	}
	if wh.HasPartition("calls", 1) {
		t.Fatal("HasPartition reports an incomplete shard set")
	}
	if months, _ := wh.Months("calls"); len(months) != 0 {
		t.Fatalf("Months lists incomplete set: %v", months)
	}
}

func TestShardedSchemaMismatchRejected(t *testing.T) {
	wh := openTemp(t)
	sw, _ := wh.Sharded(4)
	if err := sw.WritePartition("calls", 1, wideTable(t, 100, 10)); err != nil {
		t.Fatal(err)
	}
	other := table.NewTable(table.MustSchema(
		table.Field{Name: "imsi", Type: table.Int64},
		table.Field{Name: "other", Type: table.Float64},
	))
	if err := other.AppendRow(int64(1), 1.0); err != nil {
		t.Fatal(err)
	}
	if err := sw.WritePartition("calls", 2, other); err == nil {
		t.Fatal("sharded write with mismatched schema accepted")
	}
	if err := wh.WritePartition("calls", 2, other); err == nil {
		t.Fatal("plain write with mismatched schema accepted over sharded layout")
	}
}

func TestShardReaderConcatenatesMonths(t *testing.T) {
	wh := openTemp(t)
	sw, _ := wh.Sharded(2)
	if err := sw.WritePartition("calls", 1, wideTable(t, 100, 10)); err != nil {
		t.Fatal(err)
	}
	if err := sw.WritePartition("calls", 2, wideTable(t, 200, 10)); err != nil {
		t.Fatal(err)
	}
	var total int
	for s := 0; s < 2; s++ {
		got, err := sw.ShardReader(s).ReadMonths("calls", []int{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range got.MustCol("imsi").Ints {
			if table.ShardOf(id, 2) != s {
				t.Fatalf("id %d leaked into shard %d", id, s)
			}
		}
		total += got.NumRows()
	}
	if total != 20 {
		t.Fatalf("shard readers return %d rows, want 20", total)
	}
}

// TestShardedWriteMatchesTakePath pins the copy-free shard write to the
// bytes of encoding each shard's t.Take copy: every column type, rows in
// table order, and shards left empty.
func TestShardedWriteMatchesTakePath(t *testing.T) {
	tb := table.NewTable(table.MustSchema(
		table.Field{Name: "imsi", Type: table.Int64},
		table.Field{Name: "dur", Type: table.Float64},
		table.Field{Name: "text", Type: table.String},
	))
	// Ids drawn from a few customers, so some of the 8 shards stay empty.
	for i := 0; i < 300; i++ {
		id := int64(1_000_000 + (i*7)%5)
		if err := tb.AppendRow(id, float64(i)/3, fmt.Sprintf("q%d", i%11)); err != nil {
			t.Fatal(err)
		}
	}
	const shards = 8
	wh := openTemp(t)
	sw, err := wh.Sharded(shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WritePartition("search", 1, tb); err != nil {
		t.Fatal(err)
	}
	idx := make([][]int, shards)
	for i, id := range tb.MustCol("imsi").Ints {
		s := table.ShardOf(id, shards)
		idx[s] = append(idx[s], i)
	}
	empty := 0
	for s := range shards {
		var want bytes.Buffer
		if err := writeTable(&want, tb.Take(idx[s]), nil); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(wh.root, "search", partName(1, s, shards)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("shard %d: %d bytes differ from the Take path's %d", s, len(got), want.Len())
		}
		if len(idx[s]) == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatal("fixture left no shard empty")
	}
}
