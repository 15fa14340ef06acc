package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"telcochurn/internal/table"
)

// eventTable builds a small event batch table keyed by imsi/month.
func eventTable(t *testing.T, rows ...[3]int64) *table.Table {
	t.Helper()
	tb := table.NewTable(table.MustSchema(
		table.Field{Name: "imsi", Type: table.Int64},
		table.Field{Name: "month", Type: table.Int64},
		table.Field{Name: "amount", Type: table.Float64},
	))
	for _, r := range rows {
		if err := tb.AppendRow(r[0], r[1], float64(r[2])); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestEventLogAppendReplay(t *testing.T) {
	wh := openTemp(t)
	log, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	if log.LastSeq() != 0 {
		t.Fatalf("fresh log LastSeq = %d, want 0", log.LastSeq())
	}

	seq1, err := log.Append(map[string]*table.Table{"recharges": eventTable(t, [3]int64{10, 1, 30})})
	if err != nil {
		t.Fatal(err)
	}
	seq2, err := log.Append(map[string]*table.Table{
		"recharges": eventTable(t, [3]int64{11, 1, 40}),
		"calls":     eventTable(t, [3]int64{10, 1, 5}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if seq1 != 1 || seq2 != 2 || log.LastSeq() != 2 {
		t.Fatalf("seqs = %d,%d last=%d, want 1,2,2", seq1, seq2, log.LastSeq())
	}

	// Replay order: ascending segments, tables in sorted order per segment.
	type rec struct {
		seq  uint64
		name string
		rows int
	}
	var got []rec
	if err := log.Replay(0, func(seq uint64, name string, tb *table.Table) error {
		got = append(got, rec{seq, name, tb.NumRows()})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []rec{{1, "recharges", 1}, {2, "calls", 1}, {2, "recharges", 1}}
	if len(got) != len(want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replayed %v, want %v", got, want)
		}
	}

	// Replay(after) skips merged prefixes.
	got = nil
	if err := log.Replay(1, func(seq uint64, name string, tb *table.Table) error {
		got = append(got, rec{seq, name, tb.NumRows()})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].seq != 2 {
		t.Fatalf("Replay(1) = %v, want only seq 2", got)
	}

	// A reopened log resumes numbering.
	log2, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	if log2.LastSeq() != 2 {
		t.Fatalf("reopened LastSeq = %d, want 2", log2.LastSeq())
	}
}

func TestEventLogRejectsBadBatches(t *testing.T) {
	wh := openTemp(t)
	log, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := log.Append(map[string]*table.Table{"recharges": eventTable(t)}); err == nil {
		t.Error("zero-row batch accepted")
	}
	noMonth := table.NewTable(table.MustSchema(table.Field{Name: "imsi", Type: table.Int64}))
	if err := noMonth.AppendRow(int64(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(map[string]*table.Table{"recharges": noMonth}); err == nil {
		t.Error("batch without month column accepted")
	}
}

// TestEventLogHiddenFromTables: the log directory is warehouse-internal.
func TestEventLogHiddenFromTables(t *testing.T) {
	wh := openTemp(t)
	if err := wh.WritePartition("calls", 1, sampleTable(t)); err != nil {
		t.Fatal(err)
	}
	log, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(map[string]*table.Table{"recharges": eventTable(t, [3]int64{10, 1, 30})}); err != nil {
		t.Fatal(err)
	}
	names, err := wh.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "calls" {
		t.Fatalf("Tables() = %v, want [calls]", names)
	}
}

// TestEventLogCrashNeverTearsSegment: the append-atomicity contract at
// every crash point — a segment is fully visible or absent, never torn.
func TestEventLogCrashNeverTearsSegment(t *testing.T) {
	for _, point := range []CrashPoint{CrashMidWrite, CrashBeforeRename, CrashAfterRename} {
		wh := openTemp(t)
		log, err := wh.EventLog()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := log.Append(map[string]*table.Table{"recharges": eventTable(t, [3]int64{10, 1, 30})}); err != nil {
			t.Fatal(err)
		}
		wh.SetHook(crashOnce(OpAppendEvents, point))
		_, err = log.Append(map[string]*table.Table{"recharges": eventTable(t, [3]int64{11, 1, 40})})
		var cr *Crash
		if !errors.As(err, &cr) || cr.Point != point {
			t.Fatalf("point=%d: append returned %v, want simulated crash", point, err)
		}
		wh.SetHook(nil)

		// Whatever survived must replay cleanly, and the second segment is
		// all-or-nothing.
		reopened, err := wh.EventLog()
		if err != nil {
			t.Fatal(err)
		}
		rows := 0
		if err := reopened.Replay(0, func(seq uint64, name string, tb *table.Table) error {
			rows += tb.NumRows()
			return nil
		}); err != nil {
			t.Fatalf("point=%d: replay over crash debris: %v", point, err)
		}
		wantRows := 1
		if point == CrashAfterRename {
			wantRows = 2
		}
		if rows != wantRows {
			t.Errorf("point=%d: replayed %d rows, want %d", point, rows, wantRows)
		}

		// Recovery: the next append lands after whatever committed.
		if _, err := reopened.Append(map[string]*table.Table{"recharges": eventTable(t, [3]int64{12, 1, 50})}); err != nil {
			t.Fatalf("point=%d: recovery append: %v", point, err)
		}
	}
}

// TestEventLogTwoHandlesKeepEveryBatch: two handles on one log — churnd
// and a churnctl ingest beside it — each append once. Both batches must
// replay; the second handle's segment must not overwrite the first's, and
// its sequence number moves past the one the first handle took.
func TestEventLogTwoHandlesKeepEveryBatch(t *testing.T) {
	wh := openTemp(t)
	a, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	b, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	seqA, err := a.Append(map[string]*table.Table{"recharges": eventTable(t, [3]int64{10, 1, 30})})
	if err != nil {
		t.Fatal(err)
	}
	seqB, err := b.Append(map[string]*table.Table{"recharges": eventTable(t, [3]int64{11, 1, 40})})
	if err != nil {
		t.Fatal(err)
	}
	if seqA != 1 || seqB != 2 {
		t.Fatalf("seqs = %d,%d, want 1,2", seqA, seqB)
	}
	// a's next number is taken too: it skips to 3.
	seqA2, err := a.Append(map[string]*table.Table{"recharges": eventTable(t, [3]int64{12, 1, 50})})
	if err != nil {
		t.Fatal(err)
	}
	if seqA2 != 3 {
		t.Fatalf("third append at seq %d, want 3", seqA2)
	}
	var imsis []int64
	if err := a.Replay(0, func(seq uint64, name string, tb *table.Table) error {
		imsis = append(imsis, tb.MustCol("imsi").Ints...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(imsis) != 3 || imsis[0] != 10 || imsis[1] != 11 || imsis[2] != 12 {
		t.Fatalf("replayed imsis %v, want [10 11 12]", imsis)
	}
	// No temp file outlives a commit.
	entries, err := os.ReadDir(a.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Errorf("log dir holds %d entries, want the 3 segments", len(entries))
	}
}

// TestEventLogMergeTwoHandles: a merge truncates every segment it
// replayed, not only those its own handle wrote. Handles A and B append one
// row each; A merges twice. The second merge finds an empty log, the
// partition holds the two rows once, and A's next append takes a number
// past every merged segment.
func TestEventLogMergeTwoHandles(t *testing.T) {
	wh := openTemp(t)
	a, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	b, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Append(map[string]*table.Table{"recharges": eventTable(t, [3]int64{10, 1, 30})}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Append(map[string]*table.Table{"recharges": eventTable(t, [3]int64{11, 1, 40})}); err != nil {
		t.Fatal(err)
	}
	if n, err := a.MergeInto(); err != nil || n != 2 {
		t.Fatalf("first merge = (%d, %v), want (2, nil)", n, err)
	}
	if n, err := a.MergeInto(); err != nil || n != 0 {
		t.Fatalf("second merge = (%d, %v), want (0, nil)", n, err)
	}
	got, err := wh.ReadPartition("recharges", 1)
	if err != nil {
		t.Fatal(err)
	}
	if imsi := got.MustCol("imsi").Ints; len(imsi) != 2 || imsi[0] != 10 || imsi[1] != 11 {
		t.Fatalf("partition imsis = %v, want [10 11]", imsi)
	}
	if seq, err := a.Append(map[string]*table.Table{"recharges": eventTable(t, [3]int64{12, 1, 50})}); err != nil || seq != 3 {
		t.Fatalf("append after merge: seq %d, %v; want seq 3", seq, err)
	}
}

func TestEventLogMergeInto(t *testing.T) {
	wh := openTemp(t)
	base := eventTable(t, [3]int64{10, 1, 100}, [3]int64{11, 1, 200})
	if err := wh.WritePartition("recharges", 1, base); err != nil {
		t.Fatal(err)
	}
	log, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	// Two batches, spanning an existing month, a new month, and a new table.
	if _, err := log.Append(map[string]*table.Table{
		"recharges": eventTable(t, [3]int64{10, 1, 30}, [3]int64{10, 2, 40}),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(map[string]*table.Table{
		"recharges": eventTable(t, [3]int64{11, 1, 50}),
		"calls":     eventTable(t, [3]int64{10, 1, 7}),
	}); err != nil {
		t.Fatal(err)
	}

	n, err := log.MergeInto()
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("merged %d rows, want 4", n)
	}

	// Month 1 of recharges: base rows in order, then events in log order.
	got, err := wh.ReadPartition("recharges", 1)
	if err != nil {
		t.Fatal(err)
	}
	wantIMSI := []int64{10, 11, 10, 11}
	wantAmt := []float64{100, 200, 30, 50}
	if got.NumRows() != len(wantIMSI) {
		t.Fatalf("month 1 rows = %d, want %d", got.NumRows(), len(wantIMSI))
	}
	for i := range wantIMSI {
		if got.MustCol("imsi").Ints[i] != wantIMSI[i] || got.MustCol("amount").Floats[i] != wantAmt[i] {
			t.Fatalf("month 1 row %d = (%d,%g), want (%d,%g)", i,
				got.MustCol("imsi").Ints[i], got.MustCol("amount").Floats[i], wantIMSI[i], wantAmt[i])
		}
	}
	// New month and new table materialized from events alone.
	if got, err = wh.ReadPartition("recharges", 2); err != nil || got.NumRows() != 1 {
		t.Fatalf("month 2: %v rows=%v", err, got)
	}
	if got, err = wh.ReadPartition("calls", 1); err != nil || got.NumRows() != 1 {
		t.Fatalf("calls month 1: %v", err)
	}

	// The epoch ended: log is empty, numbering restarts, second merge no-ops.
	if segs, _ := log.segments(); len(segs) != 0 {
		t.Fatalf("segments after merge: %v", segs)
	}
	if n, err := log.MergeInto(); err != nil || n != 0 {
		t.Fatalf("second merge = (%d, %v), want (0, nil)", n, err)
	}
}

// TestEventLogMergeIntoSharded: merging respects a sharded layout and
// preserves per-shard row order (base rows then events, within each shard).
func TestEventLogMergeIntoSharded(t *testing.T) {
	wh := openTemp(t)
	sw, err := wh.Sharded(4)
	if err != nil {
		t.Fatal(err)
	}
	base := eventTable(t,
		[3]int64{10, 1, 100}, [3]int64{11, 1, 200}, [3]int64{12, 1, 300}, [3]int64{13, 1, 400})
	if err := sw.WritePartition("recharges", 1, base); err != nil {
		t.Fatal(err)
	}
	log, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(map[string]*table.Table{
		"recharges": eventTable(t, [3]int64{12, 1, 5}, [3]int64{10, 1, 6}),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := log.MergeInto(); err != nil {
		t.Fatal(err)
	}

	// Layout stayed sharded.
	if n, err := wh.DetectShards("recharges"); err != nil || n != 4 {
		t.Fatalf("shards after merge = %d (%v), want 4", n, err)
	}
	// Each customer's rows, in order, are base then event.
	for s := 0; s < 4; s++ {
		part, err := sw.ReadShard("recharges", 1, s)
		if err != nil {
			t.Fatal(err)
		}
		imsi := part.MustCol("imsi").Ints
		for _, id := range imsi {
			if table.ShardOf(id, 4) != s {
				t.Fatalf("shard %d holds imsi %d", s, id)
			}
		}
	}
	whole, err := wh.ReadPartition("recharges", 1)
	if err != nil {
		t.Fatal(err)
	}
	if whole.NumRows() != 6 {
		t.Fatalf("merged rows = %d, want 6", whole.NumRows())
	}
	// Per-customer order: base amount before event amount.
	seen := map[int64][]float64{}
	for i, id := range whole.MustCol("imsi").Ints {
		seen[id] = append(seen[id], whole.MustCol("amount").Floats[i])
	}
	if v := seen[10]; len(v) != 2 || v[0] != 100 || v[1] != 6 {
		t.Fatalf("imsi 10 amounts = %v, want [100 6]", v)
	}
	if v := seen[12]; len(v) != 2 || v[0] != 300 || v[1] != 5 {
		t.Fatalf("imsi 12 amounts = %v, want [300 5]", v)
	}
}

// TestEventLogMergeMarker: an interrupted merge is detected, not repeated.
func TestEventLogMergeMarker(t *testing.T) {
	wh := openTemp(t)
	log, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(map[string]*table.Table{"recharges": eventTable(t, [3]int64{10, 1, 30})}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(log.Dir(), mergeMarker), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := log.MergeInto(); !errors.Is(err, ErrMergeInterrupted) {
		t.Fatalf("merge over marker = %v, want ErrMergeInterrupted", err)
	}
	if err := os.Remove(filepath.Join(log.Dir(), mergeMarker)); err != nil {
		t.Fatal(err)
	}
	if _, err := log.MergeInto(); err != nil {
		t.Fatalf("merge after marker removal: %v", err)
	}
}
