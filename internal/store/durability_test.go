package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"telcochurn/internal/table"
)

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want SyncPolicy
		bad  bool
	}{
		{in: "always", want: SyncPolicy{Mode: SyncAlways}},
		{in: "", want: SyncPolicy{Mode: SyncAlways}},
		{in: "off", want: SyncPolicy{Mode: SyncOff}},
		{in: "never", want: SyncPolicy{Mode: SyncOff}},
		{in: "500ms", want: SyncPolicy{Mode: SyncInterval, Interval: 500 * time.Millisecond}},
		{in: " 2s ", want: SyncPolicy{Mode: SyncInterval, Interval: 2 * time.Second}},
		{in: "0s", bad: true},
		{in: "-1s", bad: true},
		{in: "sometimes", bad: true},
	}
	for _, c := range cases {
		got, err := ParseSyncPolicy(c.in)
		if c.bad {
			if err == nil {
				t.Errorf("ParseSyncPolicy(%q) accepted, want error", c.in)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseSyncPolicy(%q) = (%+v, %v), want %+v", c.in, got, err, c.want)
		}
	}
}

// TestSyncModesRoundTrip: the commit protocol stays correct under every
// durability mode — a written partition reads back identical.
func TestSyncModesRoundTrip(t *testing.T) {
	for _, p := range []SyncPolicy{
		{Mode: SyncAlways},
		{Mode: SyncInterval, Interval: time.Hour},
		{Mode: SyncOff},
	} {
		wh := openTemp(t)
		wh.SetSync(p)
		want := sampleTable(t)
		if err := wh.WritePartition("calls", 1, want); err != nil {
			t.Fatalf("%s: write: %v", p, err)
		}
		got, err := wh.ReadPartition("calls", 1)
		if err != nil {
			t.Fatalf("%s: read: %v", p, err)
		}
		if got.NumRows() != want.NumRows() {
			t.Fatalf("%s: rows = %d, want %d", p, got.NumRows(), want.NumRows())
		}
	}
}

// TestSyncIntervalBatchesFlushes: interval mode queues commits and drains
// the whole queue on SyncNow; a commit older than the interval triggers a
// flush on its own.
func TestSyncIntervalBatchesFlushes(t *testing.T) {
	wh := openTemp(t)
	wh.SetSync(SyncPolicy{Mode: SyncInterval, Interval: time.Hour})
	for m := 1; m <= 3; m++ {
		if err := wh.WritePartition("calls", m, sampleTable(t)); err != nil {
			t.Fatal(err)
		}
	}
	wh.pend.mu.Lock()
	nf, nd := len(wh.pend.files), len(wh.pend.dirs)
	wh.pend.mu.Unlock()
	if nf != 3 || nd != 1 {
		t.Fatalf("pending = %d files / %d dirs, want 3 / 1", nf, nd)
	}
	if err := wh.SyncNow(); err != nil {
		t.Fatalf("SyncNow: %v", err)
	}
	wh.pend.mu.Lock()
	nf = len(wh.pend.files)
	wh.pend.mu.Unlock()
	if nf != 0 {
		t.Fatalf("pending after SyncNow = %d files, want 0", nf)
	}
	// Idempotent with nothing queued.
	if err := wh.SyncNow(); err != nil {
		t.Fatalf("empty SyncNow: %v", err)
	}

	// A zero-length interval makes every commit immediately due.
	wh.SetSync(SyncPolicy{Mode: SyncInterval, Interval: time.Nanosecond})
	if err := wh.WritePartition("calls", 9, sampleTable(t)); err != nil {
		t.Fatal(err)
	}
	wh.pend.mu.Lock()
	nf = len(wh.pend.files)
	wh.pend.mu.Unlock()
	if nf != 0 {
		t.Fatalf("due commit left %d files pending, want 0", nf)
	}
}

// TestSyncNowSurvivesVanishedFiles: queued commits that were superseded or
// deleted before the flush (shard cleanup, truncated segments) are skipped,
// not errors.
func TestSyncNowSurvivesVanishedFiles(t *testing.T) {
	wh := openTemp(t)
	wh.SetSync(SyncPolicy{Mode: SyncInterval, Interval: time.Hour})
	if err := wh.WritePartition("calls", 1, sampleTable(t)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(wh.Root(), "calls", "month=1.tct")); err != nil {
		t.Fatal(err)
	}
	if err := wh.SyncNow(); err != nil {
		t.Fatalf("SyncNow over removed file: %v", err)
	}
}

// corruptTail flips the final byte (part of the CRC) of the segment file.
func corruptTail(t *testing.T, log *EventLog, seq uint64) {
	t.Helper()
	path := filepath.Join(log.Dir(), segName(seq))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestEventLogQuarantinesCorruptTail: a CRC-bad tail segment is moved to a
// .quarantine sidecar, every earlier batch still replays, and the log keeps
// accepting appends with no sequence reuse.
func TestEventLogQuarantinesCorruptTail(t *testing.T) {
	wh := openTemp(t)
	log, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	for i := 0; i < n; i++ {
		if _, err := log.Append(map[string]*table.Table{
			"recharges": eventTable(t, [3]int64{int64(10 + i), 1, 30}),
		}); err != nil {
			t.Fatal(err)
		}
	}
	corruptTail(t, log, n)

	// A "restart": reopen the log and replay, as churnd's boot does.
	reopened, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	if err := reopened.Replay(0, func(seq uint64, name string, tb *table.Table) error {
		seqs = append(seqs, seq)
		return nil
	}); err != nil {
		t.Fatalf("replay over corrupt tail: %v", err)
	}
	if len(seqs) != n-1 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("replayed seqs %v, want [1 2]", seqs)
	}

	q := reopened.Quarantines()
	if len(q) != 1 || q[0].Seq != n {
		t.Fatalf("Quarantines() = %+v, want one record for seq %d", q, n)
	}
	if !strings.Contains(q[0].Err, "checksum") {
		t.Errorf("quarantine cause %q does not mention the checksum", q[0].Err)
	}
	if _, err := os.Stat(q[0].Path); err != nil {
		t.Fatalf("quarantine sidecar missing: %v", err)
	}
	if !strings.HasSuffix(q[0].Path, segName(n)+".quarantine") {
		t.Errorf("sidecar path = %q", q[0].Path)
	}
	if _, err := os.Stat(filepath.Join(reopened.Dir(), segName(n))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("condemned segment still present: %v", err)
	}

	// A second replay is clean (the sidecar is invisible), and numbering
	// never hands out the condemned sequence again.
	seqs = nil
	if err := reopened.Replay(0, func(seq uint64, name string, tb *table.Table) error {
		seqs = append(seqs, seq)
		return nil
	}); err != nil {
		t.Fatalf("second replay: %v", err)
	}
	if len(seqs) != n-1 {
		t.Fatalf("second replay saw %v", seqs)
	}
	seq, err := reopened.Append(map[string]*table.Table{
		"recharges": eventTable(t, [3]int64{99, 1, 30}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if seq != n+1 {
		t.Fatalf("post-quarantine append got seq %d, want %d", seq, n+1)
	}
}

// TestEventLogQuarantinesTornTail: a truncated (torn) tail frame counts as
// corruption and quarantines the same way.
func TestEventLogQuarantinesTornTail(t *testing.T) {
	wh := openTemp(t)
	log, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := log.Append(map[string]*table.Table{
			"recharges": eventTable(t, [3]int64{int64(10 + i), 1, 30}),
		}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(log.Dir(), segName(2))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()-1); err != nil {
		t.Fatal(err)
	}

	reopened, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	if err := reopened.Replay(0, func(seq uint64, name string, tb *table.Table) error {
		rows += tb.NumRows()
		return nil
	}); err != nil {
		t.Fatalf("replay over torn tail: %v", err)
	}
	if rows != 1 {
		t.Fatalf("replayed %d rows, want 1", rows)
	}
	if q := reopened.Quarantines(); len(q) != 1 || q[0].Seq != 2 {
		t.Fatalf("Quarantines() = %+v", q)
	}
}

// TestEventLogCorruptMiddleStaysFatal: corruption before the tail means
// later segments depend on lost events — replay must fail hard, and
// nothing is quarantined.
func TestEventLogCorruptMiddleStaysFatal(t *testing.T) {
	wh := openTemp(t)
	log, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := log.Append(map[string]*table.Table{
			"recharges": eventTable(t, [3]int64{int64(10 + i), 1, 30}),
		}); err != nil {
			t.Fatal(err)
		}
	}
	corruptTail(t, log, 2)

	reopened, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	err = reopened.Replay(0, func(seq uint64, name string, tb *table.Table) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay over corrupt middle = %v, want ErrCorrupt", err)
	}
	if q := reopened.Quarantines(); len(q) != 0 {
		t.Fatalf("middle corruption quarantined: %+v", q)
	}
	if _, err := os.Stat(filepath.Join(reopened.Dir(), segName(2))); err != nil {
		t.Fatalf("corrupt middle segment moved: %v", err)
	}
}

// TestEventLogQuarantineInsideMergeInto: MergeInto's internal replay holds
// the append mutex; quarantining the tail from inside it must not deadlock,
// and the merge applies the surviving prefix.
func TestEventLogQuarantineInsideMergeInto(t *testing.T) {
	wh := openTemp(t)
	log, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := log.Append(map[string]*table.Table{
			"recharges": eventTable(t, [3]int64{int64(10 + i), 1, 30}),
		}); err != nil {
			t.Fatal(err)
		}
	}
	corruptTail(t, log, 3)

	done := make(chan struct{})
	var n int
	var mergeErr error
	go func() {
		defer close(done)
		n, mergeErr = log.MergeInto()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("MergeInto deadlocked on quarantine")
	}
	if mergeErr != nil {
		t.Fatalf("merge over corrupt tail: %v", mergeErr)
	}
	if n != 2 {
		t.Fatalf("merged %d rows, want 2", n)
	}
	part, err := wh.ReadPartition("recharges", 1)
	if err != nil || part.NumRows() != 2 {
		t.Fatalf("merged partition: rows=%v err=%v", part, err)
	}
}

// BenchmarkWritePartition quantifies the fsync-mode tradeoff documented in
// DESIGN.md §15 (always pays ~2 fsyncs per commit; off pays none).
func BenchmarkWritePartition(b *testing.B) {
	tb := table.NewTable(table.MustSchema(
		table.Field{Name: "imsi", Type: table.Int64},
		table.Field{Name: "month", Type: table.Int64},
		table.Field{Name: "amount", Type: table.Float64},
	))
	for i := 0; i < 1000; i++ {
		if err := tb.AppendRow(int64(i), int64(1), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range []SyncPolicy{{Mode: SyncAlways}, {Mode: SyncInterval, Interval: 100 * time.Millisecond}, {Mode: SyncOff}} {
		b.Run("fsync="+p.String(), func(b *testing.B) {
			wh, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			wh.SetSync(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := wh.WritePartition("calls", 1, tb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadPartition times one partition read back from disk, file read
// and column decode, on the call log's shape: 7-digit ids (three-byte
// varints), small codes and flags (one byte each) and float measurements.
// With BenchmarkWritePartition it gives the codec layer its before/after.
func BenchmarkReadPartition(b *testing.B) {
	tb := table.NewTable(table.MustSchema(
		table.Field{Name: "imsi", Type: table.Int64},
		table.Field{Name: "peer", Type: table.Int64},
		table.Field{Name: "day", Type: table.Int64},
		table.Field{Name: "kind", Type: table.Int64},
		table.Field{Name: "success", Type: table.Int64},
		table.Field{Name: "dropped", Type: table.Int64},
		table.Field{Name: "dur", Type: table.Float64},
		table.Field{Name: "mos", Type: table.Float64},
	))
	for i := 0; i < 20000; i++ {
		if err := tb.AppendRow(int64(1_000_000+i*37%5000), int64(1_000_000+i*101%5000), int64(i%30+1),
			int64(i%4), int64(i%9/8), int64(i%31/30), float64(i%977)*1.5, 3+float64(i%13)/10); err != nil {
			b.Fatal(err)
		}
	}
	wh, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	wh.SetSync(SyncPolicy{Mode: SyncOff})
	if err := wh.WritePartition("calls", 1, tb); err != nil {
		b.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(wh.Root(), "calls", partName(1, 0, 1)))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(info.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wh.ReadPartition("calls", 1); err != nil {
			b.Fatal(err)
		}
	}
}
