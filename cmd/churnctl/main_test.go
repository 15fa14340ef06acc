package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"telcochurn/internal/core"
	"telcochurn/internal/features"
	"telcochurn/internal/store"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
)

func TestGenerateAndInspect(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wh")
	if err := cmdGenerate([]string{"-out", dir, "-customers", "400", "-months", "2"}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 {
		t.Errorf("warehouse has %d tables, want 10", len(entries))
	}
	if err := cmdInspect([]string{"-warehouse", dir}); err != nil {
		t.Fatalf("inspect: %v", err)
	}
}

// TestGenerateDailyMatchesMonthly: landing the same world day by day
// through the event log gives byte-equal snapshot partitions, the same
// multiset of rows in every event partition (the daily landing stores them
// in day order) and an empty log; re-landing it replaces rather than
// appends; and a warehouse with pending events is refused untouched.
func TestGenerateDailyMatchesMonthly(t *testing.T) {
	dir := t.TempDir()
	monthly := filepath.Join(dir, "monthly")
	daily := filepath.Join(dir, "daily")
	gen := []string{"-customers", "300", "-months", "2", "-fsync", "off"}
	if err := cmdGenerate(append([]string{"-out", monthly}, gen...)); err != nil {
		t.Fatalf("monthly generate: %v", err)
	}
	for range 2 {
		if err := cmdGenerate(append([]string{"-out", daily, "-daily"}, gen...)); err != nil {
			t.Fatalf("daily generate: %v", err)
		}
	}
	mo, err := store.Open(monthly)
	if err != nil {
		t.Fatal(err)
	}
	da, err := store.Open(daily)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{synth.TableCustomers, synth.TableBilling, synth.TableTruth} {
		for m := 1; m <= 2; m++ {
			file := filepath.Join(name, fmt.Sprintf("month=%d.tct", m))
			want, err := os.ReadFile(filepath.Join(monthly, file))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(daily, file))
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s: daily landing differs from monthly (%v)", file, err)
			}
		}
	}
	for _, name := range features.StreamableTables {
		for m := 1; m <= 2; m++ {
			want, err := mo.ReadPartition(name, m)
			if err != nil {
				t.Fatal(err)
			}
			got, err := da.ReadPartition(name, m)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rowMultiset(got), rowMultiset(want)) {
				t.Errorf("%s month=%d: daily landing holds %d rows, monthly %d, or different ones", name, m, got.NumRows(), want.NumRows())
			}
		}
	}
	if segs, err := os.ReadDir(filepath.Join(daily, ".events")); err != nil || len(segs) != 0 {
		t.Errorf("event log after the daily landing: %d entries, %v; want empty", len(segs), err)
	}

	// Pending events of another origin would be merged into the generated
	// months, so the daily landing refuses and writes nothing.
	pending := filepath.Join(dir, "pending")
	wh, err := store.Open(pending)
	if err != nil {
		t.Fatal(err)
	}
	elog, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	calls, err := mo.ReadPartition(synth.TableCalls, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := elog.Append(map[string]*table.Table{synth.TableCalls: calls}); err != nil {
		t.Fatal(err)
	}
	if err := cmdGenerate(append([]string{"-out", pending, "-daily"}, gen...)); err == nil {
		t.Fatal("daily generate over a pending event segment succeeded")
	}
	if tables, err := wh.Tables(); err != nil || len(tables) != 0 {
		t.Errorf("refused daily generate wrote tables %v (%v)", tables, err)
	}
	if segs, err := os.ReadDir(elog.Dir()); err != nil || len(segs) != 1 {
		t.Errorf("refused daily generate left %d log entries (%v), want the 1 pending segment", len(segs), err)
	}
}

// rowMultiset renders each row of t as a string, sorted, so two tables
// holding the same rows in different orders compare equal.
func rowMultiset(t *table.Table) []string {
	rows := make([]string, t.NumRows())
	for i := range rows {
		var b strings.Builder
		for _, col := range t.Cols {
			switch col.Type {
			case table.Int64:
				fmt.Fprintf(&b, "%d|", col.Ints[i])
			case table.Float64:
				fmt.Fprintf(&b, "%x|", math.Float64bits(col.Floats[i]))
			default:
				fmt.Fprintf(&b, "%q|", col.Strings[i])
			}
		}
		rows[i] = b.String()
	}
	slices.Sort(rows)
	return rows
}

func TestEvalCheapExperiment(t *testing.T) {
	if err := cmdEval([]string{"tab1", "-customers", "500"}); err != nil {
		t.Fatalf("eval tab1: %v", err)
	}
}

func TestTrainScoreWorkflow(t *testing.T) {
	dir := t.TempDir()
	wh := filepath.Join(dir, "wh")
	model := filepath.Join(dir, "model.tcpa")
	if err := cmdGenerate([]string{"-out", wh, "-customers", "800", "-months", "4"}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := cmdTrain([]string{"-warehouse", wh, "-out", model, "-trees", "30", "-groups", "F1,F2"}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if fi, err := os.Stat(model); err != nil || fi.Size() == 0 {
		t.Fatalf("model file missing: %v", err)
	}
	if err := cmdScore([]string{"-warehouse", wh, "-model", model, "-top", "5"}); err != nil {
		t.Fatalf("score: %v", err)
	}
	if err := cmdScore([]string{"-warehouse", wh, "-model", model, "-top", "5", "-full"}); err != nil {
		t.Fatalf("score -full: %v", err)
	}
	// A non-artifact file must be rejected, not silently mis-scored.
	if err := cmdScore([]string{"-warehouse", wh, "-model", filepath.Join(wh, "truth", "month=1.tct")}); err == nil {
		t.Error("want error loading a non-artifact file")
	}

	// Degraded mode: with the web feed gone, strict scoring fails but
	// -degraded still produces the ranked list (F1 imputed, mask on stderr).
	if err := os.RemoveAll(filepath.Join(wh, "web")); err != nil {
		t.Fatal(err)
	}
	if err := cmdScore([]string{"-warehouse", wh, "-model", model, "-top", "5"}); err == nil {
		t.Error("strict score survived a missing raw table")
	}
	if err := cmdScore([]string{"-warehouse", wh, "-model", model, "-top", "5", "-degraded"}); err != nil {
		t.Fatalf("score -degraded: %v", err)
	}
}

func TestParseGroups(t *testing.T) {
	gs, err := parseGroups("F1, f3")
	if err != nil || len(gs) != 2 {
		t.Fatalf("parseGroups: %v %v", gs, err)
	}
	// Fitted-feature-model groups persist in the artifact, so every group
	// is trainable from the CLI.
	if gs, err := parseGroups("F7,F9"); err != nil || len(gs) != 2 {
		t.Errorf("parseGroups F7,F9: %v %v", gs, err)
	}
	if _, err := parseGroups("F42"); err == nil {
		t.Error("want error for unknown group")
	}
	if gs, _ := parseGroups("default"); len(gs) != 6 {
		t.Errorf("default groups = %d, want 6", len(gs))
	}
	if gs, _ := parseGroups("all"); len(gs) != 9 {
		t.Errorf("all groups = %d, want 9", len(gs))
	}
}

func TestEvalRejectsBadExperimentID(t *testing.T) {
	if err := cmdEval([]string{"nope", "-customers", "500"}); err == nil {
		t.Error("want error for unknown experiment id")
	}
	if err := cmdEval(nil); err == nil {
		t.Error("want error for missing experiment id")
	}
}

// TestScoreAfterMergeReadsWarehouse: after `ingest -merge` folds events
// into the month a -precompute artifact's snapshot describes, `score -full`
// prints the merged warehouse's scores — the bits PredictSharded (and
// churnd) give over it — not the train-time snapshot's.
func TestScoreAfterMergeReadsWarehouse(t *testing.T) {
	dir := t.TempDir()
	wh := filepath.Join(dir, "wh")
	model := filepath.Join(dir, "model.tcpa")
	if err := cmdGenerate([]string{"-out", wh, "-customers", "300", "-months", "4", "-fsync", "off"}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := cmdTrain([]string{"-warehouse", wh, "-out", model, "-trees", "10", "-precompute", "-fsync", "off"}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if err := cmdIngest([]string{"-warehouse", wh, "-synth", "200", "-merge", "-fsync", "off"}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	out, err := captureStdout(t, func() error {
		return cmdScore([]string{"-warehouse", wh, "-model", model, "-top", "0", "-full"})
	})
	if err != nil {
		t.Fatalf("score: %v", err)
	}

	pipe, err := core.LoadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	w, err := store.Open(wh)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := w.Sharded(1)
	if err != nil {
		t.Fatal(err)
	}
	days := synth.DefaultConfig().DaysPerMonth
	month := pipe.Vectors().Month()
	want, _, err := pipe.PredictSharded(core.NewShardedWarehouseSource(sw, days), features.MonthWindow(month, days))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := pipe.PredictVectors()
	if err != nil {
		t.Fatal(err)
	}
	wantBits := make(map[int64]uint64, len(want.IDs))
	for i, id := range want.IDs {
		wantBits[id] = math.Float64bits(want.Scores[i])
	}
	snapBits := make(map[int64]uint64, len(snap.IDs))
	for i, id := range snap.IDs {
		snapBits[id] = math.Float64bits(snap.Scores[i])
	}

	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(want.IDs)+1 {
		t.Fatalf("score printed %d rows, want %d customers", len(lines)-1, len(want.IDs))
	}
	moved := 0
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		id, _ := strconv.ParseInt(f[1], 10, 64)
		score, _ := strconv.ParseFloat(f[2], 64)
		bits, ok := wantBits[id]
		if !ok || math.Float64bits(score) != bits {
			t.Fatalf("imsi %d: score printed %s, merged warehouse scores %v", id, f[2], math.Float64frombits(bits))
		}
		if b, ok := snapBits[id]; ok && b != bits {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no score moved after the merge; the test would not tell the snapshot from the warehouse")
	}
}

// captureStdout runs f with os.Stdout redirected to a file and returns
// what it printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stdout
	os.Stdout = tmp
	ferr := f()
	os.Stdout = saved
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), ferr
}
