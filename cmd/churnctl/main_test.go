package main

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
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

	// inspect reads the two landings alike, with no pending "events" line,
	// and the frame build reads the daily one. Its checksum is not
	// compared: calls are stored in day order, so per-customer call sums
	// run in another order (DESIGN.md §12).
	if m, d := inspect(t, monthly), inspect(t, daily); d != m {
		t.Errorf("inspect of the daily landing:\n%s\nof the monthly one:\n%s", d, m)
	}
	builtChecksum(t, "-warehouse", daily)

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

// inspect returns churnctl inspect's report of the warehouse at dir.
func inspect(t *testing.T, dir string) string {
	t.Helper()
	out, _ := run(t, cmdInspect, "-warehouse", dir)
	return out
}

// builtChecksum runs churnctl build -checksum with args and returns the
// checksum it prints.
func builtChecksum(t *testing.T, args ...string) string {
	t.Helper()
	out, _ := run(t, cmdBuild, append(args, "-checksum")...)
	m := regexp.MustCompile(`(?m)^frame_checksum=([0-9a-f]{16})$`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("build %v printed no checksum:\n%s", args, out)
	}
	return m[1]
}

// TestLandingsScoreAndBuildIdentically is the layout contract at the CLI.
// One world landed plain and 4-way sharded inspects to the same row counts
// and builds to the same frame checksum. Under one model both landings
// print the same ranked list, strict and -degraded with the web feed gone
// (the same mask on stderr), and build -degraded reports the shards and
// rows it streamed. A -precompute artifact prints the same list, also with
// no warehouse at all, where a plain artifact refuses to score.
func TestLandingsScoreAndBuildIdentically(t *testing.T) {
	dir := t.TempDir()
	wh1, wh4 := filepath.Join(dir, "wh1"), filepath.Join(dir, "wh4")
	gen := []string{"-customers", "300", "-months", "4", "-fsync", "off"}
	run(t, cmdGenerate, append([]string{"-out", wh1, "-shards", "1"}, gen...)...)
	run(t, cmdGenerate, append([]string{"-out", wh4, "-shards", "4"}, gen...)...)

	plain, sharded := inspect(t, wh1), inspect(t, wh4)
	if !strings.Contains(sharded, " shards=4\n") || strings.ReplaceAll(sharded, " shards=4\n", "\n") != plain {
		t.Errorf("inspect of the sharded landing:\n%s\nof the plain one:\n%s", sharded, plain)
	}
	if a, b := builtChecksum(t, "-warehouse", wh1), builtChecksum(t, "-warehouse", wh4); a != b {
		t.Errorf("frame checksum %s for 1 shard, %s for 4", a, b)
	}

	model, snapshot := filepath.Join(dir, "model.tcpa"), filepath.Join(dir, "snapshot.tcpa")
	train := []string{"-warehouse", wh4, "-trees", "10", "-fsync", "off"}
	run(t, cmdTrain, append(train, "-out", model)...)
	if out, _ := run(t, cmdTrain, append(train, "-out", snapshot, "-precompute")...); !regexp.MustCompile(`precomputed [1-9][0-9]* serving vectors`).MatchString(out) {
		t.Errorf("train -precompute reported no snapshot: %s", out)
	}
	score := func(wh, model string, flags ...string) (string, string) {
		t.Helper()
		return run(t, cmdScore, append([]string{"-warehouse", wh, "-model", model, "-top", "0", "-full"}, flags...)...)
	}
	want, _ := score(wh4, model)
	if rows := strings.Count(want, "\n") - 1; rows < 100 {
		t.Fatalf("score over the sharded landing printed %d rows", rows)
	}
	if got, _ := score(wh1, model); got != want {
		t.Error("plain and sharded landings score differently")
	}
	if got, _ := score(wh4, snapshot); got != want {
		t.Error("a -precompute artifact scores differently over the warehouse")
	}

	var degraded [2]string
	for i, wh := range []string{wh1, wh4} {
		if err := os.RemoveAll(filepath.Join(wh, synth.TableWeb)); err != nil {
			t.Fatal(err)
		}
		var stderr string
		degraded[i], stderr = score(wh, model, "-degraded")
		if !strings.Contains(stderr, "degraded groups: F1,F3\n") {
			t.Errorf("score -degraded over %s reported no F1,F3 mask on stderr: %q", wh, stderr)
		}
	}
	if degraded[0] != degraded[1] || degraded[0] == want {
		t.Error("degraded scores differ between landings, or equal the healthy ones")
	}
	if out, _ := run(t, cmdBuild, "-warehouse", wh4, "-degraded"); !regexp.MustCompile(`shards=4 raw_rows=[1-9]`).MatchString(out) {
		t.Errorf("build -degraded did not report its shards and rows: %s", out)
	}

	if err := os.RemoveAll(wh4); err != nil {
		t.Fatal(err)
	}
	if got, _ := score(wh4, snapshot); got != want {
		t.Error("the snapshot scores differently with no warehouse")
	}
	if _, _, err := captureOutput(t, func() error {
		return cmdScore([]string{"-warehouse", wh4, "-model", model, "-top", "5"})
	}); err == nil {
		t.Error("a plain artifact scored with no warehouse")
	}
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
	// A missing warehouse is an error naming it, not an empty warehouse
	// created in its place.
	missing := filepath.Join(dir, "no-such-warehouse")
	if err := cmdScore([]string{"-warehouse", missing, "-model", model}); err == nil || !strings.Contains(err.Error(), missing) {
		t.Errorf("score on a missing warehouse: err = %v, want one naming %s", err, missing)
	}
	if _, err := os.Stat(missing); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("score created the missing warehouse directory (stat: %v)", err)
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

// TestEvalRunsEveryID: every id before the first flag runs, at the flags'
// settings, and an id left after the flags or an unknown one is refused
// by name before anything runs.
func TestEvalRunsEveryID(t *testing.T) {
	stdout, _ := run(t, cmdEval, "tab1", "fig1", "-customers", "300")
	for _, header := range []string{"== tab1 ==\n", "== fig1 ==\n"} {
		if !strings.Contains(stdout, header) {
			t.Errorf("eval tab1 fig1 printed no %q section:\n%s", header, stdout)
		}
	}
	if !regexp.MustCompile(`(?m)^Month 1 +\d+ +\d+ +300 `).MatchString(stdout) {
		t.Errorf("tab1 did not run at -customers 300:\n%s", stdout)
	}
	for _, c := range []struct {
		args []string
		bad  string
	}{
		{[]string{"tab1", "-customers", "300", "fig9"}, "fig9"},
		{[]string{"tab1", "nope", "-customers", "300"}, "nope"},
	} {
		stdout, _, err := captureOutput(t, func() error { return cmdEval(c.args) })
		if err == nil || !strings.Contains(err.Error(), `"`+c.bad+`"`) {
			t.Errorf("eval %v: err = %v, want one naming %q", c.args, err, c.bad)
		}
		if stdout != "" {
			t.Errorf("eval %v ran experiments before refusing:\n%s", c.args, stdout)
		}
	}
}

// TestIngestRejectsEmptyBatch: `ingest -events` of an empty batch fails
// with the error churnd answers such a post with (400), and appends
// nothing, instead of exiting 0.
func TestIngestRejectsEmptyBatch(t *testing.T) {
	dir := t.TempDir()
	wh := filepath.Join(dir, "wh")
	if err := cmdGenerate([]string{"-out", wh, "-customers", "40", "-months", "2", "-fsync", "off"}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	events := filepath.Join(dir, "events.json")
	if err := os.WriteFile(events, []byte(`{"events":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, _, err := captureOutput(t, func() error {
		return cmdIngest([]string{"-warehouse", wh, "-events", events, "-fsync", "off"})
	})
	if err == nil || !strings.Contains(err.Error(), "empty event batch") {
		t.Fatalf("ingest of an empty batch: err = %v, want the empty event batch error", err)
	}
	if stdout != "" {
		t.Errorf("ingest of an empty batch printed %q", stdout)
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
	if out, _ := run(t, cmdIngest, "-warehouse", wh, "-synth", "200", "-merge", "-fsync", "off"); !regexp.MustCompile(`merged [1-9]`).MatchString(out) {
		t.Fatalf("ingest -merge folded no logged rows: %q", out)
	}
	out, _ := run(t, cmdScore, "-warehouse", wh, "-model", model, "-top", "0", "-full")

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

// captureOutput runs f with os.Stdout and os.Stderr redirected to files
// and returns what it printed on each.
func captureOutput(t *testing.T, f func() error) (stdout, stderr string, err error) {
	t.Helper()
	dir := t.TempDir()
	files := [2]*os.File{}
	for i := range files {
		if files[i], err = os.CreateTemp(dir, "out"); err != nil {
			t.Fatal(err)
		}
		defer files[i].Close()
	}
	savedOut, savedErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = files[0], files[1]
	ferr := f()
	os.Stdout, os.Stderr = savedOut, savedErr
	var out [2][]byte
	for i, f := range files {
		if out[i], err = os.ReadFile(f.Name()); err != nil {
			t.Fatal(err)
		}
	}
	return string(out[0]), string(out[1]), ferr
}

// run runs one churnctl command in process and returns its stdout and
// stderr, failing the test if it errs.
func run(t *testing.T, cmd func([]string) error, args ...string) (stdout, stderr string) {
	t.Helper()
	stdout, stderr, err := captureOutput(t, func() error { return cmd(args) })
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, stderr)
	}
	return stdout, stderr
}
