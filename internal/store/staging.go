package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"telcochurn/internal/table"
)

// Daily staging: the paper's platform lands ~2.3 TB of new BSS/OSS records
// per day and summarizes them monthly ("some big tables for feature
// engineering are summarized automatically by BSS monthly", Section 5.4).
// The warehouse mirrors that flow: days are staged as they arrive under
//
//	<root>/<table>/staging/month=<m>/day=<d>.tct
//
// and CompactMonth folds a completed month's days into the canonical
// month=<m>.tct partition the feature layer reads.

func (w *Warehouse) stagingDir(name string, month int) string {
	return filepath.Join(w.root, name, "staging", fmt.Sprintf("month=%d", month))
}

func (w *Warehouse) stagedDayPath(name string, month, day int) string {
	return filepath.Join(w.stagingDir(name, month), fmt.Sprintf("day=%d.tct", day))
}

// StageDay lands one day of records for a table. Re-staging a day replaces
// it atomically. The schema must match any already-staged day of the month.
func (w *Warehouse) StageDay(name string, month, day int, t *table.Table) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("store: refusing to stage invalid table: %w", err)
	}
	days, err := w.StagedDays(name, month)
	if err != nil {
		return err
	}
	for _, d := range days {
		if d == day {
			continue
		}
		existing, err := w.readStagedDay(name, month, d)
		if err != nil {
			return err
		}
		if !existing.Schema.Equal(t.Schema) {
			return fmt.Errorf("store: staged schema mismatch for %q month=%d: day=%d has %s, new day has %s",
				name, month, d, existing.Schema, t.Schema)
		}
		break // one probe suffices; staged days are mutually consistent
	}
	return w.commit(OpStageDay, name, month, w.stagingDir(name, month), w.stagedDayPath(name, month, day),
		func(f io.Writer) error { return writeTable(f, t) })
}

// StagedDays lists the staged days of a month, ascending.
func (w *Warehouse) StagedDays(name string, month int) ([]int, error) {
	entries, err := os.ReadDir(w.stagingDir(name, month))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var days []int
	for _, e := range entries {
		base := e.Name()
		if !strings.HasPrefix(base, "day=") || !strings.HasSuffix(base, ".tct") {
			continue
		}
		d, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(base, "day="), ".tct"))
		if err != nil {
			continue
		}
		days = append(days, d)
	}
	sort.Ints(days)
	return days, nil
}

func (w *Warehouse) readStagedDay(name string, month, day int) (*table.Table, error) {
	if err := w.runHook(OpReadStagedDay, name, month); err != nil {
		return nil, err
	}
	t, err := readTableFile(w.stagedDayPath(name, month, day))
	if err != nil {
		return nil, fmt.Errorf("store: read staged %s month=%d day=%d: %w", name, month, day, err)
	}
	return t, nil
}

// CompactMonth concatenates a month's staged days in day order into the
// canonical month partition and removes the staging directory. It fails if
// nothing is staged; the month partition is written atomically, so a crash
// mid-compaction leaves either the old state or the new partition plus
// stale staging (re-running CompactMonth is idempotent).
func (w *Warehouse) CompactMonth(name string, month int) error {
	days, err := w.StagedDays(name, month)
	if err != nil {
		return err
	}
	if len(days) == 0 {
		return fmt.Errorf("store: no staged days for %q month=%d", name, month)
	}
	out, err := concat(len(days), func(i int) (*table.Table, error) { return w.readStagedDay(name, month, days[i]) })
	if err != nil {
		return fmt.Errorf("store: compact %q month=%d: %w", name, month, err)
	}
	if err := w.WritePartition(name, month, out); err != nil {
		return err
	}
	if err := os.RemoveAll(w.stagingDir(name, month)); err != nil {
		return err
	}
	// Drop the parent staging/ directory once the last month is compacted
	// (fails when other months are still staged; that is fine).
	os.Remove(filepath.Join(w.root, name, "staging"))
	return nil
}
