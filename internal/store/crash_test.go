package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"telcochurn/internal/table"
)

// tablesEqual compares two tables cell for cell (floats by bits via the
// encoded representation being exact; here direct equality suffices since
// values round-trip bit-exactly).
func tablesEqual(t *testing.T, a, b *table.Table) bool {
	t.Helper()
	if !a.Schema.Equal(b.Schema) || a.NumRows() != b.NumRows() {
		return false
	}
	for ci, col := range a.Cols {
		other := b.Cols[ci]
		for i := 0; i < a.NumRows(); i++ {
			switch col.Type {
			case table.Int64:
				if col.Ints[i] != other.Ints[i] {
					return false
				}
			case table.Float64:
				if col.Floats[i] != other.Floats[i] {
					return false
				}
			case table.String:
				if col.Strings[i] != other.Strings[i] {
					return false
				}
			}
		}
	}
	return true
}

// crashOnce returns a hook that simulates one crash at the given point on
// the next matching write, then passes everything through.
func crashOnce(op Op, point CrashPoint) Hook {
	fired := false
	return func(o Op, name string, month int) error {
		if o == op && !fired {
			fired = true
			return &Crash{Point: point}
		}
		return nil
	}
}

// TestCrashNeverTearsPartition is the write-atomicity contract: whatever
// point a WritePartition crashes at, a reader sees either the complete old
// partition, the complete new partition, or no partition — never torn bytes.
func TestCrashNeverTearsPartition(t *testing.T) {
	old := sampleTable(t)
	neu := sampleTable(t)
	neu.MustCol("imsi").Ints[0] = 777

	for _, point := range []CrashPoint{CrashMidWrite, CrashBeforeRename, CrashAfterRename} {
		for _, preexisting := range []bool{false, true} {
			wh := openTemp(t)
			if preexisting {
				if err := wh.WritePartition("calls", 1, old); err != nil {
					t.Fatal(err)
				}
			}
			wh.SetHook(crashOnce(OpWritePartition, point))
			err := wh.WritePartition("calls", 1, neu)
			var cr *Crash
			if !errors.As(err, &cr) || cr.Point != point {
				t.Fatalf("point=%d: write returned %v, want simulated crash", point, err)
			}
			wh.SetHook(nil)

			got, err := wh.ReadPartition("calls", 1)
			switch {
			case err == nil:
				// Whatever is visible must be one of the two complete tables.
				wantNew := point == CrashAfterRename
				if wantNew && !tablesEqual(t, got, neu) {
					t.Errorf("point=%d pre=%v: after-rename crash shows neither complete new table", point, preexisting)
				}
				if !wantNew && (!preexisting || !tablesEqual(t, got, old)) {
					t.Errorf("point=%d pre=%v: readable partition is not the complete old table", point, preexisting)
				}
			case os.IsNotExist(err):
				if preexisting || point == CrashAfterRename {
					t.Errorf("point=%d pre=%v: partition vanished", point, preexisting)
				}
			default:
				t.Errorf("point=%d pre=%v: read failed with %v (torn partition visible?)", point, preexisting, err)
			}

			// Partition listings must never surface crash debris.
			months, err := wh.Months("calls")
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range months {
				if _, err := wh.ReadPartition("calls", m); err != nil {
					t.Errorf("point=%d: listed partition month=%d unreadable: %v", point, m, err)
				}
			}

			// Recovery: a clean rewrite must fully succeed over any debris.
			if err := wh.WritePartition("calls", 1, neu); err != nil {
				t.Fatalf("point=%d: recovery write: %v", point, err)
			}
			got, err = wh.ReadPartition("calls", 1)
			if err != nil || !tablesEqual(t, got, neu) {
				t.Fatalf("point=%d: recovery read: %v", point, err)
			}
		}
	}
}

// TestHookErrorsPropagate checks that non-crash hook errors surface as I/O
// failures on both read and write paths without touching disk state.
func TestHookErrorsPropagate(t *testing.T) {
	wh := openTemp(t)
	tb := sampleTable(t)
	if err := wh.WritePartition("calls", 1, tb); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("injected I/O failure")
	wh.SetHook(func(op Op, name string, month int) error { return boom })

	if _, err := wh.ReadPartition("calls", 1); !errors.Is(err, boom) {
		t.Errorf("read: got %v, want injected error", err)
	}
	if err := wh.WritePartition("calls", 2, tb); !errors.Is(err, boom) {
		t.Errorf("write: got %v, want injected error", err)
	}
	wh.SetHook(nil)
	if _, err := wh.ReadPartition("calls", 1); err != nil {
		t.Errorf("after hook removal: %v", err)
	}
	if wh.HasPartition("calls", 2) {
		t.Error("failed write left a partition behind")
	}
}

// TestCrashDebrisInvisibleToListings asserts the month listing never
// reports temp-file debris as a partition.
func TestCrashDebrisInvisibleToListings(t *testing.T) {
	wh := openTemp(t)
	tb := sampleTable(t)
	wh.SetHook(crashOnce(OpWritePartition, CrashBeforeRename))
	if err := wh.WritePartition("calls", 3, tb); err == nil {
		t.Fatal("expected simulated crash")
	}
	wh.SetHook(nil)

	// Debris exists on disk...
	entries, err := os.ReadDir(filepath.Join(wh.Root(), "calls"))
	if err != nil {
		t.Fatal(err)
	}
	debris := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			debris++
		}
	}
	if debris == 0 {
		t.Fatal("expected temp-file debris after before-rename crash")
	}
	// ...but no partition is listed.
	months, err := wh.Months("calls")
	if err != nil {
		t.Fatal(err)
	}
	if len(months) != 0 {
		t.Errorf("months = %v, want none", months)
	}
}
