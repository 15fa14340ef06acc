package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"telcochurn/internal/table"
)

// goldenTable exercises every value encoding the formats have: negative and
// large ints, NaN / -0 / infinite floats, empty and multi-byte strings.
func goldenTable(t testing.TB) *table.Table {
	t.Helper()
	tb := table.NewTable(table.MustSchema(
		table.Field{Name: "imsi", Type: table.Int64},
		table.Field{Name: "month", Type: table.Int64},
		table.Field{Name: "delta", Type: table.Int64},
		table.Field{Name: "dur", Type: table.Float64},
		table.Field{Name: "text", Type: table.String},
	))
	floats := []float64{1.5, math.NaN(), math.Copysign(0, -1), math.Inf(-1), 0, -3.25, math.MaxFloat64, math.SmallestNonzeroFloat64}
	texts := []string{"hello", "", "unicode ✓ 中文", "a", "", "tab\tnl\n", "ü", "\x00"}
	for i := range floats {
		id := int64(460000000 + 104729*i) // two rows in each of four shards
		delta := int64(i) - 4
		switch i {
		case 6:
			delta = 1 << 40
		case 7:
			delta = math.MinInt64
		}
		if err := tb.AppendRow(id, int64(2), delta, floats[i], texts[i]); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// TestGoldenBytes pins the on-disk bytes: the digests below were recorded
// by running these writes at the commit before .tct / TEV1 moved onto
// internal/codec, so a warehouse or log written by either side reads back
// on the other.
func TestGoldenBytes(t *testing.T) {
	wh := openTemp(t)
	tb := goldenTable(t)
	if err := wh.WritePartition("plain", 2, tb); err != nil {
		t.Fatal(err)
	}
	sw, err := wh.Sharded(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WritePartition("sharded", 2, tb); err != nil {
		t.Fatal(err)
	}
	log, err := wh.EventLog()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(map[string]*table.Table{"calls": tb}); err != nil {
		t.Fatal(err)
	}
	for rel, want := range map[string]string{
		"plain/month=2.tct":              "217:087b52b59a2b9d32",
		"sharded/month=2.shard=0of4.tct": "78:3a05b778ca394ef0",
		"sharded/month=2.shard=1of4.tct": "98:c36b2772836b0a8d",
		"sharded/month=2.shard=2of4.tct": "90:cf60240036b22c2a",
		"sharded/month=2.shard=3of4.tct": "74:5830b0b6d1e2f592",
		".events/seq=00000001.tev":       "225:0a28df6a674806a2",
	} {
		data, err := os.ReadFile(filepath.Join(wh.Root(), rel))
		if err != nil {
			t.Error(err)
			continue
		}
		sum := sha256.Sum256(data)
		if got := fmt.Sprintf("%d:%s", len(data), hex.EncodeToString(sum[:8])); got != want {
			t.Errorf("%s = %s, want %s", rel, got, want)
		}
	}
}

// TestLayoutResolution drives every reader of a month's layout over every
// combination of files a table directory can hold and checks they all agree
// with the one resolver: plain wins, else the largest complete set, else the
// month is absent.
func TestLayoutResolution(t *testing.T) {
	const name, month = "calls", 2
	for _, tc := range []struct {
		layout string
		write  []int // shard counts written, in order, by raw file copy
		drop   string
		want   int // shard count of the winning layout; 0 = absent
	}{
		{"absent", nil, "", 0},
		{"plain", []int{1}, "", 1},
		{"complete 4-set", []int{4}, "", 4},
		{"incomplete 4-set", []int{4}, partName(month, 2, 4), 0},
		{"plain + 4-set", []int{1, 4}, "", 1},
		{"2-set + 4-set", []int{2, 4}, "", 4},
		{"2-set + incomplete 4-set", []int{2, 4}, partName(month, 0, 4), 2},
	} {
		t.Run(tc.layout, func(t *testing.T) {
			// Each layout is written in its own warehouse (a write removes the
			// layouts it supersedes) and the files copied side by side.
			wh := openTemp(t)
			dir := filepath.Join(wh.Root(), name)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			tb := goldenTable(t)
			for _, n := range tc.write {
				src := openTemp(t)
				ssw, err := src.Sharded(n)
				if err != nil {
					t.Fatal(err)
				}
				if err := ssw.WritePartition(name, month, tb); err != nil {
					t.Fatal(err)
				}
				for s := 0; s < n; s++ {
					base := partName(month, s, n)
					data, err := os.ReadFile(filepath.Join(src.Root(), name, base))
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(filepath.Join(dir, base), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			if tc.drop != "" {
				if err := os.Remove(filepath.Join(dir, tc.drop)); err != nil {
					t.Fatal(err)
				}
			}

			lay, err := wh.layout(name)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(lay[month]); got != tc.want {
				t.Fatalf("resolver: %d files, want %d", got, tc.want)
			}
			months, err := wh.Months(name)
			if err != nil {
				t.Fatal(err)
			}
			if wantMonths := map[bool][]int{true: {month}}[tc.want > 0]; !reflect.DeepEqual(months, wantMonths) {
				t.Errorf("Months = %v, want %v", months, wantMonths)
			}
			if got := wh.HasPartition(name, month); got != (tc.want > 0) {
				t.Errorf("HasPartition = %v", got)
			}
			if got, err := wh.DetectShards(name); err != nil || got != max(tc.want, 1) {
				t.Errorf("DetectShards = %d, %v; want %d", got, err, max(tc.want, 1))
			}

			whole, err := wh.ReadPartition(name, month)
			if tc.want == 0 {
				if !errors.Is(err, fs.ErrNotExist) {
					t.Errorf("absent month: ReadPartition %v; want fs.ErrNotExist", err)
				}
				for _, view := range []int{1, 2, 4} {
					vw, _ := wh.Sharded(view)
					if _, err := vw.ReadShard(name, month, 0); !errors.Is(err, fs.ErrNotExist) {
						t.Errorf("absent month: ReadShard at view %d: %v", view, err)
					}
				}
				return
			}
			if err != nil {
				t.Fatalf("ReadPartition %v", err)
			}
			// The month is the winning files concatenated in shard order.
			var want []int64
			for s := 0; s < tc.want; s++ {
				ft, err := readTableFile(filepath.Join(dir, partName(month, s, tc.want)))
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, ft.MustCol("imsi").Ints...)
			}
			if got := whole.MustCol("imsi").Ints; !reflect.DeepEqual(got, want) {
				t.Errorf("ReadPartition order = %v, want %v", got, want)
			}
			// Every view serves exactly its hash slice of those rows, in order.
			for _, view := range []int{1, 2, 4} {
				vw, _ := wh.Sharded(view)
				for s := 0; s < view; s++ {
					var wantShard []int64
					for _, id := range want {
						if table.ShardOf(id, view) == s {
							wantShard = append(wantShard, id)
						}
					}
					got, err := vw.ReadShard(name, month, s)
					if err != nil {
						t.Fatal(err)
					}
					if ids := got.MustCol("imsi").Ints; len(ids) != len(wantShard) || (len(ids) > 0 && !reflect.DeepEqual(ids, wantShard)) {
						t.Errorf("view %d shard %d = %v, want %v", view, s, ids, wantShard)
					}
				}
			}
		})
	}
}
