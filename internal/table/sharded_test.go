package table

import (
	"math"
	"math/rand"
	"testing"
)

// randomEvents builds an event table with repeated customer keys, the shape
// of every per-customer aggregation in the wide-table build.
func randomEvents(seed int64, rows, customers int) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := NewTable(MustSchema(
		Field{Name: "imsi", Type: Int64},
		Field{Name: "dur", Type: Float64},
		Field{Name: "cell", Type: Int64},
	))
	for i := 0; i < rows; i++ {
		t.Append().Int(int64(rng.Intn(customers)) + 1000).Float(rng.Float64() * 100).Int(int64(rng.Intn(7))).Done()
	}
	return t
}

func TestPartitionByHashPreservesRowsAndOrder(t *testing.T) {
	src := randomEvents(1, 500, 40)
	for _, shards := range []int{1, 3, 8} {
		parts, err := PartitionByHash(src, "imsi", shards)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for s, p := range parts {
			keys := p.MustCol("imsi").Ints
			for _, k := range keys {
				if ShardOf(k, shards) != s {
					t.Fatalf("key %d in part %d of %d", k, s, shards)
				}
			}
			total += p.NumRows()
		}
		if total != src.NumRows() {
			t.Fatalf("parts hold %d rows, want %d", total, src.NumRows())
		}
		// Row order within each part must match source order: per-key
		// subsequences are what keeps shard-local float sums bit-identical.
		for _, p := range parts {
			pos := -1
			ids := p.MustCol("imsi").Ints
			durs := p.MustCol("dur").Floats
			srcIDs := src.MustCol("imsi").Ints
			srcDurs := src.MustCol("dur").Floats
			for i := range ids {
				found := false
				for j := pos + 1; j < len(srcIDs); j++ {
					if srcIDs[j] == ids[i] && math.Float64bits(srcDurs[j]) == math.Float64bits(durs[i]) {
						pos = j
						found = true
						break
					}
				}
				if !found {
					t.Fatal("part rows are not an ordered subsequence of the source")
				}
			}
		}
	}
}
