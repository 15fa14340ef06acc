package table

import "fmt"

// Hash partitioning: the warehouse splits rows by this hash
// (store.ShardedWarehouse), so per-customer folds never cross shards and the
// wide-table build runs one shard at a time with bounded memory.

// ShardOf maps an Int64 key to a shard in [0, shards) with the splitmix64
// finalizer, so shard assignment is uniform, stable across processes and
// platforms, and independent of insertion order. shards < 2 always yields
// shard 0.
func ShardOf(key int64, shards int) int {
	if shards < 2 {
		return 0
	}
	x := uint64(key)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

// PartitionByHash splits t into shards parts by ShardOf over the named Int64
// key column, preserving row order within each part. Concatenating the parts
// in shard order yields a row permutation of t; rows of any single key value
// land in exactly one part.
func PartitionByHash(t *Table, key string, shards int) ([]*Table, error) {
	ki := t.Schema.Index(key)
	if ki < 0 {
		return nil, fmt.Errorf("table: partition by unknown column %q", key)
	}
	if t.Schema.Fields[ki].Type != Int64 {
		return nil, fmt.Errorf("table: partition key %q must be BIGINT", key)
	}
	if shards < 1 {
		return nil, fmt.Errorf("table: partition into %d shards", shards)
	}
	if shards == 1 {
		return []*Table{t}, nil
	}
	keys := t.Cols[ki].Ints
	idx := make([][]int32, shards)
	for i, k := range keys {
		s := ShardOf(k, shards)
		idx[s] = append(idx[s], int32(i))
	}
	out := make([]*Table, shards)
	for s := range out {
		out[s] = takeRows(t, idx[s])
	}
	return out, nil
}
