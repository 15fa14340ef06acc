package table

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
