// Package core implements the churn prediction pipeline of Figure 3/6: the
// 15-day labeling rule, the sliding-window protocol (features from month
// N-1, labels from month N, prediction for month N+1), feature-group
// assembly over the features package, imbalance handling, and pluggable
// classifiers (random forest by default).
package core

import (
	"telcochurn/internal/features"
	"telcochurn/internal/store"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
)

// Source is a reader factory: every raw-table read of the pipeline — a
// window's nine tables, strict or degraded, a month's truth table, one
// shard's slice of either — goes through a features.TableReader the source
// opens. Retry and fault injection interpose through With, so a decorator
// is one ReadMonths and composes in any order over any base. The zero Source is not usable; construct one with NewMemorySource,
// NewWarehouseSource or NewShardedWarehouseSource.
type Source struct {
	days   int
	shards int
	// open returns the reader for one customer-hash shard, or for whole
	// months when shard < 0. It runs once per window load, truth read or
	// shard reader, so per-load decorator state (the retry deadline) starts
	// fresh each time.
	open func(shard int) features.TableReader
}

// ShardedSource names a Source used for shard-at-a-time reads (see
// AsSharded); it is the same type.
type ShardedSource = Source

// With returns a view of the source whose readers are wrapped by wrap,
// which receives the shard the reader serves (< 0 = whole months) and the
// source's shard count.
func (s Source) With(wrap func(shard, shards int, r features.TableReader) features.TableReader) Source {
	open, shards := s.open, s.shards
	s.open = func(shard int) features.TableReader { return wrap(shard, shards, open(shard)) }
	return s
}

// Tables returns the raw tables covering the window, failing on the first
// unavailable one.
func (s Source) Tables(win features.Window) (features.Tables, error) {
	return features.LoadTablesFrom(s.open(-1), win, s.days)
}

// Truth returns the hidden ground-truth table of a month (used only for
// labels and for the retention simulation).
func (s Source) Truth(month int) (*table.Table, error) {
	return s.open(-1).ReadMonths(synth.TableTruth, []int{month})
}

// DaysPerMonth returns the calendar granularity of the source.
func (s Source) DaysPerMonth() int { return s.days }

// NumShards returns how many customer-hash shards ShardReader covers; 0
// means the source serves whole months only.
func (s Source) NumShards() int { return s.shards }

// ShardReader returns a per-table reader restricted to one shard.
func (s Source) ShardReader(shard int) features.TableReader { return s.open(shard) }

// AsSharded reports whether src can serve shard-at-a-time reads, enabling
// the out-of-core wide-table build.
func AsSharded(src Source) (ShardedSource, bool) { return src, src.NumShards() > 0 }

// NewMemorySource serves simulator output held in memory. daysPerMonth
// should match the generator config (synth.DefaultConfig().DaysPerMonth
// unless overridden).
func NewMemorySource(months []*synth.MonthData, daysPerMonth int) Source {
	r := make(features.MonthReader, len(months))
	for _, md := range months {
		r[md.Month] = md
	}
	return Source{days: daysPerMonth, open: func(int) features.TableReader { return r }}
}

// NewWarehouseSource serves tables from the on-disk store.
func NewWarehouseSource(wh *store.Warehouse, daysPerMonth int) Source {
	return Source{days: daysPerMonth, open: func(int) features.TableReader { return wh }}
}

// NewShardedWarehouseSource serves a sharded view of an on-disk warehouse
// through the view's readers (shard < 0 reads whole months).
func NewShardedWarehouseSource(sw *store.ShardedWarehouse, daysPerMonth int) Source {
	return Source{days: daysPerMonth, shards: sw.Shards(), open: func(shard int) features.TableReader {
		return sw.ShardReader(shard)
	}}
}

// LabelsOf converts a truth table into a label map: customer -> 0/1 churn
// per the paper's 15-day recharge rule (already applied by the generator,
// exactly as the operator's BI system applies it upstream of the paper's
// pipeline).
func LabelsOf(truth *table.Table) map[int64]int {
	imsi := truth.MustCol("imsi").Ints
	churn := truth.MustCol("churn").Ints
	out := make(map[int64]int, len(imsi))
	for i, id := range imsi {
		out[id] = int(churn[i])
	}
	return out
}
