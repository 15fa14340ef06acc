package synth

import (
	"fmt"
	"math/rand"
	"slices"

	"telcochurn/internal/parallel"
	"telcochurn/internal/store"
	"telcochurn/internal/table"
)

// Tables returns the month's raw tables keyed by warehouse table name.
func (md *MonthData) Tables() map[string]*table.Table {
	return map[string]*table.Table{
		TableCalls:      md.Calls,
		TableMessages:   md.Messages,
		TableRecharges:  md.Recharges,
		TableBilling:    md.Billing,
		TableCustomers:  md.Customers,
		TableComplaints: md.Complaints,
		TableWeb:        md.Web,
		TableSearch:     md.Search,
		TableLocations:  md.Locations,
		TableTruth:      md.Truth,
	}
}

// partitionWriter is the landing surface the generator writes through — the
// plain warehouse or a sharded view of one.
type partitionWriter interface {
	WritePartition(name string, month int, t *table.Table) error
}

// GenerateToWarehouse simulates cfg.Months months and writes every raw table
// as month partitions into the warehouse — the monthly summary the paper's
// BSS lands in HDFS. (churnctl generate -daily lands the event tables day by
// day through the warehouse event log instead.)
func GenerateToWarehouse(cfg Config, wh *store.Warehouse) error {
	return generateTo(cfg, wh)
}

// GenerateToShardedWarehouse is GenerateToWarehouse landing each month as
// hash-sharded partitions, for out-of-core builds. The simulation itself is
// identical: the same config and seed produce the same rows whatever the
// shard count.
func GenerateToShardedWarehouse(cfg Config, sw *store.ShardedWarehouse) error {
	return generateTo(cfg, sw)
}

// generateTo simulates month after month and lands each before the next is
// simulated, so one month is resident at a time. A failed write stops the
// run at that month.
func generateTo(cfg Config, dst partitionWriter) error {
	w := NewWorld(cfg)
	for i := 0; i < w.cfg.Months; i++ {
		if err := writeMonth(dst, w.SimulateMonth()); err != nil {
			return err
		}
	}
	return nil
}

// writeMonth writes a month's partitions concurrently, one table per worker
// on up to GOMAXPROCS workers; each partition still commits atomically
// under the warehouse's SyncPolicy. When several writes fail, the error
// names the first failing table in name order.
func writeMonth(dst partitionWriter, md *MonthData) error {
	tables := md.Tables()
	names := make([]string, 0, len(tables))
	for name := range tables {
		names = append(names, name)
	}
	slices.Sort(names)
	errs := make([]error, len(names))
	parallel.ForGrain(0, len(names), 1, func(i int) {
		errs[i] = dst.WritePartition(names[i], md.Month, tables[names[i]])
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("synth: write %s month %d: %w", names[i], md.Month, err)
		}
	}
	return nil
}

// ChurnRatePoint is one month of Figure 1: the churn rate for prepaid and
// postpaid customers.
type ChurnRatePoint struct {
	Month    int
	Prepaid  float64
	Postpaid float64
}

// ChurnRateSeries reproduces Figure 1's series. The prepaid rate comes from
// the simulated prepaid population (the labeling rule over the truth table);
// the postpaid series is drawn around the paper's reported 5.2% average —
// postpaid customers are contract-bound and out of the system's scope, so
// they are summarized, not simulated per-record.
func ChurnRateSeries(cfg Config, months int) []ChurnRatePoint {
	cfg = cfg.withDefaults()
	cfg.Months = months
	w := NewWorld(cfg)
	post := rand.New(rand.NewSource(cfg.Seed + 7))
	points := make([]ChurnRatePoint, 0, months)
	for i := 0; i < months; i++ {
		md := w.SimulateMonth()
		churn := md.Truth.MustCol("churn").Ints
		n := len(churn)
		c := 0
		for _, v := range churn {
			if v == 1 {
				c++
			}
		}
		rate := 0.0
		if n > 0 {
			rate = float64(c) / float64(n)
		}
		points = append(points, ChurnRatePoint{
			Month:    md.Month,
			Prepaid:  rate,
			Postpaid: clamp(0.052+float64(0.008*post.NormFloat64()), 0.03, 0.08),
		})
	}
	return points
}

// RechargeDayCounts reproduces Figure 5's histogram: for every customer
// observed in a recharge period across the given months, the number of days
// until they recharged (bucket 0 = never recharged within the month, i.e.
// the hard churners). Index i holds the count of customers who recharged
// after i days.
func RechargeDayCounts(months []*MonthData) []int {
	if len(months) == 0 {
		return nil
	}
	maxDay := 0
	type obs struct{ inRecharge, day int64 }
	var all []obs
	for _, md := range months {
		inR := md.Truth.MustCol("in_recharge").Ints
		dtr := md.Truth.MustCol("days_to_recharge").Ints
		for i := range inR {
			if inR[i] == 1 {
				all = append(all, obs{inR[i], dtr[i]})
				if int(dtr[i]) > maxDay {
					maxDay = int(dtr[i])
				}
			}
		}
	}
	counts := make([]int, maxDay+1)
	for _, o := range all {
		counts[o.day]++
	}
	return counts
}
