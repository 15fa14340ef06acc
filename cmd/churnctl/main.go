// Command churnctl drives the telco churn reproduction from the shell:
//
//	churnctl generate -out ./warehouse -customers 5000 -months 9
//	    simulate the synthetic telco world and land the raw BSS/OSS tables
//	    in a partitioned on-disk warehouse (the HDFS layer of Figure 2)
//
//	churnctl eval <experiment-id> [flags]
//	    run one of the paper's experiments (fig1 fig5 fig7 fig8 fig9
//	    tab1 tab2 tab3 tab4 tab5 tab6 tab7) and print the paper-style table
//	    ("eval all" runs every experiment in order)
//
//	churnctl train -warehouse DIR -out FILE
//	    fit the full pipeline on the warehouse and save a versioned
//	    artifact (models + fitted feature state + schema)
//
//	churnctl score -warehouse DIR -model FILE
//	    load an artifact and rank a month's churners; churnd serves the
//	    same artifact over HTTP
//
//	churnctl inspect -warehouse ./warehouse
//	    list warehouse tables, partitions and row counts
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"telcochurn/internal/experiments"
	"telcochurn/internal/features"
	"telcochurn/internal/store"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "build":
		err = cmdBuild(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "features":
		err = cmdFeatures(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "score":
		err = cmdScore(os.Args[2:])
	case "ingest":
		err = cmdIngest(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "churnctl: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "churnctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  churnctl generate -out DIR [-customers N] [-months N] [-seed N] [-shards N] [-burnin N]
  churnctl eval EXPERIMENT...|all [-customers N] [-trees N] [-repeats N] [-seed N] [-workers N] [-bins N] [-cpuprofile F] [-memprofile F]
  churnctl inspect -warehouse DIR
  churnctl build -warehouse DIR [-month N] [-groups F1,..] [-shards N] [-workers N] [-rss-limit-mb N] [-checksum]
                                             out-of-core wide-table build with memory reporting
  churnctl explain [-customers N] [-top N]   root causes of predicted churners
  churnctl features                          wide-table feature dictionary (paper Fig. 4)
  churnctl train -warehouse DIR -out FILE    fit the pipeline and save a versioned artifact
  churnctl score -warehouse DIR -model FILE  ranked churner list from a saved artifact
  churnctl ingest -warehouse DIR [-events F|-synth N] [-addr URL] [-merge]
                                             append raw events to the event log (or POST to churnd);
                                             -merge folds the log into the monthly partitions

every warehouse-opening subcommand also takes -workers, -shards, -retries, -degraded

experiments: %v
`, experiments.IDs())
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	out := fs.String("out", "./warehouse", "warehouse output directory")
	customers := fs.Int("customers", 5000, "customers per month")
	months := fs.Int("months", 9, "months to simulate")
	seed := fs.Int64("seed", 1, "generator seed")
	daily := fs.Bool("daily", false, "land event tables day by day through the event log, merged monthly (the platform's daily ETL flow)")
	shards := fs.Int("shards", 1, "hash-shard each month partition N ways (1 = plain layout)")
	burnin := fs.Int("burnin", 0, "unrecorded burn-in months before month 1 (0 = generator default)")
	fsyncMode := fs.String("fsync", "always", "write durability: always, off, or a flush interval like 500ms (synthetic data is rebuildable — off is safe here)")
	fs.Parse(args)

	cfg := synth.DefaultConfig()
	cfg.Customers = *customers
	cfg.Months = *months
	cfg.Seed = *seed
	cfg.BurnInMonths = *burnin

	policy, err := store.ParseSyncPolicy(*fsyncMode)
	if err != nil {
		return err
	}
	wh, err := store.Open(*out)
	if err != nil {
		return err
	}
	wh.SetSync(policy)
	start := time.Now()
	switch {
	case *daily && *shards > 1:
		return fmt.Errorf("-daily and -shards are mutually exclusive")
	case *daily:
		err = generateDaily(cfg, wh)
	case *shards > 1:
		var sw *store.ShardedWarehouse
		if sw, err = wh.Sharded(*shards); err == nil {
			err = synth.GenerateToShardedWarehouse(cfg, sw)
		}
	default:
		err = synth.GenerateToWarehouse(cfg, wh)
	}
	if err != nil {
		return err
	}
	fmt.Printf("generated %d months x %d customers into %s in %v\n",
		*months, *customers, *out, time.Since(start).Round(time.Millisecond))
	return nil
}

// generateDaily lands the world the way the paper's platform receives its
// 2.3 TB/day feed (Section 5.4): each day's rows of every streamable event
// table are appended to the warehouse event log as one batch, and at month
// end the log is merged into the month partitions. Snapshot tables are
// written directly. The event tables' month partitions are first written
// empty, so re-landing a month replaces it instead of appending to it.
func generateDaily(cfg synth.Config, wh *store.Warehouse) error {
	elog, err := wh.EventLog()
	if err != nil {
		return err
	}
	// The month-end merge folds in every logged row, so pending events of
	// another origin would land inside the generated months.
	if seq := elog.LastSeq(); seq > 0 {
		return fmt.Errorf("-daily: the event log holds unmerged segments through seq=%d (churnctl ingest -merge folds them in)", seq)
	}
	w := synth.NewWorld(cfg)
	for i := 0; i < cfg.Months; i++ {
		md := w.SimulateMonth()
		tables := md.Tables()
		for name, t := range tables {
			if slices.Contains(features.StreamableTables, name) {
				t = t.Take(nil)
			}
			if err := wh.WritePartition(name, md.Month, t); err != nil {
				return err
			}
		}
		for day := int64(1); day <= int64(cfg.DaysPerMonth); day++ {
			batch := map[string]*table.Table{}
			rows := 0
			for _, name := range features.StreamableTables {
				dayCol := tables[name].MustCol("day").Ints
				batch[name] = tables[name].Filter(func(r int) bool { return dayCol[r] == day })
				rows += batch[name].NumRows()
			}
			if rows == 0 {
				continue
			}
			if _, err := elog.Append(batch); err != nil {
				return err
			}
		}
		if _, err := elog.MergeInto(); err != nil {
			return err
		}
	}
	return nil
}

func cmdEval(args []string) error {
	// The ids are every argument before the first flag.
	n := slices.IndexFunc(args, func(a string) bool { return strings.HasPrefix(a, "-") })
	if n < 0 {
		n = len(args)
	}
	ids := args[:n]
	if len(ids) == 0 {
		return fmt.Errorf("eval: need an experiment id or 'all'")
	}
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	customers := fs.Int("customers", 4000, "customers per month")
	trees := fs.Int("trees", 150, "forest/boosting ensemble size")
	repeats := fs.Int("repeats", 2, "sliding-window anchors to average")
	seed := fs.Int64("seed", 1, "seed")
	minLeaf := fs.Int("minleaf", 25, "minimum samples per tree leaf")
	workers := fs.Int("workers", 0, "parallelism across the pipeline (0 = all cores); results are identical for any value")
	bins := fs.Int("bins", 0, "histogram bins for forest split search (0 = exact splits, max 255)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	fs.Parse(args[n:])
	if fs.NArg() > 0 {
		return fmt.Errorf("eval: %q after the flags: experiment ids go before them", fs.Arg(0))
	}
	if slices.Contains(ids, "all") {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		if !slices.Contains(experiments.IDs(), id) {
			return fmt.Errorf("eval: unknown experiment %q (have %v)", id, experiments.IDs())
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("eval: -cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("eval: -cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "churnctl: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "churnctl: -memprofile:", err)
			}
		}()
	}

	opts := experiments.Options{
		Customers: *customers,
		Trees:     *trees,
		Repeats:   *repeats,
		Seed:      *seed,
		MinLeaf:   *minLeaf,
		Workers:   *workers,
		Bins:      *bins,
	}

	for _, xid := range ids {
		start := time.Now()
		res, err := experiments.Run(xid, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", xid, err)
		}
		// The run time goes to stderr, so stdout depends only on the flags.
		fmt.Fprintf(os.Stderr, "%s took %v\n", xid, time.Since(start).Round(time.Millisecond))
		fmt.Printf("== %s ==\n", xid)
		res.Render(os.Stdout)
		fmt.Println()
	}
	return nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	sf := addSourceFlags(fs)
	fs.Parse(args)

	wh, err := sf.open()
	if err != nil {
		return err
	}
	tables, err := wh.Tables()
	if err != nil {
		return err
	}
	for _, name := range tables {
		months, err := wh.Months(name)
		if err != nil {
			return err
		}
		shards, err := wh.DetectShards(name)
		if err != nil {
			return err
		}
		// With -degraded an unreadable table is reported instead of
		// aborting the walk.
		total, err := countRows(wh, name, months, shards)
		if err != nil {
			if !*sf.degraded {
				return err
			}
			fmt.Printf("%-12s partitions=%d UNAVAILABLE (%v)\n", name, len(months), err)
			continue
		}
		if shards > 1 {
			fmt.Printf("%-12s partitions=%d rows=%d shards=%d\n", name, len(months), total, shards)
		} else {
			fmt.Printf("%-12s partitions=%d rows=%d\n", name, len(months), total)
		}
	}
	if elog, err := wh.EventLog(); err == nil {
		if seq := elog.LastSeq(); seq > 0 {
			pending := 0
			elog.Replay(0, func(_ uint64, _ string, t *table.Table) error {
				pending += t.NumRows()
				return nil
			})
			fmt.Printf("%-12s segments=%d pending_rows=%d (churnctl ingest -merge folds them in)\n", "events", seq, pending)
		}
	}
	return nil
}

// countRows sums a table's rows one shard file at a time, at the table's
// detected shard count, so inspecting a sharded out-of-core warehouse never
// loads a whole month at once.
func countRows(wh *store.Warehouse, name string, months []int, shards int) (int, error) {
	sw, err := wh.Sharded(shards)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, m := range months {
		for s := 0; s < shards; s++ {
			t, err := sw.ReadShard(name, m, s)
			if err != nil {
				return 0, err
			}
			total += t.NumRows()
		}
	}
	return total, nil
}
