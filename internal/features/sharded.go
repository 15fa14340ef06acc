package features

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"telcochurn/internal/graph"
	"telcochurn/internal/parallel"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
)

// ShardedBuildSpec parameterizes the wide-table build: the raw tables
// arrive one customer-hash shard at a time through the Load callbacks, so
// peak memory is bounded by the largest shard (times the worker count), not
// the dataset. A whole-window build is the Shards = 1 case, its loaders
// reading whole months.
type ShardedBuildSpec struct {
	// Shards is the number of hash shards the loaders cover. 1 is valid and
	// produces the same frame as any other count.
	Shards int
	// Load returns the raw tables of one shard restricted to the window's
	// months, plus the names of the tables it replaced by empty stand-ins
	// (LoadTables; none for a strict load, which fails instead), reading
	// with up to workers goroutines: the build's Workers at one shard, 1
	// when shards load concurrently and already fill the workers.
	// Called once per shard.
	Load func(shard, workers int) (Tables, []string, error)
	// LoadCustomers returns one shard's customers table over the window's
	// months. Called once per shard, before Load, to resolve the customer
	// universe up front (graph edges need the full universe predicate).
	LoadCustomers func(shard int) (*table.Table, error)

	Win          Window
	DaysPerMonth int
	// Workers caps the build's goroutines (0 = GOMAXPROCS): how many shards
	// build concurrently or, at one shard, the topic fit beside the rest of
	// the build, the graph fold beside the per-customer columns and the
	// loops inside each. More workers = more speed and proportionally more
	// peak memory.
	Workers int

	// Groups selects the feature groups to build. F9 is rejected here: the
	// second-order featurizer is a trained model applied to the merged
	// frame, so the pipeline layer applies it after this build returns.
	Groups GroupSet
	// GraphIn seeds label propagation when a graph group is requested.
	GraphIn GraphFeatureInput
	// Complaints and Search must be fitted featurizers when F7 / F8 are
	// requested, unless FitTopics supplies them.
	Complaints *TopicFeaturizer
	Search     *TopicFeaturizer
	// FitTopics, when set, trains the F7 / F8 featurizers on the loaded
	// text tables (only Complaints and Search are set in its argument); its
	// results replace Complaints and Search. Topic models are fitted on a
	// merged corpus, not per shard, so it is legal only at Shards = 1
	// (ErrFitNeedsOneShard otherwise). The fit runs as its own task beside
	// the rest of the build, and the topic columns are applied to the merged
	// frame once it returns.
	FitTopics func(Tables) (complaints, search *TopicFeaturizer, err error)
}

// ErrFitNeedsOneShard rejects fitting feature models in a multi-shard build.
var ErrFitNeedsOneShard = errors.New("features: feature models are fitted on one whole-window shard")

// ShardStats reports what a build consumed.
type ShardStats struct {
	Shards  int
	RawRows int64 // total raw-table rows streamed across all shards
	// Missing names the raw tables some shard's loader replaced by an empty
	// stand-in, in first-reported order; empty for a healthy or strict build.
	Missing []string
}

// perCustomerFrame builds the columns that depend on one customer's rows
// only, for every snapshot customer among the rows sel selects of tbl: the
// base groups among groups in canonical order, then the F7 / F8 topic
// mixtures. It is the shard body of BuildShardedFrame (sel nil: every row)
// and, over one customer's posting lists, Maintainer.CustomerFrame.
func perCustomerFrame(tbl Tables, sel selection, win Window, daysPerMonth, workers int, groups GroupSet, complaints, search *TopicFeaturizer) (*Frame, error) {
	f, err := buildBase(tbl, sel, win, daysPerMonth, workers)
	if err != nil {
		return nil, err
	}
	if base := groups & BaseGroups; base != BaseGroups {
		f = f.SelectGroups(base.Groups()...)
	}
	if err := applyTopics(f, tbl, sel, win, daysPerMonth, workers, groups, complaints, search); err != nil {
		return nil, err
	}
	return f, nil
}

// applyTopics appends the F7 / F8 columns among groups to f, folding in
// the complaint and search documents of the rows sel selects of tbl.
func applyTopics(f *Frame, tbl Tables, sel selection, win Window, daysPerMonth, workers int, groups GroupSet, complaints, search *TopicFeaturizer) error {
	if groups.Has(F7ComplaintTopics) && complaints == nil {
		return fmt.Errorf("features: F7 requested but no fitted complaint featurizer")
	}
	if groups.Has(F8SearchTopics) && search == nil {
		return fmt.Errorf("features: F8 requested but no fitted search featurizer")
	}
	if groups.Has(F7ComplaintTopics) {
		complaints.apply(f, tbl.Complaints, sel.of(synth.TableComplaints), win, daysPerMonth, workers)
	}
	if groups.Has(F8SearchTopics) {
		search.apply(f, tbl.Search, sel.of(synth.TableSearch), win, daysPerMonth, workers)
	}
	return nil
}

// BuildShardedFrame is the one wide-table assembler: it builds the table
// shard by shard and merges the per-shard results into one frame over the
// full customer universe.
//
// The output is bit-identical for any shard count and any worker count:
// per-customer aggregates (F1-F3, F7, F8) are shard-local because customers
// are hash-partitioned, and the graph groups (F4-F6) merge through
// GraphAccumulator's canonical order-independent reduction. Columns land as
// base groups, graph groups, topic groups, each in canonical group order.
func BuildShardedFrame(spec ShardedBuildSpec) (*Frame, ShardStats, error) {
	stats := ShardStats{Shards: spec.Shards}
	if spec.Shards < 1 {
		return nil, stats, fmt.Errorf("features: sharded build needs at least 1 shard, got %d", spec.Shards)
	}
	if spec.Groups.Has(F9SecondOrder) {
		return nil, stats, fmt.Errorf("features: F9 is applied to the merged frame, not built per shard")
	}
	if spec.FitTopics != nil && spec.Shards != 1 {
		return nil, stats, fmt.Errorf("%w, got %d", ErrFitNeedsOneShard, spec.Shards)
	}

	// Pass 1: resolve the customer universe from the per-shard demographic
	// snapshots. Cheap (customers only) and required before any event table
	// is scanned: the graph builders' isCustomer predicate must see the
	// whole universe, not one shard's slice of it.
	shardIDs := make([][]int64, spec.Shards)
	errs := make([]error, spec.Shards)
	parallel.ForGrain(spec.Workers, spec.Shards, 1, func(s int) {
		cust, err := spec.LoadCustomers(s)
		if err != nil {
			errs[s] = fmt.Errorf("%w: shard %d: %w", ErrUniverseUnavailable, s, err)
			return
		}
		snap := snapshotMonth(cust, spec.Win, spec.DaysPerMonth)
		if snap.NumRows() > 0 {
			shardIDs[s] = append([]int64(nil), snap.MustCol("imsi").Ints...)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, stats, err
		}
	}
	var all []int64
	for _, ids := range shardIDs {
		all = append(all, ids...)
	}
	if len(all) == 0 {
		return nil, stats, fmt.Errorf("features: no customer snapshot for month %d", spec.Win.LastMonth(spec.DaysPerMonth))
	}
	uni := NewFrame(all)
	isCustomer := func(id int64) bool {
		_, ok := uni.index[id]
		return ok || spec.GraphIn.PrevChurners[id]
	}

	// Pass 2: stream each shard's raw tables once, feeding the graph
	// accumulator and building the shard-local per-customer columns — two
	// tasks that only read the shard's tables, so they overlap. Inner
	// builds run single-threaded when shards provide the parallelism, so
	// worker count scales concurrent shard residency, not thread count²;
	// at one shard the overlap and the inner builds use the workers.
	// A fitting build leaves the topic groups out of the shard frames: they
	// are applied to the merged frame once their models are fitted.
	shardGroups := spec.Groups
	if spec.FitTopics != nil {
		shardGroups &^= TopicGroups
	}
	wantGraph := spec.Groups&GraphGroups != 0
	wantPerCustomer := shardGroups&(BaseGroups|TopicGroups) != 0
	acc := NewGraphAccumulator(spec.Shards, spec.Groups.Groups())
	acc.Workers = spec.Workers
	shardFrames := make([]*Frame, spec.Shards)
	missing := make([][]string, spec.Shards)
	innerWorkers := spec.Workers
	if spec.Shards > 1 {
		innerWorkers = 1
	}
	var rawRows int64
	load := func(s int) (Tables, bool) {
		tbl, miss, err := spec.Load(s, innerWorkers)
		if err != nil {
			errs[s] = fmt.Errorf("features: load shard %d: %w", s, err)
			return Tables{}, false
		}
		missing[s] = miss
		for _, t := range []*table.Table{tbl.Calls, tbl.Messages, tbl.Recharges, tbl.Billing,
			tbl.Customers, tbl.Complaints, tbl.Web, tbl.Search, tbl.Locations} {
			atomic.AddInt64(&rawRows, int64(t.NumRows()))
		}
		return tbl, true
	}
	buildShard := func(s int, tbl Tables) {
		feed := func() {
			// Every shard feeds the accumulator, even ones with no snapshot
			// customers: their rows still carry edges to customers elsewhere.
			if wantGraph {
				acc.Feed(s, tbl, spec.Win, spec.DaysPerMonth, isCustomer)
			}
		}
		build := func() {
			if !wantPerCustomer || len(shardIDs[s]) == 0 {
				return
			}
			sf, err := perCustomerFrame(tbl, nil, spec.Win, spec.DaysPerMonth, innerWorkers, shardGroups, spec.Complaints, spec.Search)
			if err != nil {
				errs[s] = fmt.Errorf("features: build shard %d: %w", s, err)
				return
			}
			shardFrames[s] = sf
		}
		parallel.Do(innerWorkers, feed, build)
	}

	// Merge. Shard universes are disjoint, so every merged row comes from
	// exactly one shard row. A shard frame holds [base | topic] columns;
	// they copy row by row around the graph columns into the canonical
	// order [F1 F2 F3] graphs [F7 F8].
	merge := func() {
		var ref *Frame
		nb, ncols := 0, 0 // base columns lead every shard frame
		for _, sf := range shardFrames {
			if sf != nil {
				ref, ncols = sf, len(sf.names)
				for nb < ncols && BaseGroups.Has(sf.group[nb]) {
					nb++
				}
				break
			}
		}
		copyColumns := func(from, to int) {
			if from == to {
				return
			}
			uni.names = append(uni.names, ref.names[from:to]...)
			uni.group = append(uni.group, ref.group[from:to]...)
			for _, sf := range shardFrames {
				if sf == nil {
					continue
				}
				for r, id := range sf.ids {
					if i, ok := uni.index[id]; ok {
						uni.x[i] = append(uni.x[i], sf.x[r][from:to]...)
					}
				}
			}
			// A universe customer no shard frame holds keeps zeros.
			for i := range uni.x {
				for len(uni.x[i]) < len(uni.names) {
					uni.x[i] = append(uni.x[i], 0)
				}
			}
		}
		copyColumns(0, nb)
		if wantGraph {
			call, msg, cooc := acc.Finalize()
			scoreGraphsInto(uni, [3]*graph.Graph{call, msg, cooc}, spec.GraphIn, spec.Workers)
		}
		copyColumns(nb, ncols)
	}

	if spec.FitTopics == nil {
		parallel.ForGrain(spec.Workers, spec.Shards, 1, func(s int) {
			if tbl, ok := load(s); ok {
				buildShard(s, tbl)
			}
		})
		for _, err := range errs {
			if err != nil {
				return nil, stats, err
			}
		}
		merge()
	} else {
		// One shard, fitting: the topic fit is a task of its own beside the
		// shard build, the graph finalize and the merge, and the topic
		// columns follow the join. It holds only the two text tables, so the
		// rest of the raw window can go once the other task is done with it.
		tbl, ok := load(0)
		if !ok {
			return nil, stats, errs[0]
		}
		texts := Tables{Complaints: tbl.Complaints, Search: tbl.Search}
		var (
			complaints, search *TopicFeaturizer
			fitErr             error
		)
		parallel.Do(spec.Workers,
			func() { complaints, search, fitErr = spec.FitTopics(texts) },
			func() {
				buildShard(0, tbl)
				tbl = Tables{}
				if errs[0] == nil {
					merge()
				}
			})
		if fitErr != nil {
			return nil, stats, fitErr
		}
		if errs[0] != nil {
			return nil, stats, errs[0]
		}
		if err := applyTopics(uni, texts, nil, spec.Win, spec.DaysPerMonth, spec.Workers, spec.Groups, complaints, search); err != nil {
			return nil, stats, err
		}
	}
	stats.RawRows = rawRows
	for _, miss := range missing {
		for _, name := range miss {
			if !slices.Contains(stats.Missing, name) {
				stats.Missing = append(stats.Missing, name)
			}
		}
	}
	return uni, stats, nil
}
