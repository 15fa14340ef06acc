package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"telcochurn/internal/core"
	"telcochurn/internal/eval"
	"telcochurn/internal/experiments"
	"telcochurn/internal/features"
	"telcochurn/internal/sampling"
	"telcochurn/internal/synth"
)

// defaultGroups is what -groups=default trains with: the raw-table groups,
// cheap to build and the historical default. The artifact persists fitted
// feature models too, so any of F1..F9 (or "all") may be requested.
var defaultGroups = []features.Group{
	features.F1Baseline, features.F2CS, features.F3PS,
	features.F4CallGraph, features.F5MessageGraph, features.F6CooccurrenceGraph,
}

func parseGroups(spec string) ([]features.Group, error) {
	switch spec {
	case "", "default":
		return defaultGroups, nil
	case "all":
		return features.AllGroups(), nil
	}
	byName := map[string]features.Group{}
	for _, g := range features.AllGroups() {
		byName[strings.ToLower(g.String())] = g
	}
	var out []features.Group
	for _, tok := range strings.Split(spec, ",") {
		g, ok := byName[strings.ToLower(strings.TrimSpace(tok))]
		if !ok {
			return nil, fmt.Errorf("unknown group %q (have F1..F9, default, all)", tok)
		}
		out = append(out, g)
	}
	return out, nil
}

// cmdTrain fits the full pipeline on a warehouse per Figure 6 and saves a
// versioned artifact: config, schema, fitted feature models, classifier.
func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	sf := addSourceFlags(fs)
	out := fs.String("out", "churn-model.tcpa", "artifact output path")
	featureMonth := fs.Int("feature-month", 0, "newest training feature month (0 = auto: last-2)")
	volume := fs.Int("volume", 1, "training months to accumulate")
	trees := fs.Int("trees", 300, "forest size")
	minLeaf := fs.Int("minleaf", 25, "minimum samples per leaf")
	groupSpec := fs.String("groups", "default", "comma-separated feature groups (F1..F9, default, all)")
	seed := fs.Int64("seed", 1, "seed")
	bins := fs.Int("bins", 0, "histogram bins for forest split search (0 = exact splits, max 255)")
	precompute := fs.Bool("precompute", false, "embed the latest month's feature vectors in the artifact (serve without a warehouse)")
	fs.Parse(args)

	if *sf.degraded {
		fmt.Fprintln(os.Stderr, "train: -degraded has no effect here — training needs healthy raw tables (labels cannot be imputed)")
	}
	groups, err := parseGroups(*groupSpec)
	if err != nil {
		return err
	}
	src, wh, days, err := sf.source("train")
	if err != nil {
		return err
	}
	monthsAvail, err := wh.Months(synth.TableTruth)
	if err != nil || len(monthsAvail) == 0 {
		return fmt.Errorf("empty warehouse %s (run churnctl generate)", *sf.dir)
	}
	if len(monthsAvail) < 3 {
		return fmt.Errorf("train: warehouse needs >= 3 months of data (have %v)", monthsAvail)
	}

	newest := *featureMonth
	if newest == 0 {
		newest = monthsAvail[len(monthsAvail)-1] - 2
	}
	var specs []core.WindowSpec
	for m := newest - *volume + 1; m <= newest; m++ {
		specs = append(specs, core.MonthSpec(m, days))
	}

	// The knob-to-config mapping is the experiments package's, so CLI
	// training and experiment runs agree on every derived setting.
	cfg := experiments.Options{
		Trees: *trees, MinLeaf: *minLeaf, Seed: *seed,
		Workers: *sf.workers, Bins: *bins,
	}.CoreConfig()
	cfg.Groups = groups
	cfg.Imbalance = sampling.WeightedInstance

	pipe, err := core.Fit(src, specs, cfg)
	if err != nil {
		return err
	}
	if *precompute {
		// The snapshot serves the same month scoring would pick by default:
		// the latest customer snapshot, not the label-lagged training month.
		custMonths, err := wh.Months(synth.TableCustomers)
		if err != nil || len(custMonths) == 0 {
			return fmt.Errorf("precompute: no customer snapshots in %s", *sf.dir)
		}
		serveMonth := custMonths[len(custMonths)-1]
		if err := pipe.Precompute(src, features.MonthWindow(serveMonth, days), serveMonth); err != nil {
			return fmt.Errorf("precompute month %d: %w", serveMonth, err)
		}
		fmt.Printf("precomputed %d serving vectors for month %d\n", pipe.Vectors().NumRows(), serveMonth)
	}
	if err := pipe.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("trained %s on feature months %d..%d (%d features), wrote %s (schema %08x)\n",
		pipe.Classifier().Name(), newest-*volume+1, newest,
		len(pipe.FeatureNames()), *out, pipe.SchemaChecksum())
	return nil
}

// cmdScore loads a saved artifact and produces the ranked churner list for
// a warehouse month — the list the retention team receives. The same
// artifact served by churnd yields bit-identical scores. Reads retry with
// backoff; with -degraded, tables that stay unavailable are imputed around
// and the degradation mask is reported on stderr (the CSV stays on stdout).
func cmdScore(args []string) error {
	fs := flag.NewFlagSet("score", flag.ExitOnError)
	sf := addSourceFlags(fs)
	model := fs.String("model", "churn-model.tcpa", "artifact path")
	month := fs.Int("month", 0, "feature month to score (0 = latest)")
	top := fs.Int("top", 50, "list length (0 = every customer)")
	full := fs.Bool("full", false, "print scores at full precision (exact parity with churnd)")
	fs.Parse(args)

	pipe, err := core.LoadFile(*model)
	if err != nil {
		return err
	}
	pipe.SetWorkers(*sf.workers)
	vecs := pipe.Vectors()

	// The warehouse is optional when the artifact carries a precomputed
	// snapshot, so open it tolerantly and remember why it is unusable.
	var monthsAvail []int
	src, wh, days, whErr := sf.source("score")
	if whErr == nil {
		// Scoring needs no labels, so the customer snapshot — the one table
		// degraded mode cannot impute — anchors month discovery.
		monthsAvail, whErr = wh.Months(synth.TableCustomers)
		if whErr == nil && len(monthsAvail) == 0 {
			whErr = fmt.Errorf("empty warehouse %s (run churnctl generate)", *sf.dir)
		}
	}
	m := *month
	if m == 0 {
		switch {
		case whErr == nil:
			m = monthsAvail[len(monthsAvail)-1]
		case vecs != nil:
			m = vecs.Month()
		default:
			return whErr
		}
	}

	var res *core.Predictions
	if vecs != nil && vecs.Month() == m && !*sf.degraded {
		// The snapshot holds the strict frame rows for this month, so
		// scoring it skips the warehouse entirely and stays bit-identical
		// to the frame path (and to churnd over the same artifact).
		res, err = pipe.PredictVectors()
	} else {
		if whErr != nil {
			return whErr
		}
		// Strict or degraded, scoring holds a single shard's tables at a
		// time (sf.source always yields a sharded view; a plain layout is
		// its 1-shard case) and sees the same frame bit for bit.
		win := features.MonthWindow(m, days)
		if *sf.degraded {
			res, _, err = pipe.PredictShardedDegraded(src, win)
		} else {
			res, _, err = pipe.PredictSharded(src, win)
		}
	}
	if err != nil {
		return err
	}
	if *sf.degraded {
		fmt.Fprintf(os.Stderr, "degraded groups: %s\n", res.Degraded)
	}
	preds := make([]eval.Prediction, len(res.IDs))
	for i, id := range res.IDs {
		preds[i] = eval.Prediction{ID: id, Score: res.Scores[i]}
	}
	eval.ByScoreDesc(preds)
	n := *top
	if n == 0 || n > len(preds) {
		n = len(preds)
	}
	fmt.Printf("rank,imsi,score\n")
	for i := 0; i < n; i++ {
		if *full {
			fmt.Printf("%d,%d,%s\n", i+1, preds[i].ID, strconv.FormatFloat(preds[i].Score, 'g', -1, 64))
		} else {
			fmt.Printf("%d,%d,%.6f\n", i+1, preds[i].ID, preds[i].Score)
		}
	}
	return nil
}
