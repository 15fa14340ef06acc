package main

import (
	"flag"
	"fmt"
	"os"

	"telcochurn/internal/core"
	"telcochurn/internal/eval"
	"telcochurn/internal/features"
	"telcochurn/internal/insight"
	"telcochurn/internal/rootcause"
	"telcochurn/internal/synth"
	"telcochurn/internal/tree"
)

// cmdExplain runs the root-cause extension: trains the full-variety
// pipeline on a simulated world, explains the top predicted churners via
// decision-path attribution, prints the operator-level cause mix and the
// network-insight cell report.
func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	customers := fs.Int("customers", 3000, "customers per month")
	top := fs.Int("top", 8, "individual customers to detail")
	trees := fs.Int("trees", 150, "forest size")
	seed := fs.Int64("seed", 1, "seed")
	fs.Parse(args)

	cfg := synth.DefaultConfig()
	cfg.Customers = *customers
	cfg.Months = 5
	cfg.Seed = *seed
	months := synth.Simulate(cfg)
	src := core.NewMemorySource(months, cfg.DaysPerMonth)

	pipe, err := core.Fit(src, []core.WindowSpec{core.MonthSpec(3, cfg.DaysPerMonth)}, core.Config{
		Groups: features.AllGroups(),
		Forest: tree.ForestConfig{NumTrees: *trees, MinLeafSamples: 25, Seed: *seed},
		Seed:   *seed,
	})
	if err != nil {
		return err
	}
	rf, ok := pipe.Classifier().(*core.RFClassifier)
	if !ok {
		return fmt.Errorf("explain: classifier is not a random forest")
	}
	explainer := rootcause.NewExplainer(rf.Forest())

	win := features.MonthWindow(4, cfg.DaysPerMonth)
	frame, err := pipe.BuildFrame(src, win, false, nil)
	if err != nil {
		return err
	}
	var preds []eval.Prediction
	rows := make(map[int64][]float64, frame.NumRows())
	for _, id := range frame.IDs() {
		row, _ := frame.Row(id)
		rows[id] = row
		preds = append(preds, eval.Prediction{ID: id, Score: rf.Score(row)})
	}
	eval.ByScoreDesc(preds)

	u := synth.ScaleU(50000, cfg.Customers)
	var explanations []*rootcause.Explanation
	for i := 0; i < u && i < len(preds); i++ {
		explanations = append(explanations, explainer.Explain(preds[i].ID, rows[preds[i].ID], 3))
	}

	fmt.Printf("top %d predicted churners (detailing %d):\n", u, *top)
	for i, e := range explanations {
		if i >= *top {
			break
		}
		fmt.Printf("  %s |", e)
		for _, c := range e.Top {
			fmt.Printf(" %s(%+.3f)", c.Feature, c.Score)
		}
		fmt.Println()
	}

	fmt.Println("\ncause mix across the target list:")
	share := rootcause.CauseShare(explanations)
	for _, c := range rootcause.RankedCauses(share) {
		fmt.Printf("  %-18s %5.1f%%\n", c, 100*share[c])
	}

	tbl, err := src.Tables(win)
	if err != nil {
		return err
	}
	report, err := insight.BuildNetworkReport(tbl, win, cfg.DaysPerMonth, core.LabelsOf(months[4].Truth))
	if err != nil {
		return err
	}
	fmt.Println()
	report.Render(os.Stdout, 8)
	return nil
}
