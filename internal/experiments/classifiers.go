package experiments

import (
	"fmt"
	"io"

	"telcochurn/internal/core"
	"telcochurn/internal/eval"
	"telcochurn/internal/fm"
	"telcochurn/internal/linear"
	"telcochurn/internal/tree"
)

// Fig9Result reproduces Figure 9: RF vs GBDT vs LIBFM vs LIBLINEAR on the
// same baseline features.
type Fig9Result struct {
	Names   []string
	Reports []eval.Report
	U       int
}

// Render implements Result.
func (r *Fig9Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 9: classifier comparison (U=%d; paper: RF best by <3%%, features matter more)\n", r.U)
	rows := make([][]string, 0, len(r.Names))
	for i, name := range r.Names {
		rep := r.Reports[i]
		rows = append(rows, []string{name, f5(rep.AUC), f5(rep.PRAUC), f5(rep.RAtU), f5(rep.PAtU)})
	}
	renderRows(w, []string{"Classifier", "AUC", "PR-AUC", "R@U", "P@U"}, rows)
}

// Fig9Classifiers runs the comparison. All classifiers see identical
// training data (baseline features, weighted instances) per Section 5.8;
// LIBFM and LIBLINEAR binarize features into quantile indicators as the
// paper describes.
func Fig9Classifiers(opts Options) (*Fig9Result, error) {
	opts = opts.withDefaults()
	if opts.Months < 4+opts.Repeats-1 {
		opts.Months = 4 + opts.Repeats - 1
	}
	env := NewEnv(opts)
	days := env.Days()
	u := opts.scaleU(200000)

	makers := []struct {
		name string
		mk   func(seed int64) core.Classifier
	}{
		{"RF", func(seed int64) core.Classifier {
			return &core.RFClassifier{Config: tree.ForestConfig{
				NumTrees: opts.Trees, MinLeafSamples: opts.MinLeaf, Seed: seed,
			}}
		}},
		{"GBDT", func(seed int64) core.Classifier {
			return &core.GBDTClassifier{Config: tree.GBDTConfig{
				NumTrees: opts.Trees, LearningRate: 0.1, MaxDepth: 4,
				MinLeafSamples: opts.MinLeaf, Seed: seed,
			}}
		}},
		{"LIBFM", func(seed int64) core.Classifier {
			return &core.FMClassifier{Config: fm.Config{LearningRate: 0.1, Seed: seed}}
		}},
		{"LIBLINEAR", func(seed int64) core.Classifier {
			return &core.LinearClassifier{Config: linear.Config{LearningRate: 0.1, Seed: seed}}
		}},
	}

	res := &Fig9Result{U: u}
	for mi, m := range makers {
		var reports []eval.Report
		for a := 0; a < opts.Repeats; a++ {
			anchor := 4 + a
			_, report, _, err := env.run(runSpec{
				train:      []core.WindowSpec{core.MonthSpec(anchor-2, days)},
				test:       core.MonthSpec(anchor-1, days),
				u:          u,
				classifier: m.mk(opts.Seed + int64(mi*111+a)),
				seedShift:  int64(mi*900 + a),
			})
			if err != nil {
				return nil, fmt.Errorf("fig9 %s: %w", m.name, err)
			}
			reports = append(reports, report)
		}
		res.Names = append(res.Names, m.name)
		res.Reports = append(res.Reports, eval.MeanReport(reports))
	}
	return res, nil
}
