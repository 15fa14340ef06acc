package experiments

import (
	"fmt"
	"io"

	"telcochurn/internal/core"
	"telcochurn/internal/eval"
)

// Fig8Result reproduces Figure 8: predictive performance when features are
// taken h months before the predicted month (early signals decay fast).
type Fig8Result struct {
	Horizons []int
	Reports  []eval.Report
	U        int
}

// Render implements Result.
func (r *Fig8Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 8: earlier features -> worse prediction (U=%d; paper: ~20%% PR-AUC drop per month)\n", r.U)
	rows := make([][]string, 0, len(r.Horizons))
	for i, h := range r.Horizons {
		rep := r.Reports[i]
		rows = append(rows, []string{
			fmt.Sprintf("%d month(s)", h),
			f5(rep.AUC), f5(rep.PRAUC), f5(rep.RAtU), f5(rep.PAtU),
		})
	}
	renderRows(w, []string{"Horizon", "AUC", "PR-AUC", "R@U", "P@U"}, rows)
}

// Fig8EarlySignals runs the early-signal experiment with baseline features:
// for horizon h, the classifier is trained on features of month T labeled by
// month T+h, and tested on features of month T+1 labeled by month T+1+h
// (the paper's shifted sliding window).
func Fig8EarlySignals(opts Options) (*Fig8Result, error) {
	opts = opts.withDefaults()
	const maxHorizon = 4
	// Need T >= 1 and T+1+maxHorizon + (Repeats-1) <= Months.
	if opts.Months < 6+maxHorizon {
		opts.Months = 6 + maxHorizon
	}
	env := NewEnv(opts)
	days := env.Days()
	u := opts.scaleU(200000)

	res := &Fig8Result{U: u}
	for h := 1; h <= maxHorizon; h++ {
		var reports []eval.Report
		for a := 0; a < opts.Repeats; a++ {
			trainFeat := opts.Months - h - 1 - a
			testFeat := trainFeat + 1
			_, report, _, err := env.run(runSpec{
				train: []core.WindowSpec{{
					Features:   monthWin(trainFeat, days),
					LabelMonth: trainFeat + h,
				}},
				test: core.WindowSpec{
					Features:   monthWin(testFeat, days),
					LabelMonth: testFeat + h,
				},
				u:         u,
				seedShift: int64(h*300 + a),
			})
			if err != nil {
				return nil, fmt.Errorf("fig8 horizon %d: %w", h, err)
			}
			reports = append(reports, report)
		}
		res.Horizons = append(res.Horizons, h)
		res.Reports = append(res.Reports, eval.MeanReport(reports))
	}
	return res, nil
}
