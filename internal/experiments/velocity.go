package experiments

import (
	"fmt"
	"io"

	"telcochurn/internal/core"
	"telcochurn/internal/eval"
)

// Tab5Result reproduces Table 5: faster feature/classifier update cadence
// gives a small but steady accuracy gain.
type Tab5Result struct {
	CadenceDays []int
	Reports     []eval.Report
	U           int
}

// Render implements Result.
func (r *Tab5Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 5: velocity — update cadence vs accuracy (U=%d; paper: <0.7%% PR-AUC spread)\n", r.U)
	base := r.Reports[0].PRAUC
	rows := make([][]string, 0, len(r.CadenceDays))
	for i, c := range r.CadenceDays {
		rep := r.Reports[i]
		rows = append(rows, []string{
			fmt.Sprintf("%d days", c),
			f5(rep.AUC), f5(rep.PRAUC), f5(rep.RAtU), f5(rep.PAtU),
			fmt.Sprintf("%.3f%%", 100*(rep.PRAUC-base)/base),
		})
	}
	renderRows(w, []string{"Velocity", "AUC", "PR-AUC", "R@U", "P@U", "dPR-AUC"}, rows)
}

// Tab5Velocity runs the Velocity experiment with baseline features. A
// system refreshed every c days has, at the moment the prediction list is
// cut, folded in a fraction (1 - c/60) of the freshest labeled month (its
// labels resolve continuously through the month; a slower cadence misses
// more of them). We therefore train on the month before last in full plus a
// cadence-dependent sample of the last labeled month, keeping every feature
// window month-aligned. The paper observes <0.7% PR-AUC between 30-day and
// 5-day cadences; this construction is small and monotone in expectation by
// the Figure 7 volume curve. (Shifting the feature windows by the raw
// staleness difference instead lets them swallow up to half the churn month
// and inflates the effect ~100x; see EXPERIMENTS.md.)
func Tab5Velocity(opts Options) (*Tab5Result, error) {
	opts = opts.withDefaults()
	if opts.Months < 5+opts.Repeats-1 {
		opts.Months = 5 + opts.Repeats - 1
	}
	env := NewEnv(opts)
	days := env.Days()
	u := opts.scaleU(200000)

	res := &Tab5Result{CadenceDays: []int{30, 20, 10, 5}, U: u}
	// Cadence × anchor cells are independent (per-cell seed shifts); fan them
	// out concurrently and average in grid order.
	var specs []runSpec
	for ci, cadence := range res.CadenceDays {
		frac := 1 - float64(cadence)/60
		for a := 0; a < opts.Repeats; a++ {
			anchor := 5 + a // predict churners of this month
			newest := core.MonthSpec(anchor-2, days)
			newest.SampleFrac = frac
			specs = append(specs, runSpec{
				train: []core.WindowSpec{
					core.MonthSpec(anchor-3, days), // fully labeled by any cadence
					newest,                         // partially folded in
				},
				test:      core.MonthSpec(anchor-1, days),
				u:         u,
				seedShift: int64(ci*500 + a),
			})
		}
	}
	outcomes := env.runAll(specs)
	for ci, cadence := range res.CadenceDays {
		var reports []eval.Report
		for a := 0; a < opts.Repeats; a++ {
			out := outcomes[ci*opts.Repeats+a]
			if out.err != nil {
				return nil, fmt.Errorf("tab5 cadence %d anchor %d: %w", cadence, 5+a, out.err)
			}
			reports = append(reports, out.report)
		}
		res.Reports = append(res.Reports, eval.MeanReport(reports))
	}
	return res, nil
}
