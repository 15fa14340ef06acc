package experiments

import (
	"fmt"
	"io"

	"telcochurn/internal/core"
	"telcochurn/internal/eval"
	"telcochurn/internal/sampling"
)

// Tab7Result reproduces Table 7: the four class-imbalance treatments under
// the baseline configuration.
type Tab7Result struct {
	Methods []sampling.Method
	Reports []eval.Report
	U       int
}

// Render implements Result.
func (r *Tab7Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 7: class-imbalance methods (U=%d; paper: Weighted Instance wins by ~10%% PR-AUC)\n", r.U)
	rows := make([][]string, 0, len(r.Methods))
	for i, m := range r.Methods {
		rep := r.Reports[i]
		rows = append(rows, []string{
			m.String(), f5(rep.AUC), f5(rep.PRAUC), f5(rep.RAtU), f5(rep.PAtU),
		})
	}
	renderRows(w, []string{"Method", "AUC", "PR-AUC", "R@U", "P@U"}, rows)
}

// Tab7Imbalance runs the imbalance comparison with baseline features.
func Tab7Imbalance(opts Options) (*Tab7Result, error) {
	opts = opts.withDefaults()
	if opts.Months < 4+opts.Repeats-1 {
		opts.Months = 4 + opts.Repeats - 1
	}
	env := NewEnv(opts)
	days := env.Days()
	u := opts.scaleU(200000)

	res := &Tab7Result{Methods: sampling.Methods(), U: u}
	for mi, method := range res.Methods {
		var reports []eval.Report
		for a := 0; a < opts.Repeats; a++ {
			anchor := 4 + a
			_, report, _, err := env.run(runSpec{
				train:     []core.WindowSpec{core.MonthSpec(anchor-2, days)},
				test:      core.MonthSpec(anchor-1, days),
				u:         u,
				imbalance: method,
				seedShift: int64(mi*700 + a),
			})
			if err != nil {
				return nil, fmt.Errorf("tab7 %s: %w", method, err)
			}
			reports = append(reports, report)
		}
		res.Reports = append(res.Reports, eval.MeanReport(reports))
	}
	return res, nil
}
