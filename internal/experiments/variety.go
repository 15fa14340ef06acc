package experiments

import (
	"fmt"
	"io"

	"telcochurn/internal/core"
	"telcochurn/internal/eval"
	"telcochurn/internal/features"
)

// Tab2Result reproduces Table 2: each OSS/graph/topic/second-order feature
// group added separately to the F1 baseline, with the PR-AUC lift.
type Tab2Result struct {
	Labels  []string
	Reports []eval.Report
	U       int
}

// Render implements Result.
func (r *Tab2Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 2: variety — feature groups added to the F1 baseline (U=%d)\n", r.U)
	base := r.Reports[0].PRAUC
	rows := make([][]string, 0, len(r.Labels))
	for i, label := range r.Labels {
		rep := r.Reports[i]
		rows = append(rows, []string{
			label, f5(rep.AUC), f5(rep.PRAUC), f5(rep.RAtU), f5(rep.PAtU),
			fmt.Sprintf("%.3f%%", 100*(rep.PRAUC-base)/base),
		})
	}
	renderRows(w, []string{"Features", "AUC", "PR-AUC", "R@U", "P@U", "dPR-AUC"}, rows)
}

// Tab2Variety runs the Variety experiment: F1 alone, then F1 plus each of
// F2..F9 separately, averaged over sliding-window anchors (one month of
// training features, next month's labels — Figure 6 with 1-month volume).
func Tab2Variety(opts Options) (*Tab2Result, error) {
	opts = opts.withDefaults()
	// Anchor A: test features A-1 labels A; train features A-2 labels A-1;
	// graph features of month A-2 need truth A-3 => A >= 5.
	if opts.Months < 5+opts.Repeats-1 {
		opts.Months = 5 + opts.Repeats - 1
	}
	env := NewEnv(opts)
	days := env.Days()
	u := opts.scaleU(200000)

	variants := []struct {
		label string
		extra []features.Group
	}{
		{"F1 (baseline BSS)", nil},
		{"F2 (+CS)", []features.Group{features.F2CS}},
		{"F3 (+PS)", []features.Group{features.F3PS}},
		{"F4 (+call graph)", []features.Group{features.F4CallGraph}},
		{"F5 (+message graph)", []features.Group{features.F5MessageGraph}},
		{"F6 (+co-occurrence graph)", []features.Group{features.F6CooccurrenceGraph}},
		{"F7 (+complaint topics)", []features.Group{features.F7ComplaintTopics}},
		{"F8 (+search topics)", []features.Group{features.F8SearchTopics}},
		{"F9 (+second-order)", []features.Group{features.F9SecondOrder}},
	}

	res := &Tab2Result{U: u}
	for vi, variant := range variants {
		groups := append([]features.Group{features.F1Baseline}, variant.extra...)
		var reports []eval.Report
		for a := 0; a < opts.Repeats; a++ {
			anchor := 5 + a
			_, report, _, err := env.run(runSpec{
				groups:    groups,
				train:     []core.WindowSpec{core.MonthSpec(anchor-2, days)},
				test:      core.MonthSpec(anchor-1, days),
				u:         u,
				seedShift: int64(vi*1000 + a),
			})
			if err != nil {
				return nil, fmt.Errorf("tab2 %s anchor %d: %w", variant.label, anchor, err)
			}
			reports = append(reports, report)
		}
		res.Labels = append(res.Labels, variant.label)
		res.Reports = append(res.Reports, eval.MeanReport(reports))
	}
	return res, nil
}
