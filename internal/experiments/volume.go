package experiments

import (
	"fmt"
	"io"

	"telcochurn/internal/core"
	"telcochurn/internal/eval"
)

// Fig7Result reproduces Figure 7: predictive performance as the training
// volume grows from 1 to MaxVolume months of labeled instances, at three
// top-U cutoffs.
type Fig7Result struct {
	Volumes []int
	// Reports[v][k] is the averaged report for volume Volumes[v] at cutoff
	// Us[k].
	Us      []int
	PaperUs []int
	Reports [][]eval.Report
}

// Render implements Result.
func (r *Fig7Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 7: more training months -> better prediction, with diminishing returns")
	for k, u := range r.Us {
		fmt.Fprintf(w, "\nU = %d (paper U = %d):\n", u, r.PaperUs[k])
		rows := make([][]string, 0, len(r.Volumes))
		for v := range r.Volumes {
			rep := r.Reports[v][k]
			rows = append(rows, []string{
				fmt.Sprintf("%d", r.Volumes[v]),
				f5(rep.AUC), f5(rep.PRAUC), f5(rep.RAtU), f5(rep.PAtU),
			})
		}
		renderRows(w, []string{"Months", "AUC", "PR-AUC", "R@U", "P@U"}, rows)
	}
}

// Fig7Volume runs the Volume experiment with baseline (F1) features on a
// dedicated world long enough for MaxVolume training months before each
// anchor. Anchors are the last Repeats months; the reported numbers are
// anchor averages, as in the paper.
func Fig7Volume(opts Options) (*Fig7Result, error) {
	opts = opts.withDefaults()
	const maxVolume = 6
	// Anchor A needs feature months A-1-maxVolume..A-2 >= 1, so A >= 8 + 1.
	opts.Months = 8 + opts.Repeats
	env := NewEnv(opts)
	days := env.Days()

	res := &Fig7Result{
		PaperUs: []int{50000, 100000, 200000},
	}
	for _, pu := range res.PaperUs {
		res.Us = append(res.Us, opts.scaleU(pu))
	}

	// The volume × anchor grid is an independent fan-out: every cell has its
	// own seed shift, so the runs execute concurrently (bounded by Workers)
	// and are collected in grid order — identical output to a sequential run.
	var specs []runSpec
	for v := 1; v <= maxVolume; v++ {
		for a := 0; a < opts.Repeats; a++ {
			anchor := 9 + a // predict churners of this month
			specs = append(specs, runSpec{
				train:     monthTrain(anchor-2, v, days),
				test:      core.MonthSpec(anchor-1, days),
				u:         res.Us[0],
				seedShift: int64(v*100 + a),
			})
		}
	}
	outcomes := env.runAll(specs)

	for v := 1; v <= maxVolume; v++ {
		perU := make([][]eval.Report, len(res.Us))
		for a := 0; a < opts.Repeats; a++ {
			out := outcomes[(v-1)*opts.Repeats+a]
			if out.err != nil {
				return nil, fmt.Errorf("fig7 volume %d anchor %d: %w", v, 9+a, out.err)
			}
			for k, u := range res.Us {
				perU[k] = append(perU[k], eval.Evaluate(out.preds, u))
			}
		}
		res.Volumes = append(res.Volumes, v)
		row := make([]eval.Report, len(res.Us))
		for k := range res.Us {
			row[k] = eval.MeanReport(perU[k])
		}
		res.Reports = append(res.Reports, row)
	}
	return res, nil
}
