package experiments

import (
	"fmt"
	"io"

	"telcochurn/internal/core"
	"telcochurn/internal/eval"
	"telcochurn/internal/features"
	"telcochurn/internal/table"
	"telcochurn/internal/tree"
)

// AblationResult is a generic one-axis ablation table.
type AblationResult struct {
	Title   string
	Axis    string
	Labels  []string
	Reports []eval.Report
	U       int
}

// Render implements Result.
func (r *AblationResult) Render(w io.Writer) {
	fmt.Fprintf(w, "%s (U=%d)\n", r.Title, r.U)
	rows := make([][]string, 0, len(r.Labels))
	for i, l := range r.Labels {
		rep := r.Reports[i]
		rows = append(rows, []string{l, f5(rep.AUC), f5(rep.PRAUC), f5(rep.RAtU), f5(rep.PAtU)})
	}
	renderRows(w, []string{r.Axis, "AUC", "PR-AUC", "R@U", "P@U"}, rows)
}

// AblTrees sweeps the random-forest ensemble size, supporting the choice of
// a few hundred trees at experiment scale against the paper's 500: the
// curves saturate well before 500.
func AblTrees(opts Options) (*AblationResult, error) {
	opts = opts.withDefaults()
	if opts.Months < 5 {
		opts.Months = 5
	}
	env := NewEnv(opts)
	days := env.Days()
	u := opts.scaleU(200000)
	res := &AblationResult{
		Title: "Ablation: RF ensemble size (paper fixes 500; gains saturate far earlier)",
		Axis:  "Trees",
		U:     u,
	}
	for _, trees := range []int{10, 25, 50, 100, 200, 400} {
		_, report, _, err := env.run(runSpec{
			train: []core.WindowSpec{core.MonthSpec(3, days)},
			test:  core.MonthSpec(4, days),
			u:     u,
			classifier: &core.RFClassifier{Config: tree.ForestConfig{
				NumTrees: trees, MinLeafSamples: opts.MinLeaf, Seed: opts.Seed + int64(trees),
			}},
			seedShift: int64(trees),
		})
		if err != nil {
			return nil, fmt.Errorf("abl-trees %d: %w", trees, err)
		}
		res.Labels = append(res.Labels, fmt.Sprintf("%d", trees))
		res.Reports = append(res.Reports, report)
	}
	return res, nil
}

// AblMinLeaf sweeps the minimum-leaf stopping rule — the paper's
// over-fitting guard (100 at 2M rows; proportionally smaller here).
func AblMinLeaf(opts Options) (*AblationResult, error) {
	opts = opts.withDefaults()
	if opts.Months < 5 {
		opts.Months = 5
	}
	env := NewEnv(opts)
	days := env.Days()
	u := opts.scaleU(200000)
	res := &AblationResult{
		Title: "Ablation: minimum samples per leaf (the paper's over-fitting guard)",
		Axis:  "MinLeaf",
		U:     u,
	}
	for _, leaf := range []int{2, 5, 15, 40, 100, 250} {
		_, report, _, err := env.run(runSpec{
			train: []core.WindowSpec{core.MonthSpec(3, days)},
			test:  core.MonthSpec(4, days),
			u:     u,
			classifier: &core.RFClassifier{Config: tree.ForestConfig{
				NumTrees: opts.Trees, MinLeafSamples: leaf, Seed: opts.Seed + int64(leaf),
			}},
			seedShift: int64(leaf * 13),
		})
		if err != nil {
			return nil, fmt.Errorf("abl-minleaf %d: %w", leaf, err)
		}
		res.Labels = append(res.Labels, fmt.Sprintf("%d", leaf))
		res.Reports = append(res.Reports, report)
	}
	return res, nil
}

// AblGraphWindow compares building the F4/F6 graphs over the feature month
// alone versus the feature month plus the preceding month — the design
// choice discussed in core.Pipeline.BuildFrame: a churner's final-month CDRs
// are too sparse to anchor label propagation.
func AblGraphWindow(opts Options) (*AblationResult, error) {
	opts = opts.withDefaults()
	if opts.Months < 6 {
		opts.Months = 6
	}
	env := NewEnv(opts)
	days := env.Days()
	u := opts.scaleU(200000)
	res := &AblationResult{
		Title: "Ablation: graph construction window for F4/F6 label propagation",
		Axis:  "Window",
		U:     u,
	}
	groups := []features.Group{features.F1Baseline, features.F4CallGraph, features.F6CooccurrenceGraph}

	// Feature-month window: the pipeline default.
	_, oneMonth, _, err := env.run(runSpec{
		groups:    groups,
		train:     []core.WindowSpec{core.MonthSpec(4, days)},
		test:      core.MonthSpec(5, days),
		u:         u,
		seedShift: 71,
	})
	if err != nil {
		return nil, err
	}

	// Extended window: graphs accumulate the previous month's edges too and
	// seed from two months of churners. Sounds richer, measurably dilutes
	// propagation — which is why the pipeline does not do it.
	twoMonth, err := env.runExtendedGraphArm(4, 5, u)
	if err != nil {
		return nil, err
	}
	res.Labels = append(res.Labels, "feature month only (default)", "feature month + previous")
	res.Reports = append(res.Reports, oneMonth, twoMonth)
	return res, nil
}

// runExtendedGraphArm trains/evaluates with graph features built over the
// feature month plus the preceding month, seeding label propagation from
// both months' churners (the abl-graphwin alternative arm).
func (e *Env) runExtendedGraphArm(trainMonth, testMonth, u int) (eval.Report, error) {
	days := e.days
	build := func(featMonth int) (*features.Frame, error) {
		win := features.MonthWindow(featMonth, days)
		base, err := e.Src.Tables(win)
		if err != nil {
			return nil, err
		}
		frame, err := features.BuildBaseFeatures(base, win, days, 1)
		if err != nil {
			return nil, err
		}
		frame = frame.SelectGroups(features.F1Baseline)
		graphWin := features.Window{FromAbs: win.FromAbs - days, ToAbs: win.ToAbs}
		if graphWin.FromAbs < 1 {
			graphWin.FromAbs = 1
		}
		tbl, err := e.Src.Tables(graphWin)
		if err != nil {
			return nil, err
		}
		truth, err := e.Src.Truth(featMonth)
		if err != nil {
			return nil, err
		}
		in := features.GraphFeatureInput{
			PrevChurners: features.ChurnersOf(truth),
			StableSample: features.StableOf(truth, 10),
		}
		if before, err := e.Src.Truth(featMonth - 1); err == nil {
			for id := range features.ChurnersOf(before) {
				in.PrevChurners[id] = true
			}
		}
		features.AddGraphFeatures(frame, tbl, graphWin, days, in, e.Opts.Workers)
		return frame, nil
	}

	trainFrame, err := build(trainMonth)
	if err != nil {
		return eval.Report{}, err
	}
	trainTruth, err := e.Src.Truth(trainMonth + 1)
	if err != nil {
		return eval.Report{}, err
	}
	d := trainFrame.ToDataset(core.LabelsOf(trainTruth), -1)
	var keep []int
	for i, y := range d.Y {
		if y >= 0 {
			keep = append(keep, i)
		}
	}
	d = d.Subset(keep)
	forest, err := tree.FitForest(d, tree.ForestConfig{
		NumTrees: e.Opts.Trees, MinLeafSamples: e.Opts.MinLeaf, Seed: e.Opts.Seed + 73,
	})
	if err != nil {
		return eval.Report{}, err
	}

	testFrame, err := build(testMonth)
	if err != nil {
		return eval.Report{}, err
	}
	curChurn := features.ChurnersOf(mustTruth(e, testMonth))
	labels := core.LabelsOf(mustTruth(e, testMonth+1))
	var preds []eval.Prediction
	for _, id := range testFrame.IDs() {
		if curChurn[id] {
			continue
		}
		y, ok := labels[id]
		if !ok {
			continue
		}
		row, _ := testFrame.Row(id)
		preds = append(preds, eval.Prediction{ID: id, Score: forest.Score(row), Label: y})
	}
	return eval.Evaluate(preds, u), nil
}

func mustTruth(e *Env, month int) *table.Table {
	t, err := e.Src.Truth(month)
	if err != nil {
		panic(err)
	}
	return t
}
