package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"telcochurn/internal/core"
	"telcochurn/internal/eval"
	"telcochurn/internal/features"
)

// Tab3Result reproduces Table 3: the deployed configuration (all 150
// features, 4 months of training volume) reported at eight top-U cutoffs.
type Tab3Result struct {
	PaperUs []int
	Us      []int
	Recall  []float64
	Prec    []float64
	AUC     float64
	PRAUC   float64
	// Importance carries Table 4 alongside (same fitted model).
	Importance *Tab4Result
}

// Render implements Result.
func (r *Tab3Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table 3: overall performance, all 150 features, 4-month volume")
	rows := make([][]string, 0, len(r.Us))
	for i := range r.Us {
		rows = append(rows, []string{
			fmt.Sprintf("%d", r.Us[i]),
			fmt.Sprintf("(%d)", r.PaperUs[i]),
			f5(r.Recall[i]),
			f5(r.Prec[i]),
		})
	}
	renderRows(w, []string{"Top U", "(paper U)", "Recall", "Precision"}, rows)
	fmt.Fprintf(w, "AUC = %s   PR-AUC = %s\n", f5(r.AUC), f5(r.PRAUC))
}

// Tab4Result reproduces Table 4: the RF Gini importance ranking with each
// feature's group.
type Tab4Result struct {
	Names      []string
	Groups     []string
	Importance []float64 // normalized, descending
	TopN       int
}

// Render implements Result.
func (r *Tab4Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table 4: feature importance ranking (paper: balance #1, page_download_throughput #2)")
	n := r.TopN
	if n == 0 || n > len(r.Names) {
		n = len(r.Names)
	}
	rows := make([][]string, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1), r.Names[i], r.Groups[i], fmt.Sprintf("%.6f", r.Importance[i]),
		})
	}
	renderRows(w, []string{"Rank", "Feature", "Category", "Importance"}, rows)
}

// Tab3Overall runs the deployed configuration: all feature groups, 4 months
// of training data, predicting the last simulated month. Returns Table 3's
// cutoff sweep and Table 4's importance ranking from the same fitted forest.
func Tab3Overall(opts Options) (*Tab3Result, error) {
	opts = opts.withDefaults()
	const volume = 4
	// Anchor = last month; feature months anchor-1-volume..anchor-2 need
	// truth back to anchor-2-volume for graph seeds.
	if opts.Months < 9 {
		opts.Months = 9
	}
	env := NewEnv(opts)
	days := env.Days()
	anchor := opts.Months

	paperUs := []int{50000, 100000, 150000, 200000, 250000, 300000, 350000, 400000}
	res := &Tab3Result{PaperUs: paperUs}

	preds, _, pipe, err := env.run(runSpec{
		groups:    features.AllGroups(),
		train:     monthTrain(anchor-2, volume, days),
		test:      core.MonthSpec(anchor-1, days),
		u:         opts.scaleU(200000),
		seedShift: 31,
	})
	if err != nil {
		return nil, fmt.Errorf("tab3: %w", err)
	}
	for _, pu := range paperUs {
		u := opts.scaleU(pu)
		rep := eval.Evaluate(preds, u)
		res.Us = append(res.Us, u)
		res.Recall = append(res.Recall, rep.RAtU)
		res.Prec = append(res.Prec, rep.PAtU)
		if pu == 200000 {
			res.AUC = rep.AUC
			res.PRAUC = rep.PRAUC
		}
	}

	rf, ok := pipe.Classifier().(*core.RFClassifier)
	if !ok {
		return res, nil
	}
	res.Importance = importanceTable(rf, pipe.FeatureNames())
	return res, nil
}

// importanceTable ranks features by forest importance and tags groups.
func importanceTable(rf *core.RFClassifier, names []string) *Tab4Result {
	imp := rf.Forest().Importance()
	type fi struct {
		name string
		v    float64
	}
	ranked := make([]fi, len(names))
	for i, n := range names {
		ranked[i] = fi{n, imp[i]}
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].v != ranked[b].v {
			return ranked[a].v > ranked[b].v
		}
		return ranked[a].name < ranked[b].name
	})
	out := &Tab4Result{TopN: 20}
	for _, r := range ranked {
		out.Names = append(out.Names, r.name)
		out.Groups = append(out.Groups, groupOfFeature(r.name))
		out.Importance = append(out.Importance, r.v)
	}
	return out
}

// groupOfFeature labels a wide-table column with its paper group, from the
// naming conventions of the features package.
func groupOfFeature(name string) string {
	switch {
	// Second-order products first: their names embed source-feature names.
	case strings.Contains(name, "_x_"):
		return "F9"
	case strings.HasPrefix(name, "pagerank_voice"), strings.HasPrefix(name, "labelpropagation_voice"):
		return "F4"
	case strings.HasPrefix(name, "pagerank_message"), strings.HasPrefix(name, "labelpropagation_message"):
		return "F5"
	case strings.HasPrefix(name, "pagerank_cooccurrence"), strings.HasPrefix(name, "labelpropagation_cooccurrence"):
		return "F6"
	case strings.HasPrefix(name, "complaint_topic_"):
		return "F7"
	case strings.HasPrefix(name, "search_topic_"):
		return "F8"
	case strings.HasPrefix(name, "page_"), strings.HasPrefix(name, "ps_"), strings.HasPrefix(name, "loc_"),
		strings.HasPrefix(name, "tcp_"), strings.HasPrefix(name, "streaming_"), strings.HasPrefix(name, "email_"),
		strings.HasPrefix(name, "upload_"):
		return "F3"
	case strings.HasPrefix(name, "call_success_rate"), strings.HasPrefix(name, "e2e_"), strings.HasPrefix(name, "call_drop_rate"),
		strings.HasPrefix(name, "uplink_mos"), strings.HasPrefix(name, "voice_quality"), strings.HasPrefix(name, "ip_mos"),
		strings.HasPrefix(name, "oneway_"), strings.HasPrefix(name, "noise_"), strings.HasPrefix(name, "echo_"):
		return "F2"
	default:
		return "F1"
	}
}
