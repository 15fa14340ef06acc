package rootcause

import (
	"math"
	"testing"

	"telcochurn/internal/core"
	"telcochurn/internal/eval"
	"telcochurn/internal/features"
	"telcochurn/internal/synth"
	"telcochurn/internal/tree"
)

func TestCauseOfFeatureMapping(t *testing.T) {
	cases := map[string]Cause{
		"voice_quality":                 CauseQuality,
		"page_download_throughput":      CauseQuality,
		"complaint_topic_2":             CauseQuality,
		"call_10010_cnt":                CauseQuality,
		"total_charge":                  CausePrice,
		"product_price":                 CausePrice,
		"innet_dura_x_total_charge":     CausePrice,
		"labelpropagation_cooccurrence": CauseSocial,
		"pagerank_voice":                CauseSocial,
		"search_topic_0":                CauseCompetitor,
		"balance":                       CauseDisengagement,
		"recharge_value":                CauseDisengagement,
		"call_dur_decline":              CauseDisengagement,
		"last_active_day":               CauseDisengagement,
		"age":                           CauseOther,
		"gender":                        CauseOther,
	}
	for name, want := range cases {
		if got := CauseOfFeature(name); got != want {
			t.Errorf("CauseOfFeature(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestCauseStrings(t *testing.T) {
	for _, c := range Causes() {
		if c.String() == "" || c.String()[0] == 'C' && c != CauseOther {
			// Only the fallback formats as Cause(n); all real ones are prose.
		}
	}
	if CauseQuality.String() != "network quality" {
		t.Errorf("CauseQuality = %q", CauseQuality.String())
	}
	if Cause(99).String() != "Cause(99)" {
		t.Errorf("fallback = %q", Cause(99).String())
	}
}

func TestExplainDecomposition(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Customers = 1200
	cfg.Months = 4
	months := synth.Simulate(cfg)
	src := core.NewMemorySource(months, cfg.DaysPerMonth)
	pipe, err := core.Fit(src, []core.WindowSpec{core.MonthSpec(2, cfg.DaysPerMonth)}, core.Config{
		Forest: tree.ForestConfig{NumTrees: 40, MinLeafSamples: 15, Seed: 5},
		Seed:   5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rf := pipe.Classifier().(*core.RFClassifier)
	ex := NewExplainer(rf.Forest())

	frame, err := pipe.BuildFrame(src, features.MonthWindow(3, cfg.DaysPerMonth), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	var explanations []*Explanation
	var preds []eval.Prediction
	for _, id := range frame.IDs() {
		row, _ := frame.Row(id)
		e := ex.Explain(id, row, 5)
		// Decomposition identity: bias + sum(causes) == score.
		sum := e.Bias
		for _, v := range e.ByCause {
			sum += v
		}
		if math.Abs(sum-e.Score) > 1e-9 {
			t.Fatalf("decomposition broken: %g vs %g", sum, e.Score)
		}
		if math.Abs(e.Score-rf.Score(row)) > 1e-9 {
			t.Fatalf("explained score %g != forest score", e.Score)
		}
		if len(e.Top) != 5 {
			t.Fatalf("top = %d", len(e.Top))
		}
		explanations = append(explanations, e)
		preds = append(preds, eval.Prediction{ID: id, Score: e.Score})
	}

	// Operator report: primary causes over the top-scored decile.
	eval.ByScoreDesc(preds)
	var topExp []*Explanation
	byID := map[int64]*Explanation{}
	for _, e := range explanations {
		byID[e.ID] = e
	}
	for _, p := range preds[:len(preds)/10] {
		topExp = append(topExp, byID[p.ID])
	}
	share := CauseShare(topExp)
	total := 0.0
	for _, v := range share {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("cause shares sum to %g", total)
	}
	ranked := RankedCauses(share)
	if len(ranked) != len(Causes()) {
		t.Fatalf("ranked = %d causes", len(ranked))
	}
	if share[ranked[0]] < share[ranked[len(ranked)-1]] {
		t.Error("RankedCauses not descending")
	}
	if topExp[0].String() == "" {
		t.Error("empty explanation string")
	}
}

func TestCauseShareEmpty(t *testing.T) {
	share := CauseShare(nil)
	if len(share) != 0 {
		t.Errorf("empty share = %v", share)
	}
}
