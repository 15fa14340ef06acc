package experiments

import (
	"strings"
	"testing"
)

func tinyOpts() Options {
	return Options{Customers: 1200, Seed: 2, Trees: 40, MinLeaf: 15, Repeats: 1}
}

func TestRegistryIDs(t *testing.T) {
	want := []string{"abl-graphwin", "abl-minleaf", "abl-trees",
		"fig1", "fig5", "fig7", "fig8", "fig9",
		"tab1", "tab2", "tab3", "tab4", "tab5", "tab6", "tab7"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if _, err := Run("nope", tinyOpts()); err == nil {
		t.Error("want error for unknown experiment")
	}
}

func TestFig1(t *testing.T) {
	res := Fig1ChurnRates(tinyOpts())
	if len(res.Points) != 12 {
		t.Fatalf("points = %d", len(res.Points))
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "Prepaid") {
		t.Error("render missing header")
	}
}

func TestTab1AndFig5ShareEnv(t *testing.T) {
	opts := tinyOpts()
	opts.Months = 4
	env := NewEnv(opts)
	tab1 := Tab1DatasetStats(env)
	if len(tab1.MonthsN) != 4 {
		t.Fatalf("tab1 months = %d", len(tab1.MonthsN))
	}
	for i := range tab1.MonthsN {
		total := tab1.Churner[i] + tab1.NonChurner[i]
		if total != opts.Customers {
			t.Errorf("month %d total = %d", i+1, total)
		}
	}
	fig5 := Fig5RechargeDistribution(env)
	if len(fig5.Counts) == 0 {
		t.Fatal("fig5 empty")
	}
	var sb strings.Builder
	tab1.Render(&sb)
	fig5.Render(&sb)
	if !strings.Contains(sb.String(), "recharge") {
		t.Error("fig5 render missing content")
	}
}

func TestTab7SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("model-training experiment")
	}
	res, err := Tab7Imbalance(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 4 {
		t.Fatalf("reports = %d", len(res.Reports))
	}
	for i, rep := range res.Reports {
		if rep.AUC < 0.5 {
			t.Errorf("%v AUC = %.3f", res.Methods[i], rep.AUC)
		}
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "Weighted Instance") {
		t.Error("render missing method row")
	}
}

func TestFig8SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("model-training experiment")
	}
	res, err := Fig8EarlySignals(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Horizons) != 4 {
		t.Fatalf("horizons = %v", res.Horizons)
	}
	// The headline claim: horizon-1 beats horizon-3+ (early signals decay).
	if res.Reports[0].PRAUC <= res.Reports[2].PRAUC {
		t.Errorf("PR-AUC did not decay with horizon: h1=%.3f h3=%.3f",
			res.Reports[0].PRAUC, res.Reports[2].PRAUC)
	}
}

func TestGroupOfFeature(t *testing.T) {
	cases := map[string]string{
		"balance":                       "F1",
		"voice_quality":                 "F2",
		"page_download_throughput":      "F3",
		"loc_top1_lat":                  "F3",
		"pagerank_voice":                "F4",
		"labelpropagation_message":      "F5",
		"labelpropagation_cooccurrence": "F6",
		"complaint_topic_3":             "F7",
		"search_topic_0":                "F8",
		"innet_dura_x_total_charge":     "F9",
	}
	for name, want := range cases {
		if got := groupOfFeature(name); got != want {
			t.Errorf("groupOfFeature(%q) = %q, want %q", name, got, want)
		}
	}
}
