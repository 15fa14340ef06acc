package synth

import (
	"testing"

	"telcochurn/internal/store"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Customers = 800
	cfg.Months = 4
	cfg.BurnInMonths = 4
	return cfg
}

func TestSimulateDeterministic(t *testing.T) {
	a := Simulate(smallConfig())
	b := Simulate(smallConfig())
	for m := range a {
		for name, ta := range a[m].Tables() {
			tb := b[m].Tables()[name]
			if ta.NumRows() != tb.NumRows() {
				t.Fatalf("month %d table %s rows differ: %d vs %d", m+1, name, ta.NumRows(), tb.NumRows())
			}
		}
		// Spot-check full equality on the truth table.
		ta, tb := a[m].Truth, b[m].Truth
		for i := 0; i < ta.NumRows(); i++ {
			for c := range ta.Cols {
				if ta.Row(i)[c] != tb.Row(i)[c] {
					t.Fatalf("truth month %d cell (%d,%d) differs", m+1, i, c)
				}
			}
		}
	}
}

func TestSimulateDifferentSeedsDiffer(t *testing.T) {
	cfg := smallConfig()
	a := Simulate(cfg)
	cfg.Seed = 99
	b := Simulate(cfg)
	if a[0].Calls.NumRows() == b[0].Calls.NumRows() &&
		a[1].Calls.NumRows() == b[1].Calls.NumRows() &&
		a[2].Calls.NumRows() == b[2].Calls.NumRows() {
		t.Error("different seeds produced identical call volumes across months")
	}
}

func TestAllTablesValid(t *testing.T) {
	for _, md := range Simulate(smallConfig()) {
		for name, tb := range md.Tables() {
			if err := tb.Validate(); err != nil {
				t.Errorf("month %d table %s invalid: %v", md.Month, name, err)
			}
			if tb.NumRows() == 0 && name != TableComplaints {
				t.Errorf("month %d table %s unexpectedly empty", md.Month, name)
			}
		}
	}
}

func TestChurnRateInPaperBand(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Customers = 2000
	cfg.Months = 6
	months := Simulate(cfg)
	total, churn := 0, 0
	for _, md := range months {
		col := md.Truth.MustCol("churn").Ints
		total += len(col)
		for _, v := range col {
			if v == 1 {
				churn++
			}
		}
	}
	rate := float64(churn) / float64(total)
	// Paper Table 1: ~9.2% average; allow a generous band for small worlds.
	if rate < 0.06 || rate > 0.13 {
		t.Errorf("average churn rate %.3f outside [0.06, 0.13]", rate)
	}
}

func TestPopulationStable(t *testing.T) {
	cfg := smallConfig()
	for _, md := range Simulate(cfg) {
		if got := md.Truth.NumRows(); got != cfg.Customers {
			t.Errorf("month %d population %d, want %d", md.Month, got, cfg.Customers)
		}
	}
}

func TestChurnersLeavePopulation(t *testing.T) {
	months := Simulate(smallConfig())
	// Hard churners (decided=1) of month m must not appear in month m+1.
	for m := 0; m+1 < len(months); m++ {
		decided := map[int64]bool{}
		tr := months[m].Truth
		ids := tr.MustCol("imsi").Ints
		dec := tr.MustCol("decided").Ints
		for i, id := range ids {
			if dec[i] == 1 {
				decided[id] = true
			}
		}
		next := months[m+1].Truth.MustCol("imsi").Ints
		for _, id := range next {
			if decided[id] {
				t.Fatalf("decided churner %d of month %d still present in month %d", id, m+1, m+2)
			}
		}
	}
}

func TestLabelRule15Days(t *testing.T) {
	for _, md := range Simulate(smallConfig()) {
		tr := md.Truth
		churn := tr.MustCol("churn").Ints
		inR := tr.MustCol("in_recharge").Ints
		days := tr.MustCol("days_to_recharge").Ints
		for i := range churn {
			labeled := churn[i] == 1
			ruled := inR[i] == 1 && (days[i] == 0 || days[i] > 15)
			if labeled != ruled {
				t.Fatalf("row %d: label %v but rule says %v (in_recharge=%d days=%d)",
					i, labeled, ruled, inR[i], days[i])
			}
		}
	}
}

func TestRechargeDayCounts(t *testing.T) {
	months := Simulate(smallConfig())
	counts := RechargeDayCounts(months)
	if len(counts) == 0 {
		t.Fatal("no recharge-period observations")
	}
	recharged, late := 0, 0
	for d, c := range counts {
		if d == 0 {
			continue
		}
		recharged += c
		if d > 15 {
			late += c
		}
	}
	if recharged == 0 {
		t.Fatal("nobody recharged")
	}
	frac := float64(late) / float64(recharged)
	// Figure 5: less than 5% of rechargers go beyond 15 days.
	if frac > 0.08 {
		t.Errorf("late-recharge fraction %.3f, want < 0.08", frac)
	}
}

func TestChurnRateSeries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Customers = 800
	points := ChurnRateSeries(cfg, 12)
	if len(points) != 12 {
		t.Fatalf("points = %d", len(points))
	}
	var pre, post float64
	for _, p := range points {
		pre += p.Prepaid
		post += p.Postpaid
	}
	pre /= 12
	post /= 12
	// Figure 1: prepaid ~9.4% clearly above postpaid ~5.2%.
	if pre <= post {
		t.Errorf("prepaid %.3f not above postpaid %.3f", pre, post)
	}
	if post < 0.03 || post > 0.08 {
		t.Errorf("postpaid average %.3f outside band", post)
	}
}

func TestGenerateToWarehouse(t *testing.T) {
	wh, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Months = 2
	if err := GenerateToWarehouse(cfg, wh); err != nil {
		t.Fatal(err)
	}
	tables, err := wh.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 10 {
		t.Errorf("warehouse has %d tables, want 10", len(tables))
	}
	months, err := wh.Months(TableCalls)
	if err != nil {
		t.Fatal(err)
	}
	if len(months) != 2 {
		t.Errorf("calls partitions = %v", months)
	}
	calls, err := wh.ReadPartition(TableCalls, 1)
	if err != nil {
		t.Fatal(err)
	}
	if calls.NumRows() == 0 {
		t.Error("persisted calls partition empty")
	}
}

func TestIsCustomerID(t *testing.T) {
	if !IsCustomerID(1_000_000) || !IsCustomerID(3_500_000) {
		t.Error("customer range misclassified")
	}
	if IsCustomerID(10010) || IsCustomerID(5_200_000) || IsCustomerID(6_100_000) {
		t.Error("service/off-net numbers classified as customers")
	}
}

// TestVocabulariesDisjointFromTopicsStructure: the complaint and search
// topics draw from vocabularies large enough for LDA to tell them apart.
func TestVocabulariesDisjointFromTopicsStructure(t *testing.T) {
	for _, v := range []struct {
		topics []topic
		min    int
	}{{complaintTopics, 50}, {searchTopics, 80}} {
		words := map[string]bool{}
		for _, tp := range v.topics {
			for _, w := range tp.words {
				words[w] = true
			}
		}
		if len(words) < v.min {
			t.Errorf("%d distinct words, want at least %d", len(words), v.min)
		}
	}
}

func TestScaleU(t *testing.T) {
	if got := ScaleU(50000, PaperPopulation); got != 50000 {
		t.Errorf("identity scale = %d", got)
	}
	if got := ScaleU(50000, 2100); got != 50 {
		t.Errorf("ScaleU = %d, want 50", got)
	}
	if got := ScaleU(1, 10); got != 1 {
		t.Errorf("ScaleU floor = %d, want 1", got)
	}
}

func TestTruthColumnsInRange(t *testing.T) {
	for _, md := range Simulate(smallConfig()) {
		tr := md.Truth
		best := tr.MustCol("best_offer").Ints
		base := tr.MustCol("retain_base").Floats
		for i := range best {
			if best[i] < 1 || best[i] > NumOffers {
				t.Fatalf("best_offer %d out of range", best[i])
			}
			if base[i] < 0 || base[i] > 1 {
				t.Fatalf("retain_base %g out of range", base[i])
			}
		}
	}
}
