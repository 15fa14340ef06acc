package features

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"telcochurn/internal/codec"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
	"telcochurn/internal/topic"
)

var (
	cachedMonths []*synth.MonthData
	cachedCfg    synth.Config
)

func simOnce(t *testing.T) ([]*synth.MonthData, synth.Config) {
	t.Helper()
	if cachedMonths == nil {
		cachedCfg = synth.DefaultConfig()
		cachedCfg.Customers = 1000
		cachedCfg.Months = 3
		cachedMonths = synth.Simulate(cachedCfg)
	}
	return cachedMonths, cachedCfg
}

func baseFrame(t *testing.T, month int) (*Frame, Tables, Window, int) {
	t.Helper()
	months, cfg := simOnce(t)
	tbl := monthTables(t, months)
	win := MonthWindow(month, cfg.DaysPerMonth)
	frame, err := BuildBaseFeatures(tbl, win, cfg.DaysPerMonth, 1)
	if err != nil {
		t.Fatal(err)
	}
	return frame, tbl, win, cfg.DaysPerMonth
}

func TestGroupCountsMatchPaper(t *testing.T) {
	frame, tbl, win, days := baseFrame(t, 2)
	counts := map[Group]int{}
	for _, g := range frame.Groups() {
		counts[g]++
	}
	if counts[F1Baseline] != 70 {
		t.Errorf("F1 has %d features, want 70", counts[F1Baseline])
	}
	if counts[F2CS] != 9 {
		t.Errorf("F2 has %d features, want 9", counts[F2CS])
	}
	if counts[F3PS] != 25 {
		t.Errorf("F3 has %d features, want 25", counts[F3PS])
	}
	// Graph features: 2 per graph.
	months, _ := simOnce(t)
	in := GraphFeatureInput{
		PrevChurners: ChurnersOf(months[1].Truth),
		StableSample: StableOf(months[1].Truth, 10),
	}
	AddGraphFeatures(frame, tbl, win, days, in, 0)
	counts = map[Group]int{}
	for _, g := range frame.Groups() {
		counts[g]++
	}
	for _, g := range []Group{F4CallGraph, F5MessageGraph, F6CooccurrenceGraph} {
		if counts[g] != 2 {
			t.Errorf("%v has %d features, want 2", g, counts[g])
		}
	}
}

func TestWindowMath(t *testing.T) {
	if got := AbsDay(1, 1, 30); got != 1 {
		t.Errorf("AbsDay(1,1) = %d", got)
	}
	if got := AbsDay(3, 15, 30); got != 75 {
		t.Errorf("AbsDay(3,15) = %d", got)
	}
	w := MonthWindow(2, 30)
	if w.FromAbs != 31 || w.ToAbs != 60 {
		t.Errorf("MonthWindow(2) = %+v", w)
	}
	if w.LastMonth(30) != 2 {
		t.Errorf("LastMonth = %d", w.LastMonth(30))
	}
	if got := w.Months(30); len(got) != 1 || got[0] != 2 {
		t.Errorf("Months = %v", got)
	}
	span := Window{FromAbs: 45, ToAbs: 75}
	if got := span.Months(30); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("spanning Months = %v", got)
	}
	// Snapshot month: full month end uses that month, mid-month uses prior.
	if got := w.SnapshotMonth(30); got != 2 {
		t.Errorf("aligned SnapshotMonth = %d", got)
	}
	if got := span.SnapshotMonth(30); got != 2 {
		t.Errorf("mid-month SnapshotMonth = %d, want 2", got)
	}
}

// value returns the named column of customer id's row.
func value(f *Frame, id int64, name string) (float64, bool) {
	row, ok := f.Row(id)
	j := slices.Index(f.names, name)
	if !ok || j < 0 {
		return 0, false
	}
	return row[j], true
}

func TestFrameOperations(t *testing.T) {
	f := NewFrame([]int64{3, 1, 2, 2})
	if f.NumRows() != 3 {
		t.Errorf("dedup rows = %d, want 3", f.NumRows())
	}
	if ids := f.IDs(); ids[0] != 1 || ids[2] != 3 {
		t.Errorf("IDs not sorted: %v", ids)
	}
	f.AddColumn(F1Baseline, "a", map[int64]float64{1: 10, 3: 30}, -1)
	if v, _ := value(f, 2, "a"); v != -1 {
		t.Errorf("default fill = %g, want -1", v)
	}
	if v, ok := value(f, 3, "a"); !ok || v != 30 {
		t.Errorf("Value(3,a) = %g,%v", v, ok)
	}
	if err := f.AddDense(F2CS, "b", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddDense(F2CS, "short", []float64{1}); err == nil {
		t.Error("want error for wrong dense length")
	}
	sel := f.SelectGroups(F2CS)
	if sel.NumColumns() != 1 || sel.Names()[0] != "b" {
		t.Errorf("SelectGroups = %v", sel.Names())
	}
	d := f.ToDataset(map[int64]int{1: 1, 2: 0}, -1)
	if d.Y[0] != 1 || d.Y[1] != 0 || d.Y[2] != -1 {
		t.Errorf("labels = %v", d.Y)
	}
}

func TestBaseFeatureValuesAgainstRawTables(t *testing.T) {
	frame, tbl, win, days := baseFrame(t, 2)
	inWin := inWindow(tbl.Calls, win, days)
	imsi := tbl.Calls.MustCol("imsi").Ints
	dur := tbl.Calls.MustCol("dur").Floats
	success := tbl.Calls.MustCol("success").Ints
	// Manual recompute of voice_dur for the first frame customer with calls.
	want := map[int64]float64{}
	for i := range imsi {
		if inWin(i) && success[i] == 1 {
			want[imsi[i]] += dur[i]
		}
	}
	checked := 0
	for _, id := range frame.IDs() {
		if w, ok := want[id]; ok {
			got, _ := value(frame, id, "voice_dur")
			if diff := got - w; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("voice_dur(%d) = %g, want %g", id, got, w)
			}
			checked++
			if checked > 50 {
				break
			}
		}
	}
	if checked == 0 {
		t.Fatal("no customers verified")
	}
}

func TestUniverseIsSnapshotMonth(t *testing.T) {
	frame, tbl, win, days := baseFrame(t, 2)
	snap := snapshotMonth(tbl.Customers, win, days)
	if frame.NumRows() != snap.NumRows() {
		t.Errorf("frame rows %d != snapshot rows %d", frame.NumRows(), snap.NumRows())
	}
}

func TestGraphBuildersExcludeNonCustomers(t *testing.T) {
	_, tbl, win, days := baseFrame(t, 2)
	graphs := BuildGraphs(AllGroups(), tbl, win, days, synth.IsCustomerID, 0)
	g := graphs[0]
	for _, id := range g.IDs() {
		if !synth.IsCustomerID(id) {
			t.Fatalf("non-customer %d in call graph", id)
		}
	}
	if g.NumVertices() == 0 { // every vertex has an edge
		t.Error("call graph has no edges")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("call graph invalid: %v", err)
	}
	if graphs[1].NumVertices() == 0 {
		t.Error("message graph has no edges")
	}
	if graphs[2].NumVertices() == 0 {
		t.Error("co-occurrence graph has no edges")
	}
}

func TestChurnersOfAndStableOf(t *testing.T) {
	months, _ := simOnce(t)
	truth := months[0].Truth
	churners := ChurnersOf(truth)
	stable := StableOf(truth, 10)
	churnCol := truth.MustCol("churn").Ints
	nChurn := 0
	for _, v := range churnCol {
		if v == 1 {
			nChurn++
		}
	}
	if len(churners) != nChurn {
		t.Errorf("ChurnersOf = %d, want %d", len(churners), nChurn)
	}
	wantStable := (truth.NumRows() - nChurn + 9) / 10
	if len(stable) != wantStable {
		t.Errorf("StableOf stride 10 = %d, want %d", len(stable), wantStable)
	}
	for id := range stable {
		if churners[id] {
			t.Fatal("stable sample contains a churner")
		}
	}
}

func TestTopicFeaturizerSimplexOutput(t *testing.T) {
	frame, tbl, win, days := baseFrame(t, 2)
	tf, err := FitTopicFeaturizer(tbl.Search, win, days, F8SearchTopics, "search",
		topic.Config{K: 5, Iters: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := frame.NumColumns()
	tf.Apply(frame, tbl.Search, win, days)
	if frame.NumColumns() != before+5 {
		t.Fatalf("topic featurizer added %d columns, want 5", frame.NumColumns()-before)
	}
	for _, id := range frame.IDs()[:100] {
		row, _ := frame.Row(id)
		sum := 0.0
		for _, v := range row[before:] {
			if v < -1e-9 || v > 1+1e-9 {
				t.Fatalf("topic feature %g out of range", v)
			}
			sum += v
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("topic features sum to %g", sum)
		}
	}
}

// TestTopicApplyWorkerInvariant pins the parallel fold-in to a plain serial
// FoldIn loop bit for bit at several worker counts, including a document of
// only out-of-vocabulary words (uniform theta) and a customer with no text
// (the column default).
func TestTopicApplyWorkerInvariant(t *testing.T) {
	_, tbl, win, days := baseFrame(t, 2)
	tf, err := FitTopicFeaturizer(tbl.Search, win, days, F8SearchTopics, "search",
		topic.Config{K: 5, Iters: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := tbl.Search
	search := table.NewTable(synth.SearchSchema)
	imsi, month, day, text := src.MustCol("imsi").Ints, src.MustCol("month").Ints, src.MustCol("day").Ints, src.MustCol("text").Strings
	for i := range imsi {
		if err := search.AppendRow(imsi[i], month[i], day[i], text[i]); err != nil {
			t.Fatal(err)
		}
	}
	const unknown, silent = int64(9_000_001), int64(9_000_002)
	if err := search.AppendRow(unknown, int64(2), int64(3), "qqzx zzqx"); err != nil {
		t.Fatal(err)
	}
	docs := aggregateTexts(search, rowSet{all: true}, win, days)
	ids := append(sortedKeys(docs), silent)

	k := tf.model.K()
	uniform := make([]float64, k)
	for j := range uniform {
		uniform[j] = 1 / float64(k)
	}
	want := make(map[int64][]float64, len(ids))
	for _, id := range ids {
		doc, ok := docs[id]
		if !ok {
			want[id] = uniform
			continue
		}
		want[id] = tf.model.FoldIn(doc, 0)
	}
	if !slices.Equal(want[unknown], uniform) {
		t.Fatalf("out-of-vocabulary document: theta = %v, want uniform", want[unknown])
	}
	for _, workers := range []int{1, 2, 8} {
		f := NewFrame(ids)
		tf.apply(f, search, rowSet{all: true}, win, days, workers)
		for _, id := range ids {
			row, _ := f.Row(id)
			for j := range row {
				if math.Float64bits(row[j]) != math.Float64bits(want[id][j]) {
					t.Fatalf("workers=%d id %d topic %d: %v, serial fold-in %v", workers, id, j, row[j], want[id][j])
				}
			}
		}
	}
}

// TestDecodedTopicApplyMatchesFitted: a featurizer read back from its
// encoding (what a scorer loads from an artifact) folds in across 8 workers
// bit-identically to the fitted one on one; under -race it checks that the
// fold-ins only read the word-major Phi copy Decode built.
func TestDecodedTopicApplyMatchesFitted(t *testing.T) {
	_, tbl, win, days := baseFrame(t, 2)
	tf, err := FitTopicFeaturizer(tbl.Search, win, days, F8SearchTopics, "search",
		topic.Config{K: 5, Iters: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := codec.NewWriter(&buf, "TEST")
	tf.Encode(w)
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := codec.NewReaderBytes(buf.Bytes(), "TEST")
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeTopicFeaturizer(rd)
	if err != nil {
		t.Fatal(err)
	}
	ids := tbl.Customers.MustCol("imsi").Ints
	want, got := NewFrame(ids), NewFrame(ids)
	tf.Apply(want, tbl.Search, win, days)
	decoded.apply(got, tbl.Search, rowSet{all: true}, win, days, 8)
	framesBitIdentical(t, want, got, "decoded featurizer at 8 workers")
}

func TestSecondOrderSelectorRoundTrip(t *testing.T) {
	frame, _, _, _ := baseFrame(t, 2)
	frame = frame.SelectGroups(F1Baseline)
	months, _ := simOnce(t)
	labels := map[int64]int{}
	imsi := months[2].Truth.MustCol("imsi").Ints
	churn := months[2].Truth.MustCol("churn").Ints
	for i, id := range imsi {
		labels[id] = int(churn[i])
	}
	sel, err := FitSecondOrder(frame, labels, SecondOrderConfig{NumPairs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.pairs) != 5 {
		t.Fatalf("pairs = %d, want 5", len(sel.pairs))
	}
	before := frame.NumColumns()
	if err := sel.Apply(frame); err != nil {
		t.Fatal(err)
	}
	if frame.NumColumns() != before+5 {
		t.Errorf("Apply added %d columns", frame.NumColumns()-before)
	}
	// Names include the _x_ marker and groups tag F9.
	names := frame.Names()
	groups := frame.Groups()
	for i := before; i < frame.NumColumns(); i++ {
		if groups[i] != F9SecondOrder {
			t.Errorf("column %d group = %v", i, groups[i])
		}
		if len(names[i]) == 0 {
			t.Error("empty pair name")
		}
	}
	// Applying to a frame with mismatched leading columns fails.
	bad := NewFrame(frame.IDs())
	bad.AddColumn(F1Baseline, "wrong", nil, 0)
	if err := sel.Apply(bad); err == nil {
		t.Error("want error for mismatched source columns")
	}
}

func TestDeclineFeaturesSeparateChurners(t *testing.T) {
	// Signal-phase customers front-load usage; their call_dur_decline should
	// be lower on average than stable customers'.
	months, cfg := simOnce(t)
	tbl := monthTables(t, months)
	win := MonthWindow(2, cfg.DaysPerMonth)
	frame, err := BuildBaseFeatures(tbl, win, cfg.DaysPerMonth, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Churners of month 3 were (mostly) in their signal month during month 2.
	churnNext := ChurnersOf(months[2].Truth)
	var churnSum, churnN, stableSum, stableN float64
	for _, id := range frame.IDs() {
		v, ok := value(frame, id, "last_active_day")
		if !ok {
			continue
		}
		if churnNext[id] {
			churnSum += v
			churnN++
		} else {
			stableSum += v
			stableN++
		}
	}
	if churnN == 0 || stableN == 0 {
		t.Skip("no churners in tiny world")
	}
	if churnSum/churnN >= stableSum/stableN {
		t.Errorf("churners' last_active_day %.1f not below stable %.1f",
			churnSum/churnN, stableSum/stableN)
	}
}
