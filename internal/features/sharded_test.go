package features

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"telcochurn/internal/synth"
	"telcochurn/internal/table"
	"telcochurn/internal/topic"
)

// shardTables splits every raw table by table.ShardOf over the customer
// key, the split per-shard warehouse reads return.
func shardTables(tbl Tables, shards int) []Tables {
	out := make([]Tables, shards)
	for s := range out {
		dst := out[s].refs()
		for i, r := range tbl.refs() {
			keys := (*r.dst).MustCol("imsi").Ints
			*dst[i].dst = (*r.dst).Filter(func(j int) bool { return table.ShardOf(keys[j], shards) == s })
		}
	}
	return out
}

// monthTables loads the months through MonthReader, the reader
// core.NewMemorySource serves simulator output with.
func monthTables(t *testing.T, months []*synth.MonthData) Tables {
	t.Helper()
	r, idx := MonthReader{}, make([]int, len(months))
	for i, md := range months {
		r[md.Month], idx[i] = md, md.Month
	}
	tbl, _, err := loadTables(r, idx, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func framesBitIdentical(t *testing.T, a, b *Frame, context string) {
	t.Helper()
	if a.NumRows() != b.NumRows() || a.NumColumns() != b.NumColumns() {
		t.Fatalf("%s: shape %dx%d vs %dx%d", context, a.NumRows(), a.NumColumns(), b.NumRows(), b.NumColumns())
	}
	an, bn := a.Names(), b.Names()
	ag, bg := a.Groups(), b.Groups()
	for j := range an {
		if an[j] != bn[j] || ag[j] != bg[j] {
			t.Fatalf("%s: column %d is %s/%s vs %s/%s", context, j, an[j], ag[j], bn[j], bg[j])
		}
	}
	for i, id := range a.IDs() {
		if b.IDs()[i] != id {
			t.Fatalf("%s: row %d id %d vs %d", context, i, id, b.IDs()[i])
		}
		ra, _ := a.Row(id)
		rb, _ := b.Row(id)
		for j := range ra {
			if math.Float64bits(ra[j]) != math.Float64bits(rb[j]) {
				t.Fatalf("%s: id %d col %q: %v vs %v (not bit-identical)",
					context, id, an[j], ra[j], rb[j])
			}
		}
	}
}

func shardedSpec(t *testing.T, tbl Tables, shards, workers int, win Window, days int, groups []Group) ShardedBuildSpec {
	t.Helper()
	parts := shardTables(tbl, shards)
	return ShardedBuildSpec{
		Shards:        shards,
		Load:          func(s, _ int) (Tables, []string, error) { return parts[s], nil, nil },
		LoadCustomers: func(s int) (*table.Table, error) { return parts[s].Customers, nil },
		Win:           win,
		DaysPerMonth:  days,
		Workers:       workers,
		Groups:        GroupSetOf(groups...),
	}
}

// TestBuildShardedFrameOverlapF4toF8 runs the graph fold beside the
// per-customer columns (the overlapped shard body, the chunked
// co-occurrence finalize and the parallel topic fold-in) at several shard
// and worker counts; under -race it is the check on those goroutines.
func TestBuildShardedFrameOverlapF4toF8(t *testing.T) {
	months, cfg := simOnce(t)
	tbl := monthTables(t, months)
	win := MonthWindow(2, cfg.DaysPerMonth)
	comp, err := FitTopicFeaturizer(tbl.Complaints, win, cfg.DaysPerMonth, F7ComplaintTopics, "complaint", topic.Config{K: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	search, err := FitTopicFeaturizer(tbl.Search, win, cfg.DaysPerMonth, F8SearchTopics, "search", topic.Config{K: 5, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	groups := []Group{F4CallGraph, F5MessageGraph, F6CooccurrenceGraph, F7ComplaintTopics, F8SearchTopics}
	var ref *Frame
	for _, shards := range []int{1, 4} {
		for _, workers := range []int{1, 2, 8} {
			spec := shardedSpec(t, tbl, shards, workers, win, cfg.DaysPerMonth, groups)
			spec.GraphIn = GraphFeatureInput{
				PrevChurners: ChurnersOf(months[1].Truth),
				StableSample: StableOf(months[1].Truth, 10),
			}
			spec.Complaints, spec.Search = comp, search
			got, _, err := BuildShardedFrame(spec)
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			if ref == nil {
				ref = got
				continue
			}
			framesBitIdentical(t, ref, got, fmt.Sprintf("shards=%d workers=%d", shards, workers))
		}
	}
	if n := ref.NumColumns(); n != 6+5+5 {
		t.Fatalf("F4-F8 frame has %d columns, want 16", n)
	}
}

func TestBuildShardedFrameGraphColumnsPopulated(t *testing.T) {
	months, cfg := simOnce(t)
	tbl := monthTables(t, months)
	win := MonthWindow(2, cfg.DaysPerMonth)
	spec := shardedSpec(t, tbl, 4, 2, win, cfg.DaysPerMonth, []Group{F4CallGraph})
	spec.GraphIn = GraphFeatureInput{
		PrevChurners: ChurnersOf(months[1].Truth),
		StableSample: StableOf(months[1].Truth, 10),
	}
	got, _, err := BuildShardedFrame(spec)
	if err != nil {
		t.Fatal(err)
	}
	names := got.Names()
	if len(names) != 2 || names[0] != "pagerank_voice" || names[1] != "labelpropagation_voice" {
		t.Fatalf("graph-only frame columns = %v", names)
	}
	var nonZero int
	for _, id := range got.IDs() {
		row, _ := got.Row(id)
		if row[0] != 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("every pagerank value is zero — graph never built")
	}
}

func TestBuildShardedFrameRejectsF9AndMissingFeaturizer(t *testing.T) {
	months, cfg := simOnce(t)
	tbl := monthTables(t, months)
	win := MonthWindow(2, cfg.DaysPerMonth)
	spec := shardedSpec(t, tbl, 2, 1, win, cfg.DaysPerMonth, []Group{F1Baseline, F9SecondOrder})
	if _, _, err := BuildShardedFrame(spec); err == nil {
		t.Fatal("F9 accepted in sharded build")
	}
	spec = shardedSpec(t, tbl, 2, 1, win, cfg.DaysPerMonth, []Group{F7ComplaintTopics})
	if _, _, err := BuildShardedFrame(spec); err == nil {
		t.Fatal("F7 without a fitted featurizer accepted")
	}
	spec.FitTopics = func(Tables) (*TopicFeaturizer, *TopicFeaturizer, error) { return nil, nil, nil }
	if _, _, err := BuildShardedFrame(spec); !errors.Is(err, ErrFitNeedsOneShard) {
		t.Fatalf("topic fit over 2 shards: %v, want ErrFitNeedsOneShard", err)
	}
}

// TestBuildShardedFrameFitTopicsMatchesSequential pins the fitting build —
// the topic fit running as a task beside the frame build, the topic columns
// applied to the merged frame after the join — to the sequential reference:
// fit both featurizers first, then build with them at 1 and 4 shards.
// Frames, column order and both models' Phi must agree bit for bit at every
// worker count, so topic columns landing anywhere but after the graph
// columns fails it.
func TestBuildShardedFrameFitTopicsMatchesSequential(t *testing.T) {
	months, cfg := simOnce(t)
	tbl := monthTables(t, months)
	days := cfg.DaysPerMonth
	win := MonthWindow(2, days)
	in := GraphFeatureInput{
		PrevChurners: ChurnersOf(months[1].Truth),
		StableSample: StableOf(months[1].Truth, 10),
	}
	fit := func(texts Tables) (*TopicFeaturizer, *TopicFeaturizer, error) {
		comp, err := FitTopicFeaturizer(texts.Complaints, win, days, F7ComplaintTopics, "complaint", topic.Config{K: 5, Seed: 11})
		if err != nil {
			return nil, nil, err
		}
		search, err := FitTopicFeaturizer(texts.Search, win, days, F8SearchTopics, "search", topic.Config{K: 5, Seed: 12})
		return comp, search, err
	}
	comp, search, err := fit(tbl)
	if err != nil {
		t.Fatal(err)
	}
	groups := AllGroups()[:8]
	var ref *Frame
	for _, shards := range []int{1, 4} {
		spec := shardedSpec(t, tbl, shards, 2, win, days, groups)
		spec.GraphIn, spec.Complaints, spec.Search = in, comp, search
		got, _, err := BuildShardedFrame(spec)
		if err != nil {
			t.Fatalf("reference shards=%d: %v", shards, err)
		}
		if ref == nil {
			ref = got
			continue
		}
		framesBitIdentical(t, ref, got, fmt.Sprintf("reference shards=%d", shards))
	}

	samePhi := func(a, b *TopicFeaturizer, what string) {
		t.Helper()
		for k := range a.model.Phi {
			for w, v := range a.model.Phi[k] {
				if math.Float64bits(v) != math.Float64bits(b.model.Phi[k][w]) {
					t.Fatalf("%s Phi[%d][%d] = %v, sequential fit %v", what, k, w, b.model.Phi[k][w], v)
				}
			}
		}
	}
	for _, workers := range []int{1, 2, 8} {
		spec := shardedSpec(t, tbl, 1, workers, win, days, groups)
		spec.GraphIn = in
		var fitted [2]*TopicFeaturizer
		spec.FitTopics = func(texts Tables) (*TopicFeaturizer, *TopicFeaturizer, error) {
			if texts.Calls != nil || texts.Locations != nil || texts.Customers != nil {
				t.Error("the topic fit was handed more than the two text tables")
			}
			c, s, err := fit(texts)
			fitted = [2]*TopicFeaturizer{c, s}
			return c, s, err
		}
		got, _, err := BuildShardedFrame(spec)
		if err != nil {
			t.Fatalf("fitting build workers=%d: %v", workers, err)
		}
		framesBitIdentical(t, ref, got, fmt.Sprintf("fitting build workers=%d", workers))
		samePhi(comp, fitted[0], "complaint")
		samePhi(search, fitted[1], "search")
	}
}

// TestBuildShardedFrameFitTopicsError: a failing topic fit (no search
// documents in the window) comes back as the build's error at every worker
// count, with the concurrent frame build joined rather than left running.
func TestBuildShardedFrameFitTopicsError(t *testing.T) {
	months, cfg := simOnce(t)
	tbl := monthTables(t, months)
	days := cfg.DaysPerMonth
	win := MonthWindow(2, days)
	tbl.Search = tbl.Search.Filter(func(int) bool { return false })
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 8} {
		spec := shardedSpec(t, tbl, 1, workers, win, days, AllGroups()[:8])
		spec.GraphIn = GraphFeatureInput{PrevChurners: ChurnersOf(months[1].Truth)}
		var fitErr error
		spec.FitTopics = func(texts Tables) (*TopicFeaturizer, *TopicFeaturizer, error) {
			_, fitErr = FitTopicFeaturizer(texts.Search, win, days, F8SearchTopics, "search", topic.Config{K: 5, Seed: 12})
			return nil, nil, fitErr
		}
		frame, _, err := BuildShardedFrame(spec)
		if fitErr == nil || !errors.Is(err, fitErr) || frame != nil {
			t.Fatalf("workers=%d: build = %v, %v; want the fit error %v", workers, frame, err, fitErr)
		}
	}
	// parallel.Do has waited for every task; give their goroutines a moment
	// to finish exiting before counting.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the failed builds, %d before", n, before)
	}
}
