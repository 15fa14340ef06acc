package core

import (
	"testing"

	"telcochurn/internal/features"
	"telcochurn/internal/tree"
)

func TestMemorySourceMissingMonth(t *testing.T) {
	months := testMonths(t)
	src := NewMemorySource(months, 30)
	if _, err := src.Tables(features.MonthWindow(99, 30)); err == nil {
		t.Error("want error for missing month")
	}
	if _, err := src.Truth(99); err == nil {
		t.Error("want error for missing truth month")
	}
}

func TestLabelsOf(t *testing.T) {
	months := testMonths(t)
	labels := LabelsOf(months[0].Truth)
	if len(labels) != months[0].Truth.NumRows() {
		t.Errorf("labels = %d, want %d", len(labels), months[0].Truth.NumRows())
	}
	churn := 0
	for _, y := range labels {
		if y == 1 {
			churn++
		} else if y != 0 {
			t.Fatalf("label %d not binary", y)
		}
	}
	if churn == 0 {
		t.Error("no churners in labels")
	}
}

func TestMonthSpec(t *testing.T) {
	spec := MonthSpec(4, 30)
	if spec.LabelMonth != 5 {
		t.Errorf("LabelMonth = %d", spec.LabelMonth)
	}
	if spec.Features.FromAbs != 91 || spec.Features.ToAbs != 120 {
		t.Errorf("Features = %+v", spec.Features)
	}
}

func TestFitErrors(t *testing.T) {
	months := testMonths(t)
	src := NewMemorySource(months, 30)
	if _, err := Fit(src, nil, Config{}); err == nil {
		t.Error("want error for no training windows")
	}
	if _, err := Fit(src, []WindowSpec{MonthSpec(99, 30)}, Config{}); err == nil {
		t.Error("want error for missing training month")
	}
}

func TestShiftedWindowUsesPriorSnapshot(t *testing.T) {
	months := testMonths(t)
	src := NewMemorySource(months, 30)
	days := src.DaysPerMonth()
	// Velocity-style window: ends 10 days into month 4.
	win := features.Window{FromAbs: features.AbsDay(3, 11, days), ToAbs: features.AbsDay(4, 10, days)}
	if got := win.SnapshotMonth(days); got != 3 {
		t.Fatalf("SnapshotMonth = %d, want 3", got)
	}
	p, err := Fit(src, []WindowSpec{{Features: features.Window{
		FromAbs: win.FromAbs - days, ToAbs: win.ToAbs - days,
	}, LabelMonth: 4}}, Config{
		Forest: tree.ForestConfig{NumTrees: 15, MinLeafSamples: 15, Seed: 1},
		Seed:   1,
	})
	if err != nil {
		t.Fatalf("shifted-window fit: %v", err)
	}
	preds, err := p.Predict(src, win)
	if err != nil {
		t.Fatalf("shifted-window predict: %v", err)
	}
	// Universe = month 3's snapshot.
	if len(preds.IDs) != months[2].Customers.NumRows() {
		t.Errorf("universe = %d customers, want month-3 snapshot %d",
			len(preds.IDs), months[2].Customers.NumRows())
	}
}

func TestClassifierWrappers(t *testing.T) {
	months := testMonths(t)
	src := NewMemorySource(months, 30)
	days := src.DaysPerMonth()
	for _, clf := range []Classifier{
		&RFClassifier{Config: tree.ForestConfig{NumTrees: 10, MinLeafSamples: 20, Seed: 1}},
		&GBDTClassifier{Config: tree.GBDTConfig{NumTrees: 5, MinLeafSamples: 20, Seed: 1}},
		&LinearClassifier{},
		&FMClassifier{},
	} {
		p, err := Fit(src, []WindowSpec{MonthSpec(3, days)}, Config{Classifier: clf, Seed: 1})
		if err != nil {
			t.Fatalf("%s fit: %v", clf.Name(), err)
		}
		_, rep, err := p.Evaluate(src, MonthSpec(4, days), 30)
		if err != nil {
			t.Fatalf("%s evaluate: %v", clf.Name(), err)
		}
		if rep.AUC < 0.55 {
			t.Errorf("%s AUC %.3f suspiciously low", clf.Name(), rep.AUC)
		}
	}
}
