package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestGenerateAndInspect(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wh")
	if err := cmdGenerate([]string{"-out", dir, "-customers", "400", "-months", "2"}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 {
		t.Errorf("warehouse has %d tables, want 10", len(entries))
	}
	if err := cmdInspect([]string{"-warehouse", dir}); err != nil {
		t.Fatalf("inspect: %v", err)
	}
}

func TestGenerateDailyMatchesMonthly(t *testing.T) {
	dir := t.TempDir()
	monthly := filepath.Join(dir, "monthly")
	daily := filepath.Join(dir, "daily")
	if err := cmdGenerate([]string{"-out", monthly, "-customers", "300", "-months", "2"}); err != nil {
		t.Fatalf("monthly generate: %v", err)
	}
	if err := cmdGenerate([]string{"-out", daily, "-customers", "300", "-months", "2", "-daily"}); err != nil {
		t.Fatalf("daily generate: %v", err)
	}
	// Same seed, same world: both paths must land identical row counts.
	for _, whdir := range []string{monthly, daily} {
		if err := cmdInspect([]string{"-warehouse", whdir}); err != nil {
			t.Fatalf("inspect %s: %v", whdir, err)
		}
	}
	mo, err := os.ReadDir(filepath.Join(monthly, "calls"))
	if err != nil {
		t.Fatal(err)
	}
	da, err := os.ReadDir(filepath.Join(daily, "calls"))
	if err != nil {
		t.Fatal(err)
	}
	if len(mo) != len(da) {
		t.Errorf("partition counts differ: %d vs %d", len(mo), len(da))
	}
}

func TestEvalCheapExperiment(t *testing.T) {
	if err := cmdEval([]string{"tab1", "-customers", "500"}); err != nil {
		t.Fatalf("eval tab1: %v", err)
	}
}

func TestTrainScoreWorkflow(t *testing.T) {
	dir := t.TempDir()
	wh := filepath.Join(dir, "wh")
	model := filepath.Join(dir, "model.tcpa")
	if err := cmdGenerate([]string{"-out", wh, "-customers", "800", "-months", "4"}); err != nil {
		t.Fatalf("generate: %v", err)
	}
	if err := cmdTrain([]string{"-warehouse", wh, "-out", model, "-trees", "30", "-groups", "F1,F2"}); err != nil {
		t.Fatalf("train: %v", err)
	}
	if fi, err := os.Stat(model); err != nil || fi.Size() == 0 {
		t.Fatalf("model file missing: %v", err)
	}
	if err := cmdScore([]string{"-warehouse", wh, "-model", model, "-top", "5"}); err != nil {
		t.Fatalf("score: %v", err)
	}
	if err := cmdScore([]string{"-warehouse", wh, "-model", model, "-top", "5", "-full"}); err != nil {
		t.Fatalf("score -full: %v", err)
	}
	// A non-artifact file must be rejected, not silently mis-scored.
	if err := cmdScore([]string{"-warehouse", wh, "-model", filepath.Join(wh, "truth", "month=1.tct")}); err == nil {
		t.Error("want error loading a non-artifact file")
	}

	// Degraded mode: with the web feed gone, strict scoring fails but
	// -degraded still produces the ranked list (F1 imputed, mask on stderr).
	if err := os.RemoveAll(filepath.Join(wh, "web")); err != nil {
		t.Fatal(err)
	}
	if err := cmdScore([]string{"-warehouse", wh, "-model", model, "-top", "5"}); err == nil {
		t.Error("strict score survived a missing raw table")
	}
	if err := cmdScore([]string{"-warehouse", wh, "-model", model, "-top", "5", "-degraded"}); err != nil {
		t.Fatalf("score -degraded: %v", err)
	}
}

func TestParseGroups(t *testing.T) {
	gs, err := parseGroups("F1, f3")
	if err != nil || len(gs) != 2 {
		t.Fatalf("parseGroups: %v %v", gs, err)
	}
	// Fitted-feature-model groups persist in the artifact, so every group
	// is trainable from the CLI.
	if gs, err := parseGroups("F7,F9"); err != nil || len(gs) != 2 {
		t.Errorf("parseGroups F7,F9: %v %v", gs, err)
	}
	if _, err := parseGroups("F42"); err == nil {
		t.Error("want error for unknown group")
	}
	if gs, _ := parseGroups("default"); len(gs) != 6 {
		t.Errorf("default groups = %d, want 6", len(gs))
	}
	if gs, _ := parseGroups("all"); len(gs) != 9 {
		t.Errorf("all groups = %d, want 9", len(gs))
	}
}

func TestEvalRejectsBadExperimentID(t *testing.T) {
	if err := cmdEval([]string{"nope", "-customers", "500"}); err == nil {
		t.Error("want error for unknown experiment id")
	}
	if err := cmdEval(nil); err == nil {
		t.Error("want error for missing experiment id")
	}
}
