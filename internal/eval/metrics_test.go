package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func preds(scores []float64, labels []int) []Prediction {
	out := make([]Prediction, len(scores))
	for i := range scores {
		out[i] = Prediction{ID: int64(i), Score: scores[i], Label: labels[i]}
	}
	return out
}

func TestAUCPerfectAndWorst(t *testing.T) {
	perfect := preds([]float64{0.9, 0.8, 0.2, 0.1}, []int{1, 1, 0, 0})
	if got := AUC(perfect); got != 1 {
		t.Errorf("perfect AUC = %g, want 1", got)
	}
	worst := preds([]float64{0.9, 0.8, 0.2, 0.1}, []int{0, 0, 1, 1})
	if got := AUC(worst); got != 0 {
		t.Errorf("worst AUC = %g, want 0", got)
	}
}

func TestAUCHandComputed(t *testing.T) {
	// scores: pos {0.8, 0.4}, neg {0.6, 0.2}. Pairs: (0.8>0.6),(0.8>0.2),
	// (0.4<0.6),(0.4>0.2) => 3/4 concordant.
	p := preds([]float64{0.8, 0.4, 0.6, 0.2}, []int{1, 1, 0, 0})
	if got := AUC(p); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("AUC = %g, want 0.75", got)
	}
}

func TestAUCTiesCountHalf(t *testing.T) {
	p := preds([]float64{0.5, 0.5}, []int{1, 0})
	if got := AUC(p); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("tied AUC = %g, want 0.5", got)
	}
}

func TestAUCDegenerate(t *testing.T) {
	if !math.IsNaN(AUC(preds([]float64{1, 2}, []int{1, 1}))) {
		t.Error("AUC with no negatives should be NaN")
	}
	if !math.IsNaN(AUC(nil)) {
		t.Error("AUC of empty should be NaN")
	}
}

// TestAUCMatchesTrapezoid: the rank formula (Eq. 10) and the geometric ROC
// integration must agree.
func TestAUCMatchesTrapezoid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(200)
		p := make([]Prediction, n)
		pos := false
		neg := false
		for i := range p {
			// Coarse scores force plenty of ties.
			p[i] = Prediction{ID: int64(i), Score: float64(rng.Intn(10)) / 10, Label: rng.Intn(2)}
			if p[i].Label == 1 {
				pos = true
			} else {
				neg = true
			}
		}
		if !pos || !neg {
			return true
		}
		return math.Abs(AUC(p)-trapezoidAUC(p)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPRAUCPerfect(t *testing.T) {
	p := preds([]float64{0.9, 0.8, 0.2, 0.1}, []int{1, 1, 0, 0})
	if got := PRAUC(p); got != 1 {
		t.Errorf("perfect PR-AUC = %g, want 1", got)
	}
}

func TestPRAUCHandComputed(t *testing.T) {
	// Ranked: pos, neg, pos, neg. AP = (1/1 + 2/3)/2 = 5/6.
	p := preds([]float64{0.9, 0.8, 0.7, 0.6}, []int{1, 0, 1, 0})
	if got := PRAUC(p); math.Abs(got-5.0/6) > 1e-12 {
		t.Errorf("PR-AUC = %g, want %g", got, 5.0/6)
	}
}

func TestPRAUCBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		p := make([]Prediction, n)
		anyPos := false
		for i := range p {
			p[i] = Prediction{ID: int64(i), Score: rng.Float64(), Label: rng.Intn(2)}
			anyPos = anyPos || p[i].Label == 1
		}
		if !anyPos {
			return true
		}
		v := PRAUC(p)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRecallPrecisionAtU(t *testing.T) {
	p := preds([]float64{0.9, 0.8, 0.7, 0.6, 0.5}, []int{1, 0, 1, 0, 1})
	if got := RecallAtU(p, 2); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("R@2 = %g, want 1/3", got)
	}
	if got := PrecisionAtU(p, 2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("P@2 = %g, want 0.5", got)
	}
	// U beyond length clamps.
	if got := RecallAtU(p, 100); got != 1 {
		t.Errorf("R@100 = %g, want 1", got)
	}
	if got := PrecisionAtU(p, 100); math.Abs(got-3.0/5) > 1e-12 {
		t.Errorf("P@100 = %g, want 0.6", got)
	}
	if !math.IsNaN(PrecisionAtU(p, 0)) {
		t.Error("P@0 should be NaN")
	}
}

func TestRecallMonotoneInU(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(100)
		p := make([]Prediction, n)
		anyPos := false
		for i := range p {
			p[i] = Prediction{ID: int64(i), Score: rng.Float64(), Label: rng.Intn(2)}
			anyPos = anyPos || p[i].Label == 1
		}
		if !anyPos {
			return true
		}
		prev := 0.0
		for u := 1; u <= n; u += 3 {
			r := RecallAtU(p, u)
			if r < prev-1e-12 {
				return false
			}
			prev = r
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEvaluateAndString(t *testing.T) {
	p := preds([]float64{0.9, 0.1}, []int{1, 0})
	rep := Evaluate(p, 1)
	if rep.NumPos != 1 || rep.NumNeg != 1 {
		t.Errorf("counts = %d/%d", rep.NumPos, rep.NumNeg)
	}
	if rep.PAtU != 1 {
		t.Errorf("P@1 = %g, want 1", rep.PAtU)
	}
	if rep.String() == "" {
		t.Error("empty String()")
	}
}

func TestMeanReport(t *testing.T) {
	a := Report{AUC: 0.8, PRAUC: 0.6, U: 10, RAtU: 0.4, PAtU: 0.2, NumPos: 10, NumNeg: 90}
	b := Report{AUC: 0.6, PRAUC: 0.4, U: 10, RAtU: 0.2, PAtU: 0.4, NumPos: 20, NumNeg: 80}
	m := MeanReport([]Report{a, b})
	if math.Abs(m.AUC-0.7) > 1e-12 || math.Abs(m.PRAUC-0.5) > 1e-12 {
		t.Errorf("mean = %+v", m)
	}
	if m.NumPos != 15 {
		t.Errorf("mean NumPos = %d, want 15", m.NumPos)
	}
	if got := MeanReport(nil); got.AUC != 0 {
		t.Errorf("MeanReport(nil) = %+v", got)
	}
}

func TestROCCurveEndpoints(t *testing.T) {
	p := preds([]float64{0.9, 0.5, 0.1}, []int{1, 0, 1})
	pts := rocCurve(p)
	if pts[0] != (rocPoint{0, 0}) {
		t.Errorf("first ROC point = %+v", pts[0])
	}
	last := pts[len(pts)-1]
	if last.FPR != 1 || last.TPR != 1 {
		t.Errorf("last ROC point = %+v", last)
	}
}

func TestByScoreDescDeterministicTies(t *testing.T) {
	p := []Prediction{{ID: 3, Score: 0.5}, {ID: 1, Score: 0.5}, {ID: 2, Score: 0.7}}
	ByScoreDesc(p)
	if p[0].ID != 2 || p[1].ID != 1 || p[2].ID != 3 {
		t.Errorf("tie order: %+v", p)
	}
}

// rocPoint is one (FPR, TPR) point of the ROC curve.
type rocPoint struct{ FPR, TPR float64 }

// rocCurve returns the ROC curve points at every distinct threshold,
// beginning at (0,0) and ending at (1,1).
func rocCurve(preds []Prediction) []rocPoint {
	pos, neg := Counts(preds)
	if pos == 0 || neg == 0 {
		return nil
	}
	sorted := make([]Prediction, len(preds))
	copy(sorted, preds)
	ByScoreDesc(sorted)
	points := []rocPoint{{0, 0}}
	tp, fp := 0, 0
	i := 0
	for i < len(sorted) {
		j := i
		for j < len(sorted) && sorted[j].Score == sorted[i].Score {
			if sorted[j].Label == 1 {
				tp++
			} else {
				fp++
			}
			j++
		}
		points = append(points, rocPoint{float64(fp) / float64(neg), float64(tp) / float64(pos)})
		i = j
	}
	return points
}

// trapezoidAUC integrates the ROC curve with the trapezoid rule: the
// reference AUC's rank formula must agree with up to floating-point error.
func trapezoidAUC(preds []Prediction) float64 {
	points := rocCurve(preds)
	if points == nil {
		return math.NaN()
	}
	area := 0.0
	for i := 1; i < len(points); i++ {
		dx := points[i].FPR - points[i-1].FPR
		area += float64(dx * (points[i].TPR + points[i-1].TPR) / 2)
	}
	return area
}
