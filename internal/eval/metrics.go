// Package eval implements the predictive-performance metrics used throughout
// the paper's evaluation (Section 5.1): AUC via the rank formula (Eq. 10),
// the area under the precision-recall curve (PR-AUC), and recall@U /
// precision@U over the top-U ranked customers (Eqs. 8-9).
package eval

import (
	"fmt"
	"math"
	"sort"
)

// Prediction pairs a churn-likelihood score with the true binary label.
type Prediction struct {
	// Score is the predicted likelihood of the positive class (churner).
	Score float64
	// Label is the true class: 1 for churner, 0 for non-churner.
	Label int
	// ID optionally identifies the customer the prediction is for.
	ID int64
}

// ByScoreDesc sorts predictions by descending score, breaking ties by ID so
// results are deterministic.
func ByScoreDesc(preds []Prediction) {
	sort.Slice(preds, func(i, j int) bool {
		if preds[i].Score != preds[j].Score {
			return preds[i].Score > preds[j].Score
		}
		return preds[i].ID < preds[j].ID
	})
}

// Counts returns the number of positive and negative labels.
func Counts(preds []Prediction) (pos, neg int) {
	for _, p := range preds {
		if p.Label == 1 {
			pos++
		} else {
			neg++
		}
	}
	return pos, neg
}

// AUC computes the area under the ROC curve using the rank-sum formula of
// Eq. (10): (sum of ranks of positives - P(P+1)/2) / (P*N), with average
// ranks for tied scores so the result equals the probability that a random
// positive outranks a random negative (ties counting 1/2).
//
// Returns NaN when there are no positives or no negatives.
func AUC(preds []Prediction) float64 {
	pos, neg := Counts(preds)
	if pos == 0 || neg == 0 {
		return math.NaN()
	}
	sorted := make([]Prediction, len(preds))
	copy(sorted, preds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Score < sorted[j].Score })

	// Assign average ranks within tied groups (1-based, ascending score).
	rankSumPos := 0.0
	i := 0
	for i < len(sorted) {
		j := i
		for j < len(sorted) && sorted[j].Score == sorted[i].Score {
			j++
		}
		// ranks i+1 .. j, average (i+1+j)/2
		avgRank := float64(float64(i+1+j) / 2.0)
		for k := i; k < j; k++ {
			if sorted[k].Label == 1 {
				rankSumPos += avgRank
			}
		}
		i = j
	}
	p := float64(pos)
	n := float64(neg)
	return (rankSumPos - float64(p*(p+1)/2)) / (p * n)
}

// PRAUC computes the area under the precision-recall curve by interpolating
// precision between distinct score thresholds (average-precision style:
// sum over positives, in rank order, of precision-at-that-rank). With the
// heavy class imbalance of churn data this is the paper's preferred overall
// metric (Section 5.1, citing Davis & Goadrich).
//
// Returns NaN when there are no positives.
func PRAUC(preds []Prediction) float64 {
	pos, _ := Counts(preds)
	if pos == 0 {
		return math.NaN()
	}
	sorted := make([]Prediction, len(preds))
	copy(sorted, preds)
	ByScoreDesc(sorted)

	// Average precision with tie handling: within a tied-score block, assume
	// positives are uniformly distributed and use the block-average
	// precision for each positive in the block.
	ap := 0.0
	tp := 0.0
	seen := 0.0
	i := 0
	for i < len(sorted) {
		j := i
		blockPos := 0
		for j < len(sorted) && sorted[j].Score == sorted[i].Score {
			if sorted[j].Label == 1 {
				blockPos++
			}
			j++
		}
		blockLen := float64(j - i)
		if blockPos > 0 {
			// All positives in a tied block see the precision at the end of
			// the block: ties cannot be ordered, so the whole block is
			// admitted or rejected together.
			precEnd := (tp + float64(blockPos)) / (seen + blockLen)
			ap += float64(float64(blockPos) * precEnd)
		}
		tp += float64(blockPos)
		seen += blockLen
		i = j
	}
	return ap / float64(pos)
}

// RecallAtU computes Eq. (8): the fraction of all true churners captured in
// the top U predictions ranked by descending score.
func RecallAtU(preds []Prediction, u int) float64 {
	pos, _ := Counts(preds)
	if pos == 0 {
		return math.NaN()
	}
	return float64(truePositivesInTopU(preds, u)) / float64(pos)
}

// PrecisionAtU computes Eq. (9): the fraction of the top U predictions that
// are true churners.
func PrecisionAtU(preds []Prediction, u int) float64 {
	if u <= 0 {
		return math.NaN()
	}
	if u > len(preds) {
		u = len(preds)
	}
	return float64(truePositivesInTopU(preds, u)) / float64(u)
}

func truePositivesInTopU(preds []Prediction, u int) int {
	if u > len(preds) {
		u = len(preds)
	}
	sorted := make([]Prediction, len(preds))
	copy(sorted, preds)
	ByScoreDesc(sorted)
	tp := 0
	for _, p := range sorted[:u] {
		if p.Label == 1 {
			tp++
		}
	}
	return tp
}

// Report bundles the four headline metrics the paper reports for every
// experiment (AUC, PR-AUC, R@U, P@U at a single U).
type Report struct {
	AUC    float64
	PRAUC  float64
	U      int
	RAtU   float64
	PAtU   float64
	NumPos int
	NumNeg int
}

// Evaluate computes a Report at the given U.
func Evaluate(preds []Prediction, u int) Report {
	pos, neg := Counts(preds)
	return Report{
		AUC:    AUC(preds),
		PRAUC:  PRAUC(preds),
		U:      u,
		RAtU:   RecallAtU(preds, u),
		PAtU:   PrecisionAtU(preds, u),
		NumPos: pos,
		NumNeg: neg,
	}
}

// String formats the report in the paper's table style.
func (r Report) String() string {
	return fmt.Sprintf("AUC=%.5f PR-AUC=%.5f R@%d=%.5f P@%d=%.5f (pos=%d neg=%d)",
		r.AUC, r.PRAUC, r.U, r.RAtU, r.U, r.PAtU, r.NumPos, r.NumNeg)
}

// MeanReport averages a slice of reports element-wise (used when an
// experiment is repeated over several sliding-window positions and the paper
// reports the average).
func MeanReport(reports []Report) Report {
	if len(reports) == 0 {
		return Report{}
	}
	var m Report
	m.U = reports[0].U
	for _, r := range reports {
		m.AUC += r.AUC
		m.PRAUC += r.PRAUC
		m.RAtU += r.RAtU
		m.PAtU += r.PAtU
		m.NumPos += r.NumPos
		m.NumNeg += r.NumNeg
	}
	n := float64(len(reports))
	m.AUC /= n
	m.PRAUC /= n
	m.RAtU /= n
	m.PAtU /= n
	m.NumPos /= len(reports)
	m.NumNeg /= len(reports)
	return m
}
