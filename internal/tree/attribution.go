package tree

// Decision-path attribution (the Saabas method): walking an instance down a
// tree, every split shifts the expected class-1 probability from the parent
// node's distribution to the chosen child's; that shift is credited to the
// feature the split tested. Summed over the ensemble, the attributions
// decompose the forest's churn score exactly:
//
//	Score(x) = bias + Σ_f Contribution_f(x)
//
// where bias is the average root-node probability. This implements the
// paper's stated extension — "inferring root causes of churners for
// actionable and suitable retention strategies" — on top of the deployed RF.

// Contributions returns the per-feature decision-path attributions of the
// class-1 (churn) score for one instance, plus the ensemble bias. The
// returned slice is aligned with the training feature order; the identity
// bias + sum(contrib) == Score(x) holds to floating-point accuracy.
func (f *Forest) Contributions(x []float64) (bias float64, contrib []float64) {
	if len(f.roots) == 0 {
		return 0, nil
	}
	contrib = make([]float64, len(f.features))
	nc := f.numClasses
	for _, i := range f.roots {
		p := f.probs[int(i)*nc+1]
		bias += p
		for f.feats[i] >= 0 {
			next := f.kids[i] + int32(right(x[f.feats[i]], f.thrs[i]))
			q := f.probs[int(next)*nc+1]
			contrib[f.feats[i]] += q - p
			i, p = next, q
		}
	}
	n := float64(len(f.roots))
	bias /= n
	for i := range contrib {
		contrib[i] /= n
	}
	return bias, contrib
}

// Contribution pairs a feature with its attribution for one instance.
type Contribution struct {
	Feature string
	Value   float64 // the instance's feature value
	Score   float64 // signed contribution to the churn likelihood
}

// TopContributions returns the k largest-|score| attributions for one
// instance, most influential first.
func (f *Forest) TopContributions(x []float64, k int) []Contribution {
	_, contrib := f.Contributions(x)
	out := make([]Contribution, 0, len(contrib))
	for i, c := range contrib {
		name := ""
		if i < len(f.features) {
			name = f.features[i]
		}
		out = append(out, Contribution{Feature: name, Value: x[i], Score: c})
	}
	// Partial selection sort: k is small.
	if k > len(out) {
		k = len(out)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(out); j++ {
			if abs(out[j].Score) > abs(out[best].Score) {
				best = j
			}
		}
		out[i], out[best] = out[best], out[i]
	}
	return out[:k]
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
