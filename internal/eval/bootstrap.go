package eval

import (
	"math"
	"math/rand"
	"sort"
)

// CI is a two-sided bootstrap confidence interval for one metric.
type CI struct {
	Point, Lo, Hi float64
}

// Width returns Hi - Lo.
func (c CI) Width() float64 { return c.Hi - c.Lo }

// BootstrapCI estimates a percentile-bootstrap confidence interval for any
// metric over the prediction set (the paper reports averages with "variance
// is too small to be shown" — this makes that checkable). level is the
// coverage (e.g. 0.95); rounds is the number of resamples (default 200 when
// <= 0). Resamples that leave the metric undefined (e.g. no positives) are
// skipped.
func BootstrapCI(preds []Prediction, metric func([]Prediction) float64, rounds int, level float64, seed int64) CI {
	if rounds <= 0 {
		rounds = 200
	}
	if level <= 0 || level >= 1 {
		level = 0.95
	}
	point := metric(preds)
	if len(preds) == 0 {
		return CI{Point: point, Lo: math.NaN(), Hi: math.NaN()}
	}
	rng := rand.New(rand.NewSource(seed))
	sample := make([]Prediction, len(preds))
	values := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		for i := range sample {
			sample[i] = preds[rng.Intn(len(preds))]
		}
		v := metric(sample)
		if !math.IsNaN(v) {
			values = append(values, v)
		}
	}
	if len(values) == 0 {
		return CI{Point: point, Lo: math.NaN(), Hi: math.NaN()}
	}
	sort.Float64s(values)
	alpha := float64((1 - level) / 2)
	lo := values[int(alpha*float64(len(values)))]
	hiIdx := int((1 - alpha) * float64(len(values)))
	if hiIdx >= len(values) {
		hiIdx = len(values) - 1
	}
	return CI{Point: point, Lo: lo, Hi: values[hiIdx]}
}
