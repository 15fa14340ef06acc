// Package retention implements the campaign system of Sections 4.3 and 5.5:
// A/B-tested recharge offers for predicted churners, a multi-class random
// forest that learns to match offers to customers from campaign feedback,
// and label-propagation features from campaign labels — the closed loop of
// Figure 3.
//
// Offer acceptance is simulated from the generator's latent per-customer
// state (best offer and retainability), which features can predict only
// through the usage behaviors those latents drive — exactly the learning
// problem the deployed system faces.
package retention

import (
	"errors"
	"fmt"
	"math/rand"

	"telcochurn/internal/core"
	"telcochurn/internal/dataset"
	"telcochurn/internal/eval"
	"telcochurn/internal/features"
	"telcochurn/internal/graph"
	"telcochurn/internal/synth"
	"telcochurn/internal/table"
	"telcochurn/internal/tree"
)

// Acceptance multipliers: an offer matching the customer's latent preference
// converts far better than an arbitrary one (calibrated to Table 6's
// month-8 vs month-9 contrast).
const (
	matchedOfferMult = 0.62
	otherOfferMult   = 0.15
)

// Config parameterizes the two-month campaign experiment.
type Config struct {
	// TopTier and SecondTier are the ranked-list cutoffs, the paper's
	// 50 000 and 100 000 scaled to the simulated population.
	TopTier, SecondTier int
	// PilotTier is how deep pilot (learning) campaigns target; default
	// 3 x SecondTier. Pilots trade precision for feedback volume: every
	// extra acceptance is a labeled example for the offer classifier.
	PilotTier int
	// Seed drives A/B splits, offer randomization and acceptance draws.
	Seed int64
	// Retention classifier ensemble size (default 120).
	NumTrees int
	// MinLeafSamples for the retention forest (default 2 — the training
	// set is the handful of accepted offers, every example counts).
	MinLeafSamples int
}

func (c Config) withDefaults() Config {
	if c.NumTrees == 0 {
		c.NumTrees = 120
	}
	if c.MinLeafSamples == 0 {
		c.MinLeafSamples = 2
	}
	if c.PilotTier == 0 {
		c.PilotTier = 3 * c.SecondTier
	}
	return c
}

// Target is one customer selected for a campaign.
type Target struct {
	ID    int64
	Tier  int  // 1 = top tier, 2 = second tier
	Group byte // 'A' control, 'B' treatment
	Offer int  // synth.OfferNone for group A
	// Outcome.
	Recharged bool
	Accepted  bool // accepted the offer (implies Recharged)
}

// TierStats aggregates Table 6's cells.
type TierStats struct {
	Tier      int
	Group     byte
	Total     int
	Recharged int
}

// Rate returns the recharge rate.
func (s TierStats) Rate() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Recharged) / float64(s.Total)
}

// CampaignResult is one month's campaign outcome.
type CampaignResult struct {
	Month   int
	Targets []Target
	Stats   []TierStats // 4 rows: tier1/A, tier1/B, tier2/A, tier2/B
}

// statsOf aggregates targets into the four Table 6 cells.
func statsOf(month int, targets []Target) *CampaignResult {
	res := &CampaignResult{Month: month, Targets: targets}
	idx := map[[2]any]*TierStats{}
	order := [][2]any{{1, byte('A')}, {1, byte('B')}, {2, byte('A')}, {2, byte('B')}}
	for _, k := range order {
		idx[k] = &TierStats{Tier: k[0].(int), Group: k[1].(byte)}
	}
	for _, t := range targets {
		s := idx[[2]any{t.Tier, t.Group}]
		s.Total++
		if t.Recharged {
			s.Recharged++
		}
	}
	for _, k := range order {
		res.Stats = append(res.Stats, *idx[k])
	}
	return res
}

// truthInfo is the per-customer hidden state the acceptance simulation uses.
type truthInfo struct {
	decided    bool
	inRecharge bool
	daysToRech int
	bestOffer  int
	retainBase float64
}

func truthMap(t *table.Table) map[int64]truthInfo {
	imsi := t.MustCol("imsi").Ints
	decided := t.MustCol("decided").Ints
	inR := t.MustCol("in_recharge").Ints
	days := t.MustCol("days_to_recharge").Ints
	best := t.MustCol("best_offer").Ints
	base := t.MustCol("retain_base").Floats
	out := make(map[int64]truthInfo, len(imsi))
	for i, id := range imsi {
		out[id] = truthInfo{
			decided:    decided[i] == 1,
			inRecharge: inR[i] == 1,
			daysToRech: int(days[i]),
			bestOffer:  int(best[i]),
			retainBase: base[i],
		}
	}
	return out
}

// acceptProb is the simulated probability that a decided churner accepts the
// offer and recharges.
func acceptProb(offer, bestOffer int, retainBase float64) float64 {
	if offer == synth.OfferNone {
		return 0
	}
	if offer == bestOffer {
		return retainBase * matchedOfferMult
	}
	return retainBase * otherOfferMult
}

// selectTargets ranks predictions descending and assigns tiers and A/B
// groups.
func selectTargets(preds []eval.Prediction, cfg Config, rng *rand.Rand) []Target {
	sorted := make([]eval.Prediction, len(preds))
	copy(sorted, preds)
	eval.ByScoreDesc(sorted)
	var targets []Target
	for rank, p := range sorted {
		if rank >= cfg.SecondTier {
			break
		}
		tier := 1
		if rank >= cfg.TopTier {
			tier = 2
		}
		group := byte('A')
		if rng.Float64() < 0.5 {
			group = 'B'
		}
		targets = append(targets, Target{ID: p.ID, Tier: tier, Group: group})
	}
	return targets
}

// simulateOutcomes draws each target's recharge outcome from the campaign
// month's hidden state.
func simulateOutcomes(targets []Target, truth map[int64]truthInfo, rng *rand.Rand) {
	for i := range targets {
		t := &targets[i]
		info, ok := truth[t.ID]
		if !ok {
			// Left the population before the campaign month; counts as not
			// recharged.
			continue
		}
		if info.decided {
			if rng.Float64() < acceptProb(t.Offer, info.bestOffer, info.retainBase) {
				t.Accepted = true
				t.Recharged = true
			}
			continue
		}
		// False positive: natural recharge behavior.
		t.Recharged = info.inRecharge && info.daysToRech >= 1 && info.daysToRech <= 15
	}
}

// Runner executes the two-campaign experiment against a fitted churn
// pipeline.
type Runner struct {
	cfg  Config
	src  core.Source
	pipe *core.Pipeline
}

// NewRunner builds a campaign runner.
func NewRunner(src core.Source, pipe *core.Pipeline, cfg Config) *Runner {
	return &Runner{cfg: cfg.withDefaults(), src: src, pipe: pipe}
}

// RunPilotCampaign runs a pure learning campaign: the top PilotTier
// predicted churners all receive a uniformly random offer (no control
// group) and the outcomes feed FitOfferClassifier. Operators run these
// before committing to matched campaigns — feedback volume is what makes
// the closed loop converge.
func (r *Runner) RunPilotCampaign(campaignMonth int) (*CampaignResult, error) {
	days := r.src.DaysPerMonth()
	preds, _, err := r.pipe.Evaluate(r.src, core.MonthSpec(campaignMonth-1, days), r.cfg.TopTier)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.cfg.Seed + 7700 + int64(campaignMonth)))
	sorted := make([]eval.Prediction, len(preds))
	copy(sorted, preds)
	eval.ByScoreDesc(sorted)
	var targets []Target
	for rank, p := range sorted {
		if rank >= r.cfg.PilotTier {
			break
		}
		tier := 1
		if rank >= r.cfg.TopTier {
			tier = 2
		}
		targets = append(targets, Target{
			ID: p.ID, Tier: tier, Group: 'B', Offer: 1 + rng.Intn(synth.NumOffers),
		})
	}
	truthT, err := r.src.Truth(campaignMonth)
	if err != nil {
		return nil, err
	}
	simulateOutcomes(targets, truthMap(truthT), rng)
	return statsOf(campaignMonth, targets), nil
}

// RunFirstCampaign targets the predicted churners of campaign month
// (features from campaignMonth-1), assigns group-B offers uniformly at
// random (the paper's month-8 "domain knowledge" assignment performed no
// better than random), and simulates outcomes.
func (r *Runner) RunFirstCampaign(campaignMonth int) (*CampaignResult, error) {
	days := r.src.DaysPerMonth()
	preds, _, err := r.pipe.Evaluate(r.src, core.MonthSpec(campaignMonth-1, days), r.cfg.TopTier)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.cfg.Seed + int64(campaignMonth)))
	targets := selectTargets(preds, r.cfg, rng)
	for i := range targets {
		if targets[i].Group == 'B' {
			targets[i].Offer = 1 + rng.Intn(synth.NumOffers)
		}
	}
	truthT, err := r.src.Truth(campaignMonth)
	if err != nil {
		return nil, err
	}
	simulateOutcomes(targets, truthMap(truthT), rng)
	return statsOf(campaignMonth, targets), nil
}

// FitOfferClassifier trains the multi-class retention forest on prior
// campaigns' group-B feedback — the paper's closed loop where "class labels
// (retention results) are accumulated after each retention campaign"
// (Section 4.3). Training uses the accepted offers (classes 1..4): a
// rejection says the customer was hard to retain, not that the offer was a
// bad match, so it carries no best-offer information. Features are the
// churn wide table of each campaign's feature month plus 3×C
// label-propagation features from the newest campaign's labels.
func (r *Runner) FitOfferClassifier(prev ...*CampaignResult) (*OfferClassifier, error) {
	if len(prev) == 0 {
		return nil, errors.New("retention: no campaigns to learn from")
	}
	days := r.src.DaysPerMonth()
	newest := prev[len(prev)-1]
	lp, err := r.campaignLPFeatures(newest)
	if err != nil {
		return nil, err
	}

	var d *dataset.Dataset
	for _, campaign := range prev {
		featMonth := campaign.Month - 1
		frame, err := r.pipe.BuildFrame(r.src, features.MonthWindow(featMonth, days), false, nil)
		if err != nil {
			return nil, err
		}
		if d == nil {
			d = dataset.New(append(frame.Names(), lp.names...))
		}
		for _, t := range campaign.Targets {
			if t.Group != 'B' || !t.Accepted {
				continue
			}
			row, ok := frame.Row(t.ID)
			if !ok {
				continue
			}
			full := append(append([]float64(nil), row...), lp.rowFor(t.ID)...)
			d.X = append(d.X, full)
			d.Y = append(d.Y, t.Offer)
		}
	}
	if d == nil || d.NumInstances() == 0 {
		return nil, errors.New("retention: no accepted offers to learn from")
	}
	forest, err := tree.FitForest(d, tree.ForestConfig{
		NumTrees:       r.cfg.NumTrees,
		MinLeafSamples: r.cfg.MinLeafSamples,
		Seed:           r.cfg.Seed + 1001,
	})
	if err != nil {
		return nil, err
	}
	return &OfferClassifier{forest: forest, lp: lp, numClasses: synth.NumRetentionClass}, nil
}

// RunMatchedCampaign runs the next month's campaign with offers chosen by
// the fitted classifier (the paper's month 9).
func (r *Runner) RunMatchedCampaign(campaignMonth int, clf *OfferClassifier) (*CampaignResult, error) {
	days := r.src.DaysPerMonth()
	preds, _, err := r.pipe.Evaluate(r.src, core.MonthSpec(campaignMonth-1, days), r.cfg.TopTier)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.cfg.Seed + int64(campaignMonth)))
	targets := selectTargets(preds, r.cfg, rng)

	frame, err := r.pipe.BuildFrame(r.src, features.MonthWindow(campaignMonth-1, days), false, nil)
	if err != nil {
		return nil, err
	}
	for i := range targets {
		if targets[i].Group != 'B' {
			continue
		}
		row, ok := frame.Row(targets[i].ID)
		if !ok {
			targets[i].Offer = 1 + rng.Intn(synth.NumOffers)
			continue
		}
		targets[i].Offer = clf.BestOffer(targets[i].ID, row)
	}
	truthT, err := r.src.Truth(campaignMonth)
	if err != nil {
		return nil, err
	}
	simulateOutcomes(targets, truthMap(truthT), rng)
	return statsOf(campaignMonth, targets), nil
}

// OfferClassifier matches offers to customers.
type OfferClassifier struct {
	forest     *tree.Forest
	lp         *lpFeatures
	numClasses int
}

// BestOffer returns the offer (1..NumOffers) with the highest predicted
// acceptance probability for the customer.
func (c *OfferClassifier) BestOffer(id int64, churnFeatures []float64) int {
	full := append(append([]float64(nil), churnFeatures...), c.lp.rowFor(id)...)
	probs := c.forest.PredictProba(full)
	best, bestP := synth.OfferCashback50, -1.0
	for offer := 1; offer < len(probs) && offer <= synth.NumOffers; offer++ {
		if probs[offer] > bestP {
			best, bestP = offer, probs[offer]
		}
	}
	return best
}

// lpFeatures holds the 3×C label-propagation features from campaign labels.
type lpFeatures struct {
	names []string
	rows  map[int64][]float64
	width int
}

func (l *lpFeatures) rowFor(id int64) []float64 {
	if r, ok := l.rows[id]; ok {
		return r
	}
	uniform := make([]float64, l.width)
	for i := range uniform {
		uniform[i] = 1.0 / float64(synth.NumRetentionClass)
	}
	return uniform
}

// campaignLPFeatures propagates the campaign result labels over the three
// graphs of the campaign's feature month: "customers with close relationship
// tend to have similar retention offers."
func (r *Runner) campaignLPFeatures(prev *CampaignResult) (*lpFeatures, error) {
	days := r.src.DaysPerMonth()
	win := features.MonthWindow(prev.Month-1, days)
	tbl, err := r.src.Tables(win)
	if err != nil {
		return nil, err
	}
	seeds := make(map[int64]int)
	for _, t := range prev.Targets {
		if t.Group != 'B' {
			continue
		}
		if t.Accepted {
			seeds[t.ID] = t.Offer
		} else {
			seeds[t.ID] = synth.OfferNone
		}
	}
	known := make(map[int64]bool, len(seeds))
	for id := range seeds {
		known[id] = true
	}
	workers := r.pipe.Config().Workers
	graphs := features.BuildGraphs(features.AllGroups(), tbl, win, days, synth.IsCustomerID, workers)
	C := synth.NumRetentionClass
	out := &lpFeatures{rows: make(map[int64][]float64), width: 3 * C}
	for gi, name := range []string{"voice", "message", "cooccurrence"} {
		for c := 0; c < C; c++ {
			out.names = append(out.names, fmt.Sprintf("retlp_%s_class%d", name, c))
		}
		probs := graphs[gi].LabelPropagation(seeds, C, graph.LabelPropOptions{Workers: workers})
		for id, p := range probs {
			row, ok := out.rows[id]
			if !ok {
				row = make([]float64, out.width)
				for i := range row {
					row[i] = 1.0 / float64(C)
				}
				out.rows[id] = row
			}
			copy(row[gi*C:(gi+1)*C], p)
		}
	}
	return out, nil
}
